// Local messages carry ids only: a message whose destination rank already
// stores the point (init_req, type2plus, type2_unopt, init_sample sent to
// the sender's own rank) omits the feature, and the handler reads the row
// from its shard in place. That must be invisible in everything except
// those labels' local byte counts.
//
// Pinned here against constants recorded before local messages dropped
// their features, for small fixed builds under the sequential driver:
//   - the gathered graph's fingerprint (every row's ids and distance bits),
//   - the per-iteration update counts and the distance evaluations,
//   - a traffic fingerprint over every handler's local and remote message
//     counts and remote bytes (local bytes are the one thing that moved).
// The scenarios cover every feature-carrying label on both its local and
// its remote path: the optimized pattern at 1 and 3 ranks (init_req,
// type2plus), the unoptimized pattern (type2_unopt), ingestion through
// the transport (ingest keeps its feature) and dynamic inserts
// (init_sample).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>

#include "comm/environment.hpp"
#include "core/distance_kernels.hpp"
#include "core/dnnd_runner.hpp"
#include "data/synthetic.hpp"
#include "util/hash.hpp"

namespace {

using namespace dnnd;  // NOLINT

using L2Batch = core::L2Kernel<float>;

data::GaussianMixture family(std::size_t dim) {
  data::MixtureSpec spec;
  spec.dim = dim;
  spec.num_clusters = 8;
  spec.seed = 1601;
  return data::GaussianMixture(spec);
}

/// Points drawn after a build, with ids continuing past the base range.
core::FeatureStore<float> inserts(std::size_t n, std::size_t dim,
                                  core::VertexId first_id) {
  const auto raw = family(dim).sample(n, 2);
  core::FeatureStore<float> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out.add(first_id + static_cast<core::VertexId>(i), raw.row(i));
  }
  return out;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t graph_fingerprint(const core::KnnGraph& graph) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    h = fnv(h, v);
    for (const core::Neighbor& n : graph.neighbors(v)) {
      h = fnv(h, n.id);
      h = fnv(h, std::bit_cast<std::uint32_t>(n.distance));
    }
  }
  return h;
}

struct Outcome {
  std::uint64_t graph = 0;
  std::uint64_t updates = 0;
  std::uint64_t evals = 0;
  std::uint64_t traffic = 0;
  std::string table;  ///< the traffic table, printed on a mismatch
};

/// Fingerprints every handler's message counts and remote bytes — all of
/// the transport accounting except local bytes.
void record_traffic(const comm::MessageStats& stats, Outcome& out) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::ostringstream table;
  for (const auto& c : stats.handlers()) {
    h = fnv(h, util::fnv1a(c.label));
    h = fnv(h, c.local_messages);
    h = fnv(h, c.remote_messages);
    h = fnv(h, c.remote_bytes);
    table << "  " << c.label << ": local " << c.local_messages << " msgs "
          << c.local_bytes << " B, remote " << c.remote_messages << " msgs "
          << c.remote_bytes << " B\n";
  }
  out.traffic = h;
  out.table = table.str();
}

enum class Scenario { kOptimized, kUnoptimized, kExchange, kInsert };

Outcome run(Scenario scenario, int ranks) {
  comm::Environment env(comm::Config{.num_ranks = ranks});
  core::DnndConfig cfg;
  cfg.k = 8;
  cfg.threads_per_rank = 1;
  cfg.optimized_checks = scenario != Scenario::kUnoptimized;
  core::DnndRunner<float, L2Batch> runner(env, cfg, L2Batch{});
  const auto base = family(24).sample(500, 1);
  if (scenario == Scenario::kExchange) {
    runner.distribute_via_exchange(base);
  } else {
    runner.distribute(base);
  }
  auto stats = runner.build();
  if (scenario == Scenario::kInsert) {
    runner.add_points(inserts(60, 24, 500));
    stats = runner.refine(3);
  }
  Outcome out;
  out.graph = graph_fingerprint(runner.gather());
  const auto& history = runner.updates_history();
  out.updates = std::accumulate(history.begin(), history.end(),
                                std::uint64_t{0});
  out.evals = stats.distance_evals;
  record_traffic(env.aggregate_stats(), out);
  return out;
}

struct Pinned {
  const char* name;
  Scenario scenario;
  int ranks;
  std::uint64_t graph;
  std::uint64_t updates;
  std::uint64_t evals;
  std::uint64_t traffic;
};

// Recorded with features still shipped on every message; any drift means
// dropping them changed the schedule or the algorithm, not just bytes.
constexpr Pinned kPinned[] = {
    {"optimized_1r", Scenario::kOptimized, 1, 0xbf2dc3e59a7156d9, 16243,
     71620, 0x216e2823f3403867},
    {"optimized_3r", Scenario::kOptimized, 3, 0x3c2ade1c3438751a, 16238,
     71254, 0x7122e2f1a78d96f8},
    {"unoptimized_3r", Scenario::kUnoptimized, 3, 0x7812b2406945bfa9, 16204,
     177908, 0x20d5bbda5e91bd22},
    {"exchange_3r", Scenario::kExchange, 3, 0x3c2ade1c3438751a, 16238, 71254,
     0xc3e706f802691330},
    {"insert_3r", Scenario::kInsert, 3, 0x712fffd955f06fca, 18436, 84032,
     0x0d40c5f821121ecc},
};

void PrintTo(const Pinned& pin, std::ostream* os) { *os << pin.name; }

class LocalFeatures : public ::testing::TestWithParam<Pinned> {};

TEST_P(LocalFeatures, BuildMatchesFeatureShippingConstants) {
  const Pinned& pin = GetParam();
  const Outcome got = run(pin.scenario, pin.ranks);
  SCOPED_TRACE(::testing::Message()
               << "measured: " << std::hex << "0x" << got.graph << ", "
               << std::dec << got.updates << ", " << got.evals << ", "
               << std::hex << "0x" << got.traffic << std::dec << "\n"
               << got.table);
  EXPECT_EQ(got.graph, pin.graph);
  EXPECT_EQ(got.updates, pin.updates);
  EXPECT_EQ(got.evals, pin.evals);
  EXPECT_EQ(got.traffic, pin.traffic);
}

INSTANTIATE_TEST_SUITE_P(Pinned, LocalFeatures, ::testing::ValuesIn(kPinned),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

/// Local type2plus bytes per message at 1 rank, where every check is local.
double local_type2plus_bytes_per_message(std::size_t dim) {
  comm::Environment env(comm::Config{.num_ranks = 1});
  core::DnndConfig cfg;
  cfg.k = 8;
  cfg.threads_per_rank = 1;
  core::DnndRunner<float, L2Batch> runner(env, cfg, L2Batch{});
  runner.distribute(family(dim).sample(300, 1));
  runner.build();
  const auto c = env.aggregate_stats().by_label("type2plus");
  EXPECT_GT(c.local_messages, 0u);
  EXPECT_EQ(c.remote_messages, 0u);
  return static_cast<double>(c.local_bytes) /
         static_cast<double>(c.local_messages);
}

TEST(LocalFeatures, LocalType2PlusSizeIndependentOfDim) {
  const double narrow = local_type2plus_bytes_per_message(8);
  const double wide = local_type2plus_bytes_per_message(64);
  EXPECT_EQ(narrow, wide);
  EXPECT_LT(wide, 8.0 * sizeof(float));
}

}  // namespace
