// End-to-end DNND benchmark: runs one named workload from a seed, checks
// its outputs, and prints every metric with its unit. See NOTES.md in this
// directory for why each workload exists and what each metric should move.
//
//   dnnd_e2e --workload <build-1r|build-4r> --seed <n> --seconds <s>
//            --trace <0|1> [--rev <source revision>]
//
// Every workload is the same pipeline (ingest → build → optimize → gather →
// serve) over the DEEP1B stand-in; they differ in the build shape:
//   build-1r  1 rank, sequential driver, threads_per_rank = nproc.
//   build-4r  4 ranks, threaded driver, threads_per_rank = 1.
// In the measuring window builds alternate with query rounds on the
// sequential-driver graph of the points. A query round is shared-memory
// search plus 4-rank replicated serving.
//
// All measuring happens here, around calls into the library's public API;
// per-layer numbers come from counters and spans the library already
// exports. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a run that
// alternates untraced and traced (trace_sample_period > 0) work.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/brute_force.hpp"
#include "bench/common.hpp"
#include "comm/environment.hpp"
#include "core/distance_kernels.hpp"
#include "core/distributed_query.hpp"
#include "core/dnnd_runner.hpp"
#include "core/knn_query.hpp"
#include "core/nn_descent.hpp"
#include "data/synthetic.hpp"
#include "telemetry/memory.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

#ifndef DNND_E2E_BUILD_TYPE
#define DNND_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dnnd;
using core::Dist;
using core::FeatureStore;
using core::KnnGraph;
using core::Neighbor;
using core::SearchParams;
using core::SearchResult;
using core::VertexId;
using L2 = core::L2Kernel<float>;
using Runner = core::DnndRunner<float, L2>;
using Service = core::DistributedQueryService<float, L2>;
using Searcher = core::GraphSearcher<float, L2>;

// ---- fixed workload parameters ------------------------------------------
constexpr std::size_t kDim = 96;
constexpr std::size_t kK = 10;
constexpr std::size_t kPoints = 8000;
constexpr std::size_t kGraphSample = 256;  ///< vertices for graph recall
constexpr std::size_t kQueries = 2048;
constexpr std::size_t kSlices = 4;  ///< query slices per round
constexpr std::size_t kSliceQueries = kQueries / kSlices;
constexpr std::size_t kServeBatch = 64;  ///< serving queries in flight
constexpr std::size_t kServeQpsQueries = 256;  ///< per slice sweep
constexpr int kServeRanks = 4;
constexpr int kReplication = 2;
constexpr double kEpsilon = 0.2;
constexpr std::size_t kEntryPoints = 24;
constexpr std::uint64_t kSearchSeed = 99;
constexpr std::uint64_t kTracePeriod = 64;  ///< traced-run sampling period
constexpr int kSetupReps = 7;
constexpr std::size_t kMinBuilds = 3;
constexpr std::uint64_t kMinRounds = 2;  ///< a second pass checks repeats
constexpr int kSearchQpsReps = 4;  ///< batch_search calls per query round

// Correctness floors (NOTES.md records the observed values they sit under).
constexpr double kGraphRecallFloor = 0.90;
constexpr double kSearchRecallFloor = 0.80;
constexpr double kServeRecallFloor = 0.80;
constexpr double kAttributionFloor = 0.90;

/// The DEEP1B stand-in is the benches' billion_standin_spec(96, seed). Its
/// mixture (the cluster centers) is one fixed family, as DEEP1B is one
/// corpus; the workload seed draws the base points and queries from it.
constexpr std::uint64_t kFamilySeed = 2023;

/// The CPUs this process may run on (what `nproc` counts).
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Runs `fn` on a new thread pinned to `cpu` and waits for it: one client
/// on one CPU. The single-client passes rotate over the host's CPUs this
/// way (NOTES.md, "Noise"). The calling thread's own CPU set never
/// changes: pinning and unpinning it slowed its later batch_search calls
/// several-fold for a dozen calls.
template <typename Fn>
void on_cpu(int cpu, Fn&& fn) {
  std::exception_ptr error;
  std::thread client([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  client.join();
  if (error) std::rethrow_exception(error);
}

// ---- small statistics ----------------------------------------------------
double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx[idx.size() / 2];
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a over every row's (id, distance bits): the bit-identity probe.
std::uint64_t graph_hash(const KnnGraph& graph) {
  std::uint64_t h = kFnvBasis;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const Neighbor& n : graph.neighbors(v)) {
      h = fnv(h, n.id);
      h = fnv(h, std::bit_cast<std::uint32_t>(n.distance));
    }
  }
  return h;
}

// ---- failure accounting --------------------------------------------------
/// Counts operations and failed operations; keeps the first few reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> errors;

  void ok() { ++attempted; }
  void fail(const std::string& why) {
    ++attempted;
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  /// A run-level violation (recall floor, determinism, attribution):
  /// recorded as a failed check rather than a failed operation.
  void violate(const std::string& why) {
    ++violations;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// ---- inputs --------------------------------------------------------------
struct Inputs {
  FeatureStore<float> base;
  FeatureStore<float> queries;
  std::vector<VertexId> sample;  ///< graph-recall vertices
  std::vector<std::vector<VertexId>> sample_truth;
  std::vector<std::vector<VertexId>> query_truth;
  /// Serving inputs, one store per request so building them is not timed.
  std::vector<FeatureStore<float>> single_queries;
  std::vector<FeatureStore<float>> query_batches;
};

FeatureStore<float> rows_of(const FeatureStore<float>& src, std::size_t begin,
                            std::size_t end) {
  std::vector<float> values;
  values.reserve((end - begin) * kDim);
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = src.row(i);
    values.insert(values.end(), row.begin(), row.end());
  }
  return FeatureStore<float>(end - begin, kDim, std::move(values));
}

/// Generates the inputs and their brute-force truth on the calling thread:
/// set-up then never depends on where the kernel places fresh threads.
Inputs make_inputs(std::uint64_t seed) {
  const data::GaussianMixture mixture(
      bench::billion_standin_spec(kDim, kFamilySeed));
  Inputs in;
  in.base = mixture.sample(kPoints, util::mix64(seed * 2 + 1));
  in.queries = mixture.sample(kQueries, util::mix64(seed * 2 + 2));

  util::Xoshiro256 rng(util::mix64(seed * 2 + 3));
  std::set<VertexId> picked;
  while (picked.size() < kGraphSample) {
    picked.insert(static_cast<VertexId>(rng.uniform_below(kPoints)));
  }
  in.sample.assign(picked.begin(), picked.end());

  in.sample_truth.resize(kGraphSample);
  for (std::size_t i = 0; i < kGraphSample; ++i) {
    const VertexId v = in.sample[i];
    auto ids = baselines::brute_force_query(in.base, in.base.row(v), L2{},
                                            kK + 1);
    ids.erase(std::remove(ids.begin(), ids.end(), v), ids.end());
    ids.resize(std::min(ids.size(), kK));
    in.sample_truth[i] = std::move(ids);
  }
  in.query_truth.resize(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    in.query_truth[i] =
        baselines::brute_force_query(in.base, in.queries.row(i), L2{}, kK);
  }

  for (std::size_t i = 0; i < kQueries; ++i) {
    in.single_queries.push_back(rows_of(in.queries, i, i + 1));
  }
  // Each slice's throughput sweep: its first kServeQpsQueries queries.
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    for (std::size_t b = 0; b < kServeQpsQueries; b += kServeBatch) {
      const std::size_t first = slice * kSliceQueries + b;
      in.query_batches.push_back(
          rows_of(in.queries, first, first + kServeBatch));
    }
  }
  return in;
}

// ---- correctness checks --------------------------------------------------
/// Sorted, distinct, in-range ids whose distances equal a recomputed
/// L2Kernel distance bit for bit. Returns an empty string when valid.
std::string check_row(std::span<const Neighbor> row, std::span<const float> q,
                      const FeatureStore<float>& base,
                      std::optional<VertexId> self) {
  if (row.size() < kK) {
    return "row has " + std::to_string(row.size()) + " < k entries";
  }
  std::set<VertexId> seen;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const Neighbor& n = row[i];
    if (n.id >= base.size()) return "neighbor id out of range";
    if (self && n.id == *self) return "self loop";
    if (!seen.insert(n.id).second) return "duplicate neighbor";
    if (i > 0 && row[i - 1].distance > n.distance) return "row not sorted";
    const Dist d = L2{}(q, base[n.id]);
    if (std::bit_cast<std::uint32_t>(d) !=
        std::bit_cast<std::uint32_t>(n.distance)) {
      return "distance differs from recomputed L2Kernel distance";
    }
  }
  return {};
}

double recall_at_k(std::span<const Neighbor> row,
                   const std::vector<VertexId>& truth) {
  std::size_t hits = 0;
  const std::size_t take = std::min(row.size(), kK);
  for (std::size_t i = 0; i < take; ++i) {
    if (std::find(truth.begin(), truth.end(), row[i].id) != truth.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(kK);
}

struct GraphCheck {
  std::string error;  ///< empty = valid
  double recall = 0.0;
  std::uint64_t hash = 0;
};

GraphCheck check_graph(const KnnGraph& graph, const Inputs& in) {
  GraphCheck out;
  if (graph.num_vertices() != in.base.size()) {
    out.error = "graph vertex count differs from the point count";
    return out;
  }
  for (VertexId v = 0; v < graph.num_vertices() && out.error.empty(); ++v) {
    out.error = check_row(graph.neighbors(v), in.base[v], in.base, v);
    if (!out.error.empty()) out.error += " (vertex " + std::to_string(v) + ")";
  }
  double sum = 0;
  for (std::size_t i = 0; i < in.sample.size(); ++i) {
    sum += recall_at_k(graph.neighbors(in.sample[i]), in.sample_truth[i]);
  }
  out.recall = sum / static_cast<double>(in.sample.size());
  out.hash = graph_hash(graph);
  return out;
}

/// Validity of one query answer (recall is judged over the batch).
std::string check_answer(const SearchResult& r, std::span<const float> q,
                         const FeatureStore<float>& base) {
  if (r.degraded || r.coverage != 1.0) return "query coverage below 1";
  return check_row(r.neighbors, q, base, std::nullopt);
}

// ---- builds --------------------------------------------------------------
struct BuildShape {
  int ranks;
  comm::DriverKind driver;
  std::size_t threads_per_rank;
};

const char* driver_name(comm::DriverKind d) {
  return d == comm::DriverKind::kThreaded ? "threaded" : "sequential";
}

/// One distribute → build → optimize → gather pipeline and what the
/// library exports about it.
struct BuildRun {
  KnnGraph graph;
  double distribute_s = 0, build_s = 0, optimize_s = 0, gather_s = 0;
  double total_s = 0;
  core::DnndBuildStats stats;
  std::map<std::string, core::PhaseCost> phases;
  comm::MessageStats messages;
  telemetry::MetricsRegistry metrics;
  double rank_skew = 1.0;
  double mem_features = 0, mem_graph = 0;  ///< ledger peaks, all ranks
};

/// Slowest over fastest rank, summed over every barrier-delimited
/// superstep, from the per-rank "phase" spans the runner records.
double rank_skew_of(comm::Environment& env) {
  std::vector<std::vector<std::uint64_t>> durs(
      static_cast<std::size_t>(env.num_ranks()));
  for (int r = 0; r < env.num_ranks(); ++r) {
    for (const auto& e : env.telemetry(r).trace().events()) {
      if (e.ph == 'X' && e.category == "phase") {
        durs[static_cast<std::size_t>(r)].push_back(e.dur_us);
      }
    }
  }
  std::size_t steps = durs.front().size();
  for (const auto& d : durs) steps = std::min(steps, d.size());
  double slow = 0, fast = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    std::uint64_t hi = 0, lo = ~std::uint64_t{0};
    for (const auto& d : durs) {
      hi = std::max(hi, d[i]);
      lo = std::min(lo, d[i]);
    }
    slow += static_cast<double>(hi);
    fast += static_cast<double>(std::max<std::uint64_t>(lo, 1));
  }
  return fast > 0 ? slow / fast : 1.0;
}

// ---- reading exported metrics -------------------------------------------
double counter(const telemetry::MetricsRegistry& m, const char* name) {
  return m.contains(name) ? static_cast<double>(m.counter_value(name)) : 0.0;
}

double gauge_peak(const telemetry::MetricsRegistry& m, const char* name) {
  return m.contains(name) ? static_cast<double>(m.gauge_peak(name)) : 0.0;
}

double hist_p50(const telemetry::MetricsRegistry& m, const char* name) {
  return m.contains(name) ? m.histogram_of(name).percentile(0.5) : 0.0;
}

double hist_max(const telemetry::MetricsRegistry& m, const char* name) {
  return m.contains(name) && m.histogram_of(name).count() > 0
             ? static_cast<double>(m.histogram_of(name).max())
             : 0.0;
}

/// Memory-ledger peak of `name` summed over the ranks. The merged
/// registry keeps the largest rank's gauge, not the total.
double summed_peak(comm::Environment& env, const char* name) {
  env.sync_memory_gauges();
  double sum = 0;
  for (int r = 0; r < env.num_ranks(); ++r) {
    sum += gauge_peak(env.telemetry(r).metrics(), name);
  }
  return sum;
}

BuildRun run_build(const BuildShape& shape, const FeatureStore<float>& base,
                   std::uint64_t trace_period) {
  comm::Config cfg;
  cfg.num_ranks = shape.ranks;
  cfg.driver = shape.driver;
  cfg.trace_sample_period = trace_period;
  comm::Environment env(cfg);
  core::DnndConfig config;
  config.k = kK;
  config.threads_per_rank = shape.threads_per_rank;
  Runner runner(env, config, L2{});

  BuildRun out;
  util::Timer total;
  util::Timer t;
  runner.distribute(base);
  out.distribute_s = t.elapsed_s();
  t.reset();
  out.stats = runner.build();
  out.build_s = t.elapsed_s();
  t.reset();
  runner.optimize();
  out.optimize_s = t.elapsed_s();
  t.reset();
  out.graph = runner.gather();
  out.gather_s = t.elapsed_s();
  out.total_s = total.elapsed_s();

  out.phases = runner.phase_profile();
  out.messages = env.aggregate_stats();
  out.metrics = env.aggregate_metrics();
  out.rank_skew = rank_skew_of(env);
  out.mem_features = summed_peak(env, "mem.engine.features");
  out.mem_graph = summed_peak(env, "mem.engine.graph");
  return out;
}

// ---- queries -------------------------------------------------------------
SearchParams search_params() {
  SearchParams p;
  p.num_neighbors = kK;
  p.epsilon = kEpsilon;
  p.num_entry_points = kEntryPoints;
  p.seed = kSearchSeed;
  return p;
}

/// The serving side of a query round: a 4-rank replicated service over
/// a gathered graph, plus the counters read around its run() calls.
struct Serving {
  comm::Environment env;
  Service service;

  static comm::Config config(std::uint64_t trace_period) {
    comm::Config cfg;
    cfg.num_ranks = kServeRanks;
    cfg.driver = comm::DriverKind::kSequential;
    cfg.trace_sample_period = trace_period;
    return cfg;
  }
  static core::ServingConfig serving_config() {
    core::ServingConfig sc;
    sc.replication_factor = kReplication;
    return sc;
  }

  Serving(const KnnGraph& graph, const FeatureStore<float>& base,
          std::uint64_t trace_period)
      : env(config(trace_period)),
        service(env, graph, base, L2{}, serving_config(), /*threads=*/1) {}
};

/// Answers of the first observation of each query on one path; every
/// later observation must repeat it.
struct FirstAnswers {
  std::vector<SearchResult> answer = std::vector<SearchResult>(kQueries);
  std::vector<bool> have = std::vector<bool>(kQueries, false);
};

/// Everything the query rounds measured. A single-client slice runs
/// kSliceQueries queries, one in flight, on one pinned CPU. The reported
/// latency percentiles are over every observation of every slice of the
/// run; each slice's own p50 and p99 are kept for the detail line. Search
/// throughput is the median batch_search call over all queries; serving
/// throughput is every slice sweep's queries over their summed walls.
struct QueryTally {
  std::vector<double> search_us, serve_us;           ///< every observation
  std::vector<double> search_p50_us, search_p99_us;  ///< per slice
  std::vector<double> serve_p50_us, serve_p99_us;    ///< per slice
  std::vector<double> search_qps;  ///< per batch_search call
  std::vector<double> serve_sweep_s;  ///< per slice sweep
  std::uint64_t rounds = 0;
  std::uint64_t steps = 0;  ///< slice steps, for the CPU rotation
  double round_wall_s = 0;  ///< wall of the last round
  FirstAnswers search_first, serve_first, serve_batch_first;
  // Comm counters around the last round's serving calls.
  comm::MessageStats serve_messages_before, serve_messages_after;
  std::uint64_t serve_queries_last_round = 0;
};

/// The first fault of each query on each path, over every pass of the run.
/// Each query is one operation per path (search, serve) in `ok_frac`.
struct QueryFaults {
  std::vector<std::string> search = std::vector<std::string>(kQueries);
  std::vector<std::string> serve = std::vector<std::string>(kQueries);
};

std::uint64_t total_messages(const comm::MessageStats& s) {
  std::uint64_t n = 0;
  for (const auto& h : s.handlers()) n += h.total_messages();
  return n;
}

std::uint64_t total_bytes(const comm::MessageStats& s) {
  std::uint64_t n = 0;
  for (const auto& h : s.handlers()) n += h.total_bytes();
  return n;
}

/// Checks answers[i] for query begin + i: each must be valid and equal the
/// query's first answer on this path, which `first` keeps. Records each
/// query's first fault.
void check_answers(const std::vector<SearchResult>& answers,
                   std::size_t begin, FirstAnswers& first, const Inputs& in,
                   const char* what, std::vector<std::string>& faults) {
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const std::size_t query = begin + i;
    if (!faults[query].empty()) continue;
    std::string err = check_answer(answers[i], in.queries.row(query), in.base);
    if (err.empty() && first.have[query] &&
        answers[i].neighbors != first.answer[query].neighbors) {
      err = "answer differs from the first pass";
    }
    if (!err.empty()) faults[query] = std::string(what) + ": " + err;
    if (!first.have[query]) {
      first.answer[query] = answers[i];
      first.have[query] = true;
    }
  }
}

double mean_recall(const std::vector<SearchResult>& answers,
                   const Inputs& in) {
  double sum = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    sum += recall_at_k(answers[i].neighbors, in.query_truth[i]);
  }
  return sum / static_cast<double>(answers.size());
}

/// One closed-loop query round: batch_search throughput on all CPUs, then
/// kSlices slice steps. A step takes one slice of the queries through a
/// single-client search, a single-client serving pass, a second search
/// and a serving throughput sweep with kServeBatch queries in flight, each
/// on a fresh client thread pinned to one CPU. Step t runs its k-th pass on
/// CPU t + k (mod nproc), so every kind of pass rotates over the CPUs, and
/// every kind is spread over the whole round.
void query_round(const Searcher& searcher, Serving& serving,
                 const Inputs& in, const std::vector<int>& cpus,
                 QueryTally& q, QueryFaults& faults) {
  const auto threads = static_cast<unsigned>(cpus.size());
  const SearchParams params = search_params();
  auto params_of = [&](std::size_t query) {
    SearchParams p = params;
    p.seed = util::mix64(params.seed + query);  // batch_search's seed
    return p;
  };
  util::Timer round_timer;
  // (a) batch_search throughput, calls back to back: the first calls after
  // the caller idled sometimes ran all their fresh threads on one CPU.
  // Every answer must equal the single-thread answer (same per-query seed).
  (void)searcher.batch_search(in.queries, params, threads);  // warm-up
  for (int rep = 0; rep < kSearchQpsReps; ++rep) {
    util::Timer t;
    const auto batch = searcher.batch_search(in.queries, params, threads);
    q.search_qps.push_back(static_cast<double>(kQueries) / t.elapsed_s());
    check_answers(batch, 0, q.search_first, in, "batch_search",
                  faults.search);
  }

  std::vector<SearchResult> answers(kSliceQueries);
  std::vector<double> lat(kSliceQueries);
  auto add_slice = [&](std::vector<double>& all, std::vector<double>& p50,
                       std::vector<double>& p99) {
    all.insert(all.end(), lat.begin(), lat.end());
    p50.push_back(percentile(lat, 0.50));
    p99.push_back(percentile(lat, 0.99));
  };
  // (b) shared-memory search, one query in flight.
  auto search_slice = [&](std::size_t begin) {
    for (std::size_t i = 0; i < kSliceQueries; ++i) {
      const SearchParams p = params_of(begin + i);
      util::Timer t;
      answers[i] = searcher.search(in.queries.row(begin + i), p);
      lat[i] = t.elapsed_s() * 1e6;
    }
    add_slice(q.search_us, q.search_p50_us, q.search_p99_us);
    check_answers(answers, begin, q.search_first, in, "search",
                  faults.search);
  };
  // (c) distributed serving, one query in flight.
  auto serve_slice = [&](std::size_t begin) {
    for (std::size_t i = 0; i < kSliceQueries; ++i) {
      const SearchParams p = params_of(begin + i);
      util::Timer t;
      auto res = serving.service.run(in.single_queries[begin + i], p);
      lat[i] = t.elapsed_s() * 1e6;
      answers[i] = res.empty() ? SearchResult{} : std::move(res.front());
    }
    add_slice(q.serve_us, q.serve_p50_us, q.serve_p99_us);
    check_answers(answers, begin, q.serve_first, in, "serve", faults.serve);
  };
  // (d) serving throughput over the slice's first kServeQpsQueries
  // queries, kServeBatch in flight.
  auto sweep_slice = [&](std::size_t slice) {
    const std::size_t begin = slice * kSliceQueries;
    std::vector<SearchResult> swept;
    util::Timer sweep;
    for (std::size_t b = 0; b < kServeQpsQueries / kServeBatch; ++b) {
      const auto& batch =
          in.query_batches[slice * (kServeQpsQueries / kServeBatch) + b];
      auto res = serving.service.run(batch, params);
      if (res.size() != batch.size()) {
        faults.serve[begin + swept.size()] =
            "serve batch: " + std::to_string(res.size()) + " answers for " +
            std::to_string(batch.size()) + " queries";
        res.resize(batch.size());
      }
      for (auto& r : res) swept.push_back(std::move(r));
    }
    q.serve_sweep_s.push_back(sweep.elapsed_s());
    check_answers(swept, begin, q.serve_batch_first, in, "serve batch",
                  faults.serve);
  };

  q.serve_messages_before = serving.env.aggregate_stats();
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const std::size_t begin = slice * kSliceQueries;
    const std::uint64_t step = q.steps++;
    auto cpu = [&](std::uint64_t k) {
      return cpus[static_cast<std::size_t>((step + k) % cpus.size())];
    };
    on_cpu(cpu(0), [&] { search_slice(begin); });
    on_cpu(cpu(1), [&] { serve_slice(begin); });
    on_cpu(cpu(2), [&] { search_slice(begin); });
    on_cpu(cpu(3), [&] { sweep_slice(slice); });
  }
  q.serve_messages_after = serving.env.aggregate_stats();
  q.serve_queries_last_round = kQueries + kSlices * kServeQpsQueries;

  ++q.rounds;
  q.round_wall_s = round_timer.elapsed_s();
}

// ---- probes for the traced run -------------------------------------------
/// Standalone L2Kernel<float>::batch over the workload's rows: median
/// nanoseconds per distance evaluation.
double kernel_ns_per_eval(const FeatureStore<float>& base) {
  std::vector<const float*> rows(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) rows[i] = base.row(i).data();
  std::vector<Dist> out(base.size());
  const auto q = base.row(0);
  std::vector<double> ns;
  double sink = 0;
  for (int rep = 0; rep < 21; ++rep) {
    util::Timer t;
    L2{}.batch(q.data(), rows.data(), rows.size(), kDim, out.data());
    ns.push_back(t.elapsed_s() * 1e9 / static_cast<double>(rows.size()));
    sink += out[static_cast<std::size_t>(rep) % out.size()];
  }
  if (!std::isfinite(sink)) throw std::runtime_error("kernel probe: non-finite");
  ns.erase(ns.begin());  // warm-up
  return median(ns);
}

/// Weighted median message size over the handlers whose label passes
/// `pick` (per-handler mean size, weighted by message count).
double median_message_bytes(const comm::MessageStats& stats,
                            const std::function<bool(const std::string&)>& pick) {
  std::vector<std::pair<double, std::uint64_t>> sizes;
  std::uint64_t total = 0;
  for (const auto& h : stats.handlers()) {
    if (!pick(h.label) || h.total_messages() == 0) continue;
    sizes.emplace_back(static_cast<double>(h.total_bytes()) /
                           static_cast<double>(h.total_messages()),
                       h.total_messages());
    total += h.total_messages();
  }
  if (total == 0) return 0;
  std::sort(sizes.begin(), sizes.end());
  std::uint64_t acc = 0;
  for (const auto& [bytes, count] : sizes) {
    acc += count;
    if (2 * acc >= total) return bytes;
  }
  return sizes.back().first;
}

struct SendProbe {
  double self_ns = 0, remote_ns = 0;
  bool delivered = true;
};

/// Communicator::async + Environment::quiesce for a payload of `bytes`,
/// rank 0 → rank 0 (self-send) and rank 0 → rank 1 (remote) on a 2-rank
/// world under `driver`. No NN-Descent logic runs.
SendProbe send_probe(comm::DriverKind driver, std::size_t bytes) {
  comm::Config cfg;
  cfg.num_ranks = 2;
  cfg.driver = driver;
  comm::Environment env(cfg);
  std::array<std::uint64_t, 2> received{};  // each slot: one rank's thread
  std::array<std::vector<std::uint8_t>, 2> scratch;
  comm::HandlerId handler = 0;
  for (int r = 0; r < 2; ++r) {
    handler = env.comm(r).register_handler(
        "probe", [&received, &scratch, r](int, serial::InArchive& ar) {
          ar.read_into(scratch[static_cast<std::size_t>(r)]);
          ++received[static_cast<std::size_t>(r)];
        });
  }
  const std::vector<std::uint8_t> payload(bytes, 0x5a);
  constexpr std::uint64_t kMessages = 20000;
  auto measure = [&](int dest) {
    util::Timer t;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      env.comm(0).async(dest, handler, payload);
    }
    env.quiesce();
    return t.elapsed_s() * 1e9 / static_cast<double>(kMessages);
  };
  std::vector<double> self, remote;
  constexpr int kReps = 7;
  for (int rep = 0; rep < kReps; ++rep) {
    self.push_back(measure(0));
    remote.push_back(measure(1));
  }
  SendProbe out;
  out.delivered = received[0] == kReps * kMessages &&
                  received[1] == kReps * kMessages;
  self.erase(self.begin());  // warm-up
  remote.erase(remote.begin());
  out.self_ns = median(self);
  out.remote_ns = median(remote);
  return out;
}

// ---- output --------------------------------------------------------------
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::ostringstream os;
  util::json::write_string(os, s);
  return os.str();
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + quoted(name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

// ---- the run -------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--rev") {
      a.rev = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: dnnd_e2e --workload <build-1r|build-4r> --seed <n> "
        "--seconds <s> --trace <0|1> [--rev <revision>]");
  }
  return a;
}

BuildShape shape_of(const std::string& workload, unsigned cpus) {
  if (workload == "build-1r") return {1, comm::DriverKind::kSequential, cpus};
  if (workload == "build-4r") return {4, comm::DriverKind::kThreaded, 1};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

void print_provenance(const Args& args, const BuildShape& shape,
                      unsigned cpus) {
  const char* force = std::getenv("DNND_FORCE_SCALAR");
  const data::MixtureSpec spec = bench::billion_standin_spec(kDim, kFamilySeed);
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"rev\": %s, \"nproc\": %u, \"build_type\": %s, "
      "\"telemetry\": %s, \"kernel_dispatch\": %s, \"DNND_FORCE_SCALAR\": %s, "
      "\"driver\": %s, \"ranks\": %d, \"threads_per_rank\": %zu, "
      "\"points\": %zu, \"dim\": %zu, \"k\": %zu, \"queries\": %zu, "
      "\"serve_ranks\": %d, \"replication_factor\": %d, "
      "\"serve_in_flight\": %zu, \"serve_qps_queries\": %zu, "
      "\"epsilon\": %s, \"entry_points\": %zu, "
      "\"mixture\": {\"family_seed\": %llu, \"clusters\": %zu, "
      "\"center_range\": %s, \"cluster_std\": %s}}}\n",
      quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
      args.trace ? 1 : 0, quoted(args.rev).c_str(), cpus,
      quoted(DNND_E2E_BUILD_TYPE).c_str(),
      DNND_E2E_TELEMETRY ? "\"on\"" : "\"off\"",
      core::detail::simd_active() ? "\"avx2\"" : "\"scalar\"",
      quoted(force != nullptr ? force : "unset").c_str(),
      quoted(driver_name(shape.driver)).c_str(), shape.ranks,
      shape.threads_per_rank, kPoints, kDim, kK, kQueries, kServeRanks,
      kReplication, kServeBatch, kServeQpsQueries, number(kEpsilon).c_str(),
      kEntryPoints,
      static_cast<unsigned long long>(spec.seed), spec.num_clusters,
      number(spec.center_range).c_str(), number(spec.cluster_std).c_str());
}

/// The comm.* layer metrics of one environment's traffic: message counts
/// over [before, after), and the traced-handler / barrier / inbox
/// figures of its merged registry.
void add_comm_layers(Metrics& m, const comm::MessageStats& before,
                     const comm::MessageStats& after,
                     const telemetry::MetricsRegistry& metrics) {
  double local = 0, remote = 0, remote_bytes = 0;
  for (std::size_t i = 0; i < after.handlers().size(); ++i) {
    const auto& h = after.handlers()[i];
    const bool had = i < before.handlers().size();
    local += static_cast<double>(
        h.local_messages - (had ? before.handlers()[i].local_messages : 0));
    remote += static_cast<double>(
        h.remote_messages - (had ? before.handlers()[i].remote_messages : 0));
    remote_bytes += static_cast<double>(
        h.remote_bytes - (had ? before.handlers()[i].remote_bytes : 0));
  }
  m["comm.local_messages"] = {local, "count"};
  m["comm.remote_messages"] = {remote, "count"};
  m["comm.remote_bytes"] = {remote_bytes, "bytes"};
  m["comm.barrier_wait_us.p50"] = {hist_p50(metrics, "comm.barrier_wait_us"),
                                   "us"};
  m["comm.barrier_wait_us.max"] = {hist_max(metrics, "comm.barrier_wait_us"),
                                   "us"};
  m["comm.queue_latency_us.p50"] = {hist_p50(metrics, "comm.queue_latency_us"),
                                    "us"};
  m["comm.handler_time_us.p50"] = {hist_p50(metrics, "comm.handler_time_us"),
                                   "us"};
  m["comm.inbox_depth.peak"] = {gauge_peak(metrics, "comm.inbox_depth"),
                                "count"};
  m["comm.retransmits"] = {counter(metrics, "comm.retransmits"), "count"};
}

/// Adds the runner / engine / pool / memory metrics of one traced build.
void add_build_layers(Metrics& m, const BuildRun& b) {
  auto phase_s = [&](const char* label) {
    const auto it = b.phases.find(label);
    return it == b.phases.end() ? 0.0 : it->second.wall_seconds;
  };
  m["runner.distribute_s"] = {b.distribute_s, "s"};
  m["runner.build_s"] = {b.build_s, "s"};
  m["runner.optimize_s"] = {b.optimize_s, "s"};
  m["runner.gather_s"] = {b.gather_s, "s"};
  double in_build = 0;
  for (const char* label : {"init", "sample", "merge", "checks", "allreduce"}) {
    m[std::string("runner.phase.") + label + "_s"] = {phase_s(label), "s"};
    in_build += phase_s(label);
  }
  m["runner.phase.optimize_s"] = {phase_s("optimize"), "s"};
  m["runner.phase_share"] = {in_build / b.build_s, "ratio"};
  std::size_t barriers = 0;
  for (const auto& [label, cost] : b.phases) barriers += cost.barriers;
  m["runner.iterations"] = {static_cast<double>(b.stats.iterations), "count"};
  m["runner.barriers"] = {static_cast<double>(barriers), "count"};
  m["runner.rank_skew"] = {b.rank_skew, "ratio"};

  const double evals = counter(b.metrics, "engine.distance_evals");
  const double tasks = counter(b.metrics, "engine.tasks");
  m["engine.distance_evals"] = {evals, "count"};
  m["engine.updates"] = {counter(b.metrics, "engine.updates"), "count"};
  m["engine.evals_per_s"] = {evals / std::max(phase_s("checks"), 1e-9), "1/s"};
  m["pool.evals_per_task"] = {tasks > 0 ? evals / tasks : 0.0, "ratio"};

  m["mem.engine.features"] = {b.mem_features, "bytes"};
  m["mem.engine.graph"] = {b.mem_graph, "bytes"};
  m["mem.bytes_per_point"] = {(b.mem_features + b.mem_graph) / kPoints,
                              "bytes"};
}

/// What the traced serving environment exported after its rounds.
struct ServeSnapshot {
  telemetry::MetricsRegistry metrics;
  double replica_features = 0, replica_rows = 0;  ///< ledger peaks, all ranks
};

/// Adds the search / serve / replica-memory metrics of the query rounds.
void add_query_layers(Metrics& m, const QueryTally& q,
                      const ServeSnapshot& snap) {
  const telemetry::MetricsRegistry& metrics = snap.metrics;
  double evals = 0, visited = 0;
  for (const SearchResult& r : q.search_first.answer) {
    evals += static_cast<double>(r.distance_evals);
    visited += static_cast<double>(r.visited);
  }
  m["search.evals_per_query"] = {evals / kQueries, "count"};
  m["search.visited_per_query"] = {visited / kQueries, "count"};
  // The registry accumulates over every round; the message deltas cover
  // the last round only.
  const double served =
      static_cast<double>(q.rounds * q.serve_queries_last_round);
  const double last = static_cast<double>(q.serve_queries_last_round);
  const double msgs =
      static_cast<double>(total_messages(q.serve_messages_after) -
                          total_messages(q.serve_messages_before));
  const double bytes = static_cast<double>(
      total_bytes(q.serve_messages_after) - total_bytes(q.serve_messages_before));
  std::uint64_t requests = 0;
  for (const auto& h : q.serve_messages_after.handlers()) {
    if (h.label == "qs_seed_req" || h.label == "qs_row_req" ||
        h.label == "qs_eval_batch") {
      requests += h.total_messages();
    }
  }
  const double hedges = counter(metrics, "query.hedge.sent");
  const double reissues = counter(metrics, "query.failover.reissues");
  m["serve.messages_per_query"] = {msgs / last, "count"};
  m["serve.bytes_per_query"] = {bytes / last, "bytes"};
  m["serve.frontier_pops_per_query"] = {
      counter(metrics, "query.frontier_pops") / served, "count"};
  m["serve.evals_per_query"] = {counter(metrics, "query.distance_evals") / served,
                                "count"};
  m["serve.hedges_per_query"] = {hedges / served, "count"};
  m["serve.reissues"] = {reissues, "count"};
  m["serve.useful_reply_share"] = {
      requests > 0 ? 1.0 - (hedges + reissues) / static_cast<double>(requests)
                   : 1.0,
      "ratio"};
  m["mem.replica.features"] = {snap.replica_features, "bytes"};
  m["mem.replica.rows"] = {snap.replica_rows, "bytes"};
}

bool is_check_handler(const std::string& label) {
  return label == "type1" || label == "type2plus" || label == "type3";
}

/// p50, p90 and p99 of the distance evaluations per answer: the query
/// difficulty behind the latency percentiles, free of host noise.
std::vector<double> eval_percentiles(const std::vector<SearchResult>& answers) {
  std::vector<double> evals;
  for (const auto& r : answers) {
    evals.push_back(static_cast<double>(r.distance_evals));
  }
  return {percentile(evals, 0.50), percentile(evals, 0.90),
          percentile(evals, 0.99)};
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + number(values[i]);
  }
  return out + "]";
}

int run(const Args& args) {
  std::vector<int> cpu_list = usable_cpus();
  if (cpu_list.empty()) throw std::runtime_error("no usable CPU");
  const auto cpus = static_cast<unsigned>(cpu_list.size());
  const BuildShape shape = shape_of(args.workload, cpus);
  print_provenance(args, shape, cpus);
  std::fflush(stdout);

  Tally tally;
  std::ostringstream detail;  // facts printed before the result line

  // ---- set-up, repeated; the last repetition's state is used --------------
  std::vector<double> setup_s, build_walls, recalls;
  std::set<std::uint64_t> build_hashes;
  std::optional<Inputs> inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inputs.reset();
    util::Timer t;
    inputs.emplace(make_inputs(args.seed));
    setup_s.push_back(t.elapsed_s());
  }
  const Inputs& in = *inputs;

  // ---- builds ----------------------------------------------------------------
  std::optional<KnnGraph> graph;
  std::vector<BuildRun> traced_builds;
  std::vector<double> traced_walls;
  auto checked_build = [&](std::uint64_t period) -> std::optional<BuildRun> {
    try {
      BuildRun b = run_build(shape, in.base, period);
      const GraphCheck gc = check_graph(b.graph, in);
      if (gc.error.empty()) {
        tally.ok();
      } else {
        tally.fail("build: " + gc.error);
      }
      recalls.push_back(gc.recall);
      // Traced builds carry trace bytes on the wire; the bit-identity
      // contract is stated for untraced builds.
      if (period == 0) build_hashes.insert(gc.hash);
      return b;
    } catch (const std::exception& e) {
      tally.fail(std::string("build threw: ") + e.what());
      return std::nullopt;
    }
  };

  // One untraced build, plus a traced one in the traced run: the pair
  // gives the tracing overhead under the same host conditions. The first
  // untraced graph is the one the query rounds run on.
  double measured = 0;
  auto build_step = [&] {
    for (const std::uint64_t period : {std::uint64_t{0}, kTracePeriod}) {
      if (period != 0 && !args.trace) break;
      auto b = checked_build(period);
      if (!b) continue;
      measured += b->total_s;
      if (period != 0) {
        traced_walls.push_back(b->total_s);
        traced_builds.push_back(std::move(*b));
      } else {
        build_walls.push_back(b->total_s);
        if (!graph) graph = std::move(b->graph);
      }
    }
  };
  // The query rounds run on the sequential-driver graph of the points, so
  // their work repeats exactly for a seed on both workloads. On build-1r
  // that is the first timed build; build-4r's threaded builds differ from
  // build to build, so it builds that graph untimed first.
  if (shape.driver != comm::DriverKind::kSequential) {
    try {
      BuildRun index = run_build(shape_of("build-1r", cpus), in.base, 0);
      const GraphCheck gc = check_graph(index.graph, in);
      if (gc.error.empty()) {
        tally.ok();
      } else {
        tally.fail("query index: " + gc.error);
      }
      graph = std::move(index.graph);
    } catch (const std::exception& e) {
      tally.fail(std::string("query index build threw: ") + e.what());
    }
  }
  build_step();

  // ---- the window --------------------------------------------------------------
  // Builds and query rounds alternate, so both sample the whole window.
  QueryTally q, q_traced;
  QueryFaults faults;
  std::optional<ServeSnapshot> serve_snap;
  try {
    if (!graph) throw std::runtime_error("no build completed");
    const Searcher searcher(*graph, in.base, L2{});
    Serving serving(*graph, in.base, 0);
    std::optional<Serving> traced;
    if (args.trace) traced.emplace(*graph, in.base, kTracePeriod);
    auto more = [&] {
      return measured < args.seconds || q.rounds < kMinRounds ||
             build_walls.size() < kMinBuilds;
    };
    while (more()) {
      if (q.rounds > 0) build_step();
      query_round(searcher, serving, in, cpu_list, q, faults);
      measured += q.round_wall_s;
      // One traced round gives the per-query layer counts.
      if (traced && q_traced.rounds == 0) {
        query_round(searcher, *traced, in, cpu_list, q_traced, faults);
        measured += q_traced.round_wall_s;
      }
    }
    if (traced) {
      serve_snap = ServeSnapshot{
          traced->env.aggregate_metrics(),
          summed_peak(traced->env, "mem.replica.features"),
          summed_peak(traced->env, "mem.replica.rows")};
    }
  } catch (const std::exception& e) {
    tally.fail(std::string("query rounds: ") + e.what());
  }
  if (q.rounds > 0) {
    for (const auto* path : {&faults.search, &faults.serve}) {
      for (const std::string& fault : *path) {
        if (fault.empty()) {
          tally.ok();
        } else {
          tally.fail(fault);
        }
      }
    }
  }
  if (shape.driver == comm::DriverKind::kSequential &&
      build_hashes.size() > 1) {
    tally.violate("sequential-driver graph differs across builds");
  }
  detail << "\"builds_timed\": " << build_walls.size()
         << ", \"build_walls_s\": " << json_list(build_walls)
         << ", \"distinct_graph_hashes\": " << build_hashes.size();

  const double graph_recall = median(recalls);
  if (!(graph_recall >= kGraphRecallFloor)) {
    tally.violate("graph_recall10 " + number(graph_recall) + " below floor");
  }
  const double search_recall = mean_recall(q.search_first.answer, in);
  const double serve_recall = mean_recall(q.serve_first.answer, in);
  if (!(search_recall >= kSearchRecallFloor)) {
    tally.violate("search_recall10 " + number(search_recall) +
                  " below floor");
  }
  if (!(serve_recall >= kServeRecallFloor)) {
    tally.violate("serve_recall10 " + number(serve_recall) + " below floor");
  }
  // The reported percentiles are over every observation of the run: the
  // latency samples. The per-slice lists hold each slice's own
  // percentiles over its kSliceQueries queries.
  detail << ", \"query_rounds\": " << q.rounds
         << ", \"search_latency_samples\": " << q.search_us.size()
         << ", \"serve_latency_samples\": " << q.serve_us.size()
         << ", \"slice_queries\": " << kSliceQueries
         << ", \"search_slice_p50_us\": " << json_list(q.search_p50_us)
         << ", \"search_slice_p99_us\": " << json_list(q.search_p99_us)
         << ", \"serve_slice_p50_us\": " << json_list(q.serve_p50_us)
         << ", \"serve_slice_p99_us\": " << json_list(q.serve_p99_us)
         << ", \"search_qps\": " << json_list(q.search_qps)
         << ", \"serve_sweep_s\": " << json_list(q.serve_sweep_s)
         << ", \"setup_s\": " << json_list(setup_s)
         << ", \"search_evals_p50_p90_p99\": "
         << json_list(eval_percentiles(q.search_first.answer))
         << ", \"serve_evals_p50_p90_p99\": "
         << json_list(eval_percentiles(q.serve_first.answer));

  Metrics m;
  if (!args.trace) {
    m["setup_s"] = {median(setup_s), "s"};
    m["build_s"] = {median(build_walls), "s"};
    m["graph_recall10"] = {graph_recall, "ratio"};
    m["search_qps"] = {median(q.search_qps), "1/s"};
    m["search_p50_us"] = {percentile(q.search_us, 0.50), "us"};
    m["search_p99_us"] = {percentile(q.search_us, 0.99), "us"};
    m["search_recall10"] = {search_recall, "ratio"};
    double swept_s = 0;
    for (const double sw : q.serve_sweep_s) swept_s += sw;
    m["serve_qps"] = {static_cast<double>(q.serve_sweep_s.size() *
                                          kServeQpsQueries) /
                          swept_s,
                      "1/s"};
    m["serve_p50_us"] = {percentile(q.serve_us, 0.50), "us"};
    m["serve_p99_us"] = {percentile(q.serve_us, 0.99), "us"};
    m["serve_recall10"] = {serve_recall, "ratio"};
    m["peak_rss_mb"] = {
        static_cast<double>(telemetry::read_process_memory().peak_rss_bytes) /
            (1024.0 * 1024.0),
        "MB"};
    m["ok_frac"] = {1.0 - static_cast<double>(tally.failed) /
                              static_cast<double>(
                                  std::max<std::uint64_t>(1, tally.attempted)),
                    "ratio"};
  } else {
    // ---- traced run: per-layer metrics ------------------------------------
    const double ns_per_eval = kernel_ns_per_eval(in.base);
    m["kernel.ns_per_eval"] = {ns_per_eval, "ns"};
    if (traced_builds.empty() || !serve_snap) {
      tally.violate("traced work did not complete");
    } else {
      std::vector<double> walls;
      for (const auto& b : traced_builds) walls.push_back(b.build_s);
      const BuildRun& b = traced_builds[median_index(walls)];
      add_build_layers(m, b);
      add_query_layers(m, q_traced, *serve_snap);
      if (m["runner.phase_share"].value < kAttributionFloor) {
        tally.violate("runner.phase.* cover only " +
                      number(m["runner.phase_share"].value) +
                      " of runner.build_s");
      }
      // comm.* and kernel.* describe the builds.
      add_comm_layers(m, comm::MessageStats{}, b.messages, b.metrics);
      const double probe_bytes =
          median_message_bytes(b.messages, is_check_handler);
      const double evals = m["engine.distance_evals"].value;
      m["kernel.computed_bytes"] = {evals * kDim * sizeof(float), "bytes"};
      m["kernel.share"] = {evals * ns_per_eval * 1e-9 / b.build_s, "ratio"};
      const SendProbe probe =
          send_probe(shape.driver, static_cast<std::size_t>(probe_bytes));
      if (!probe.delivered) tally.violate("send probe lost messages");
      m["comm.self_send_ns"] = {probe.self_ns, "ns"};
      m["comm.remote_send_ns"] = {probe.remote_ns, "ns"};
      m["comm.probe_payload_bytes"] = {probe_bytes, "bytes"};

      // Tracing overhead: traced over untraced timed wall, same window.
      m["trace.overhead"] = {median(traced_walls) / median(build_walls),
                             "ratio"};

      // Plain serial NN-Descent on the same points: the baseline.
      core::NnDescentConfig nc;
      nc.k = kK;
      nc.threads = 1;
      util::Timer t;
      core::NnDescent<float, L2> serial(in.base, L2{}, nc);
      const KnnGraph ref = serial.build();
      const double serial_s = t.elapsed_s();
      double ref_recall = 0;
      for (std::size_t i = 0; i < in.sample.size(); ++i) {
        ref_recall +=
            recall_at_k(ref.neighbors(in.sample[i]), in.sample_truth[i]);
      }
      m["ref.serial_nnd_s"] = {serial_s, "s"};
      m["ref.dnnd_over_serial"] = {median(build_walls) / serial_s, "ratio"};
      m["ref.serial_recall10"] = {
          ref_recall / static_cast<double>(in.sample.size()), "ratio"};
    }
  }
  for (const auto& [name, metric] : m) {
    if (!std::isfinite(metric.value)) tally.violate(name + " is not finite");
  }

  std::printf("{\"detail\": {%s, \"errors\": [", detail.str().c_str());
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", quoted(tally.errors[i]).c_str());
  }
  std::printf("]}}\n");
  const bool correct = tally.failed == 0 && tally.violations == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(
          std::max<std::uint64_t>(1, tally.attempted)),
      static_cast<unsigned long long>(tally.failed), metrics_json(m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dnnd_e2e: %s\n", e.what());
    return 2;
  }
}
