// Serial NN-Descent: faithful single-process implementation of Algorithm 1.
//
// This is the reference the distributed engine is validated against: both
// must converge to graphs of equivalent recall, and the serial version is
// also the shared-memory baseline for the scaling study (1-rank point).
//
// Parameters follow the paper: K (neighbors), ρ (sample rate, default
// 0.8), δ (termination threshold, default 0.001) — the loop terminates
// when the number of successful neighbor-list updates in an iteration
// drops below δ·K·N.
//
// One loop serves every DistanceFn. The split, the reversed-list scatter
// and the sampling are plain vertex-order loops (they own the rng
// stream). In the neighbor checks, each u1's candidates are filtered
// against the lists as they stood before u1, evaluated in one
// row_distances() call (a single kernel batch when the functor has a
// `batch` member) and applied in pair order: u1's list, then the
// candidate's. Only the initial evaluations run on the intra-rank pool
// (config.threads), in fixed vertex blocks that each write their own
// lists, so the graph and every counter, stats.tasks included, are the
// same for any thread count. A center's few dozen evaluations are too
// little work to split across threads: dispatch and join cost more.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

struct NnDescentConfig {
  std::size_t k = 10;
  double rho = 0.8;       ///< sample rate ρ
  double delta = 0.001;   ///< termination threshold δ
  std::size_t max_iterations = 64;  ///< safety bound beyond Algorithm 1
  std::uint64_t seed = 7;
  /// Intra-build worker threads; 0 = auto (DNND_THREADS_PER_RANK, else 1).
  std::size_t threads = 0;
};

struct NnDescentStats {
  std::size_t iterations = 0;
  std::uint64_t distance_evals = 0;
  std::uint64_t updates = 0;
  std::vector<std::uint64_t> updates_per_iteration;
  /// Pool tasks dispatched (the initial evaluation blocks). A pure
  /// function of the point count, asserted equal across thread counts by
  /// the parity tests.
  std::uint64_t tasks = 0;
};

/// DistanceFn: Dist(std::span<const T>, std::span<const T>), optionally
/// with a `batch` member (see row_distances). The initial evaluations
/// call it from several pool threads at once, so its const calls must be
/// safe to run concurrently.
template <typename T, typename DistanceFn>
class NnDescent {
 public:
  NnDescent(const FeatureStore<T>& points, DistanceFn distance,
            NnDescentConfig config)
      : points_(&points),
        distance_(std::move(distance)),
        config_(config),
        pool_(resolve_threads(config.threads)) {}

  /// Runs Algorithm 1 to convergence and returns the K-NNG.
  KnnGraph build() {
    const std::size_t n = points_->size();
    util::Xoshiro256 rng(config_.seed);
    lists_.assign(n, NeighborList(config_.k));

    initialize(rng);

    const auto threshold = static_cast<std::uint64_t>(
        config_.delta * static_cast<double>(config_.k) *
        static_cast<double>(n));
    for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
      ++stats_.iterations;
      const std::uint64_t c = iterate(rng);
      stats_.updates_per_iteration.push_back(c);
      stats_.updates += c;
      if (c < threshold || c == 0) break;
    }
    return export_graph();
  }

  [[nodiscard]] const NnDescentStats& stats() const noexcept { return stats_; }

 private:
  /// Vertices per pool task in the initial evaluations.
  static constexpr std::size_t kVertexGrain = 256;

  /// Lines 2–5: K random neighbors per vertex.
  void initialize(util::Xoshiro256& rng) {
    const std::size_t n = points_->size();
    // Draw every vertex's partner ids first (sequential: owns the rng
    // stream). The draws do not depend on the distances because warm-up
    // updates always insert: the list is never full here.
    std::vector<std::vector<VertexId>> drawn(n);
    for (std::size_t vi = 0; vi < n; ++vi) {
      const auto v = static_cast<VertexId>(vi);
      auto& mine = drawn[vi];
      while (mine.size() < config_.k && mine.size() + 1 < n) {
        const auto u = static_cast<VertexId>(rng.uniform_below(n));
        if (u == v || std::find(mine.begin(), mine.end(), u) != mine.end()) {
          continue;
        }
        mine.push_back(u);
      }
      stats_.distance_evals += mine.size();
    }
    // Evaluate and insert in vertex blocks on the pool; a block writes
    // only its own vertices' lists.
    stats_.tasks += ThreadPool::block_count(n, kVertexGrain);
    pool_.for_blocks(n, kVertexGrain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       RowDistanceScratch<T> scratch;
                       for (std::size_t vi = begin; vi < end; ++vi) {
                         const auto& mine = drawn[vi];
                         const auto dists = row_distances(
                             *points_, distance_,
                             (*points_)[static_cast<VertexId>(vi)], mine,
                             scratch);
                         for (std::size_t j = 0; j < mine.size(); ++j) {
                           lists_[vi].update(mine[j], dists[j], true);
                         }
                       }
                     });
  }

  /// One round of lines 7–23. Returns the update counter c.
  std::uint64_t iterate(util::Xoshiro256& rng) {
    const std::size_t n = points_->size();
    const auto sample_k = static_cast<std::size_t>(
        config_.rho * static_cast<double>(config_.k));

    // Lines 8–10: split each list into old / sampled-new; flip flags.
    std::vector<std::vector<VertexId>> old_ids(n), new_ids(n);
    std::vector<std::size_t> fresh;
    for (std::size_t vi = 0; vi < n; ++vi) {
      auto entries = lists_[vi].entries();
      fresh.clear();
      for (std::size_t e = 0; e < entries.size(); ++e) {
        if (entries[e].is_new) {
          fresh.push_back(e);
        } else {
          old_ids[vi].push_back(entries[e].id);
        }
      }
      util::shuffle(fresh.begin(), fresh.end(), rng);
      const std::size_t take = std::min(sample_k, fresh.size());
      for (std::size_t s = 0; s < take; ++s) {
        entries[fresh[s]].is_new = false;  // line 10
        new_ids[vi].push_back(entries[fresh[s]].id);
      }
    }

    // Lines 11–12: reversed matrices.
    std::vector<std::vector<VertexId>> rev_old(n), rev_new(n);
    for (std::size_t vi = 0; vi < n; ++vi) {
      const auto v = static_cast<VertexId>(vi);
      for (const VertexId u : old_ids[vi]) rev_old[u].push_back(v);
      for (const VertexId u : new_ids[vi]) rev_new[u].push_back(v);
    }

    // Lines 14–16: merge a ρK-sample of the reversed lists.
    for (std::size_t vi = 0; vi < n; ++vi) {
      merge_sample(old_ids[vi], rev_old[vi], sample_k, rng);
      merge_sample(new_ids[vi], rev_new[vi], sample_k, rng);
    }

    // Lines 17–22: neighbor checks, one evaluation call per u1.
    std::uint64_t c = 0;
    std::vector<VertexId> cand;
    RowDistanceScratch<T> scratch;
    for (std::size_t vi = 0; vi < n; ++vi) {
      const auto& nu = new_ids[vi];
      const auto& ol = old_ids[vi];
      for (std::size_t i = 0; i < nu.size(); ++i) {
        const VertexId u1 = nu[i];
        // Skip a pair when neither side could accept it: the serial
        // analogue of the §4.3.2/§4.3.3 savings. It saves work only,
        // since update() ignores ids a list already holds.
        auto offer = [&](VertexId u2) {
          if (u1 == u2) return;
          if (lists_[u1].contains(u2) && lists_[u2].contains(u1)) return;
          cand.push_back(u2);
        };
        cand.clear();
        for (std::size_t j = i + 1; j < nu.size(); ++j) offer(nu[j]);
        for (const VertexId u2 : ol) offer(u2);
        if (cand.empty()) continue;
        stats_.distance_evals += cand.size();
        const auto dists =
            row_distances(*points_, distance_, (*points_)[u1], cand, scratch);
        for (std::size_t m = 0; m < cand.size(); ++m) {
          c += static_cast<std::uint64_t>(
              lists_[u1].update(cand[m], dists[m], true));
          c += static_cast<std::uint64_t>(
              lists_[cand[m]].update(u1, dists[m], true));
        }
      }
    }
    return c;
  }

  static void merge_sample(std::vector<VertexId>& dst,
                           std::vector<VertexId>& reversed,
                           std::size_t sample_k, util::Xoshiro256& rng) {
    util::shuffle(reversed.begin(), reversed.end(), rng);
    const std::size_t take = std::min(sample_k, reversed.size());
    for (std::size_t i = 0; i < take; ++i) {
      const VertexId u = reversed[i];
      if (std::find(dst.begin(), dst.end(), u) == dst.end()) {
        dst.push_back(u);
      }
    }
  }

  KnnGraph export_graph() const {
    KnnGraph graph(lists_.size());
    for (std::size_t vi = 0; vi < lists_.size(); ++vi) {
      graph.set_neighbors(static_cast<VertexId>(vi), lists_[vi].sorted());
    }
    return graph;
  }

  const FeatureStore<T>* points_;
  DistanceFn distance_;
  NnDescentConfig config_;
  ThreadPool pool_;
  std::vector<NeighborList> lists_;
  NnDescentStats stats_;
};

/// Deduction-friendly helper.
template <typename T, typename DistanceFn>
KnnGraph build_nn_descent(const FeatureStore<T>& points, DistanceFn distance,
                          const NnDescentConfig& config,
                          NnDescentStats* stats_out = nullptr) {
  NnDescent<T, DistanceFn> builder(points, std::move(distance), config);
  KnnGraph graph = builder.build();
  if (stats_out != nullptr) *stats_out = builder.stats();
  return graph;
}

}  // namespace dnnd::core
