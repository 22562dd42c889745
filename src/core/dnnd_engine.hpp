// DNND engine: the per-rank half of distributed NN-Descent (paper §4).
//
// One engine instance lives on each simulated rank and owns that rank's
// shard of the dataset and of the k-NN graph (points and their neighbor
// lists are co-located by hashing the vertex id, §4). All cross-rank work
// happens through fire-and-forget handlers registered with the
// communicator; the DnndRunner sequences the phases and the barriers.
//
// Message protocol (labels appear in MessageStats and feed Figure 4):
//
//   init_req / init_rep   k-NNG random initialization (§4.1's example:
//                         v ships its feature to owner(u), which computes
//                         θ(v,u) and replies with the distance)
//   rev_sample            reversed old/new matrix entries (§4.2)
//   type1                 neighbor-check request: center v tells owner(u1)
//                         to check the pair (u1, u2)          [optimized]
//   type2plus             u1's feature + farthest-neighbor bound → u2
//                         (§4.3.1 one-sided + §4.3.3 bound)   [optimized]
//   type3                 computed distance returned u2 → u1   [optimized]
//   type1_unopt           check request sent to *both* endpoints
//   type2_unopt           full feature exchange, both directions
//   rev_edge              §4.5 reverse-edge merge for graph optimization
//   ingest / init_sample  distributed loading; dynamic-insert seeding
//
// A message never carries a feature to the rank that stores it. init_req,
// type2plus, type2_unopt and init_sample append the sender's feature only
// when the destination is another rank (Figure 4 counts only those). A
// local one carries just its ids and scalars, and the handler reads the row
// from this rank's shard (async_with_row / row_from). Handler order,
// message counts, delivery order and the graph are the same either way;
// only those labels' local bytes differ. ingest always carries its feature,
// because the point is not stored anywhere yet.
//
// Correctness note on §4.3.3 pruning: the bound piggybacked on a Type-2+
// message is u1's farthest-neighbor distance at send time. Farthest
// distances only decrease, so a reply suppressed because d >= bound could
// never have been accepted by u1 later — pruning is lossless. A property
// test asserts this by comparing optimized and unoptimized runs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/distance_kernels.hpp"
#include "core/dnnd_config.hpp"
#include "core/feature_store.hpp"
#include "core/knn_graph.hpp"
#include "core/neighbor_list.hpp"
#include "core/partition.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

/// DistanceFn: Dist(std::span<const T>, std::span<const T>).
template <typename T, typename DistanceFn>
class DnndEngine {
 public:
  DnndEngine(comm::Communicator& comm, DnndConfig config, DistanceFn distance,
             Partition partition)
      : comm_(&comm),
        config_(config),
        distance_(std::move(distance)),
        partition_(std::move(partition)),
        rng_(util::Xoshiro256(config.seed).fork(
            static_cast<std::uint64_t>(comm.rank()))),
        pool_(resolve_threads(config.threads_per_rank)) {
    c_distance_evals_ = comm_->telemetry().counter("engine.distance_evals");
    c_updates_ = comm_->telemetry().counter("engine.updates");
    // Pool tasks dispatched by this rank's staged phases. The task
    // decomposition is a pure function of the work shape (size + grain),
    // so the count is bit-identical across thread counts; each task
    // increments from its executing thread (the relaxed-atomic counter
    // hot path). Excluded from the metrics-regression diff as a
    // schedule-shape counter — the parity tests assert it directly.
    c_tasks_ = comm_->telemetry().counter("engine.tasks",
                                          telemetry::MetricUnit::kSchedule);
    pool_.set_telemetry(&comm_->telemetry(), c_tasks_);
    // Memory-ledger tags for the two big per-rank owners: the feature
    // shard (CSR payload + id index) and the k-NN graph rows (the lists_
    // map nodes plus every row's bounded heap). Both stores are empty
    // here, so retagging is free.
    t_features_ = comm_->telemetry().mem_tag("mem.engine.features");
    t_graph_ = comm_->telemetry().mem_tag("mem.engine.graph");
    points_.set_mem_tag(t_features_);
    lists_ = ListMap(ListMapAlloc(t_graph_));
    register_handlers();
  }

  DnndEngine(const DnndEngine&) = delete;
  DnndEngine& operator=(const DnndEngine&) = delete;

  [[nodiscard]] int rank() const noexcept { return comm_->rank(); }

  // ---- setup ------------------------------------------------------------

  /// Adds a point this rank owns. Pre: owner_rank(id, size) == rank().
  void add_local_point(VertexId id, std::span<const T> feature) {
    assert(partition_.owner(id) == comm_->rank());
    points_.add(id, feature);
  }

  /// Global dataset size; must be set on every rank before begin_init().
  /// Vertex ids are assumed dense in [0, n).
  void set_global_count(std::uint64_t n) { global_n_ = n; }

  /// Distributed ingestion: routes a point read by *this* rank to its
  /// owner (possibly itself) through the transport — the all-to-all
  /// exchange a real deployment performs after parallel file reads.
  void ingest(VertexId id, std::span<const T> feature) {
    comm_->async(partition_.owner(id), h_ingest_, id, feature);
  }

  [[nodiscard]] const FeatureStore<T>& local_points() const noexcept {
    return points_;
  }

  // ---- phase: random initialization (Alg. 1 lines 2–5) -------------------

  void start_init() {
    lists_.clear();
    lists_.reserve(points_.size());
    for (const VertexId v : points_.ids()) {
      lists_.emplace(v, NeighborList(config_.k, t_graph_));
    }
    init_cursor_ = 0;
    init_targets_.clear();
  }

  /// Emits up to `quota` init requests; returns true when this rank has
  /// emitted all of its requests (§4.4 batching: the runner interleaves
  /// chunks with barriers).
  bool emit_init_chunk(std::uint64_t quota) {
    std::uint64_t emitted = 0;
    while (init_cursor_ < points_.size()) {
      const VertexId v = points_.id_at(init_cursor_);
      if (init_targets_.empty()) generate_init_targets(v);
      while (init_emitted_ < init_targets_.size()) {
        if (emitted >= quota) return false;
        const VertexId u = init_targets_[init_emitted_++];
        async_with_row(partition_.owner(u), h_init_req_, v, u, v);
        ++emitted;
      }
      init_targets_.clear();
      init_emitted_ = 0;
      ++init_cursor_;
    }
    return true;
  }

  // ---- dynamic updates (paper §7: add/delete + short refinement) ----------

  /// Adds a point after the initial build. Its neighbor list starts empty
  /// and is seeded by emit_pending_init_chunk() + refinement iterations.
  void add_pending_point(VertexId id, std::span<const T> feature) {
    assert(partition_.owner(id) == comm_->rank());
    points_.add(id, feature);
    lists_.emplace(id, NeighborList(config_.k, t_graph_));
    pending_init_.push_back(id);
  }

  /// Per-rank live point counts, used to sample init targets when vertex
  /// ids are no longer dense (after deletions). Must be set on every rank
  /// before emit_pending_init_chunk().
  void set_rank_weights(std::vector<std::uint64_t> counts) {
    rank_weights_ = std::move(counts);
    total_weight_ = 0;
    for (const auto w : rank_weights_) total_weight_ += w;
  }

  [[nodiscard]] std::uint64_t local_point_count() const noexcept {
    return points_.size();
  }

  /// Configured k (neighbor-list capacity); checkpoints validate it.
  [[nodiscard]] std::size_t list_capacity() const noexcept {
    return config_.k;
  }

  /// The engine's RNG stream state. This stream is the *only* randomness
  /// on the build path, so checkpointing it (and the neighbor rows) at an
  /// iteration boundary is sufficient for a resumed build to replay the
  /// remaining iterations bit-identically.
  [[nodiscard]] std::array<std::uint64_t, 4> rng_state() const noexcept {
    return rng_.state();
  }
  void set_rng_state(const std::array<std::uint64_t, 4>& s) noexcept {
    rng_.set_state(s);
  }

  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }

  /// Emits init requests for points added since the last build/refine.
  /// Targets are sampled by weighted rank + random-local-point (the
  /// dense-id assumption does not survive deletions). Returns true when
  /// this rank has drained its pending list.
  bool emit_pending_init_chunk(std::uint64_t quota) {
    std::uint64_t emitted = 0;
    while (!pending_init_.empty()) {
      const VertexId v = pending_init_.back();
      while (pending_emitted_ < config_.k) {
        if (emitted >= quota) return false;
        async_with_row(sample_weighted_rank(), h_init_sample_, v, v);
        ++pending_emitted_;
        ++emitted;
      }
      pending_init_.pop_back();
      pending_emitted_ = 0;
    }
    return true;
  }

  /// Deletes local points and their neighbor lists. The caller must then
  /// run repair_after_removal() on *every* rank with the full removed set.
  void remove_local_points(std::span<const VertexId> ids) {
    for (const VertexId id : ids) {
      lists_.erase(id);
      old_ids_.erase(id);
      new_ids_.erase(id);
    }
    points_.remove_batch(ids);
  }

  /// Drops dangling references to removed vertices from every local list.
  /// Rows that lost neighbors are re-flagged as new so the next
  /// refinement iterations re-explore around them. Each vertex's rebuild
  /// touches only its own list, so the loop parallelizes as vertex
  /// blocks with no cross-task state at all.
  void repair_after_removal(const std::vector<VertexId>& removed_sorted) {
    auto is_removed = [&](VertexId id) {
      return std::binary_search(removed_sorted.begin(), removed_sorted.end(),
                                id);
    };
    const auto& ids = points_.ids();
    pool_.for_blocks(
        ids.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            auto& list = lists_.at(ids[i]);
            bool lost = false;
            NeighborList rebuilt(config_.k, t_graph_);
            for (const Neighbor& n : list.entries()) {
              if (is_removed(n.id)) {
                lost = true;
              } else {
                rebuilt.update(n.id, n.distance, n.is_new);
              }
            }
            if (lost) {
              for (Neighbor& n : rebuilt.entries()) n.is_new = true;
              list = std::move(rebuilt);
            }
          }
        },
        "repair");
  }

  // ---- phase: sampling + reversed matrices (Alg. 1 lines 8–16, §4.2) -----

  /// Splits every local list into old/new, flips sampled flags, and sends
  /// reversed entries to the owners of the referenced vertices. The
  /// destination order is shuffled (§4.2) to avoid all ranks draining
  /// toward the same destination at once.
  ///
  /// Entries are visited in canonical (distance, id) order, not internal
  /// heap order: heap layout depends on insertion order, which varies with
  /// message-delivery schedule (threaded driver, fault injection). Pinning
  /// the visit order makes the sampled subset — and hence the whole build —
  /// a function of list *content* only, so any two schedules that deliver
  /// the same messages produce the same graph.
  /// Staged for intra-rank threading: stage 1 (parallel, slot = local
  /// vertex index) computes each list's canonical split — pure reads of
  /// list content plus a private sort; stage 2 (sequential, local-index
  /// order) owns everything schedule-sensitive: the rng stream, the
  /// is_new flag flips, and the emission order. The rng consumption and
  /// the outbound byte stream are identical to the fused serial loop for
  /// any thread count.
  void sample_and_emit_reverse() {
    const std::size_t sample_k = scaled_sample_k();
    old_ids_.clear();
    new_ids_.clear();
    rev_old_.clear();
    rev_new_.clear();

    const auto& ids = points_.ids();
    struct SplitSlot {
      std::vector<VertexId> old_list;  ///< old ids, canonical order
      std::vector<std::size_t> fresh;  ///< fresh entry indices, canonical
    };
    std::vector<SplitSlot> slots(ids.size());
    pool_.for_blocks(
        ids.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const auto entries = std::as_const(lists_.at(ids[i])).entries();
            std::vector<std::size_t> order(entries.size());
            for (std::size_t e = 0; e < entries.size(); ++e) order[e] = e;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return entries[a].distance < entries[b].distance ||
                               (entries[a].distance == entries[b].distance &&
                                entries[a].id < entries[b].id);
                      });
            for (const std::size_t e : order) {
              if (entries[e].is_new) {
                slots[i].fresh.push_back(e);
              } else {
                slots[i].old_list.push_back(entries[e].id);
              }
            }
          }
        },
        "sample_split");

    struct RevEntry {
      VertexId target;
      VertexId source;
      std::uint8_t is_new;
    };
    std::vector<RevEntry> outbound;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const VertexId v = ids[i];
      auto entries = lists_.at(v).entries();
      auto& fresh = slots[i].fresh;
      util::shuffle(fresh.begin(), fresh.end(), rng_);
      const std::size_t take = std::min(sample_k, fresh.size());
      auto& old_list = old_ids_[v];
      old_list = std::move(slots[i].old_list);
      auto& new_list = new_ids_[v];
      for (std::size_t s = 0; s < take; ++s) {
        entries[fresh[s]].is_new = false;
        new_list.push_back(entries[fresh[s]].id);
      }
      for (const VertexId u : old_list) outbound.push_back({u, v, 0});
      for (const VertexId u : new_list) outbound.push_back({u, v, 1});
    }

    util::shuffle(outbound.begin(), outbound.end(), rng_);
    for (const RevEntry& e : outbound) {
      comm_->async(partition_.owner(e.target), h_rev_sample_,
                   e.target, e.source, e.is_new);
    }
  }

  /// After the reverse exchange quiesces: merge a ρK-sample of the
  /// reversed lists into old/new (Alg. 1 lines 15–16) and arm the
  /// neighbor-check cursor.
  void merge_reverse_and_prepare_checks() {
    const std::size_t sample_k = scaled_sample_k();
    // Stage 1: collect every reversed list (map operator[] may insert,
    // so this walk stays sequential), then run the canonical pre-sort —
    // the schedule-independence sort merge_sample requires — in parallel;
    // each task sorts disjoint vectors in place. Stage 2 (sequential)
    // owns the rng stream.
    const auto& ids = points_.ids();
    std::vector<std::vector<VertexId>*> rev_lists;
    rev_lists.reserve(2 * ids.size());
    for (const VertexId v : ids) {
      rev_lists.push_back(&rev_old_[v]);
      rev_lists.push_back(&rev_new_[v]);
    }
    pool_.for_blocks(
        rev_lists.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::sort(rev_lists[i]->begin(), rev_lists[i]->end());
          }
        },
        "rev_sort");
    for (const VertexId v : ids) {
      merge_presorted(old_ids_[v], rev_old_[v], sample_k);
      merge_presorted(new_ids_[v], rev_new_[v], sample_k);
    }
    rev_old_.clear();
    rev_new_.clear();
    check_vertex_ = 0;
    check_i_ = 0;
    check_j_ = 1;
  }

  // ---- phase: neighbor checks (Alg. 1 lines 17–22, §4.3) ------------------

  /// Emits up to `quota` pair checks; returns true when exhausted.
  bool emit_check_chunk(std::uint64_t quota) {
    std::uint64_t emitted = 0;
    while (check_vertex_ < points_.size()) {
      const VertexId v = points_.id_at(check_vertex_);
      const auto& nu = new_ids_[v];
      const auto& ol = old_ids_[v];
      // Pair space for center v: (i, j) with j indexing first the tail of
      // the new list (new-new pairs, i < j) and then the old list.
      while (check_i_ < nu.size()) {
        const std::size_t row_len = nu.size() + ol.size();
        while (check_j_ < row_len) {
          if (emitted >= quota) return false;
          const VertexId u1 = nu[check_i_];
          const VertexId u2 = check_j_ < nu.size()
                                  ? nu[check_j_]
                                  : ol[check_j_ - nu.size()];
          ++check_j_;
          if (u1 == u2) continue;
          emit_pair(u1, u2);
          ++emitted;
        }
        ++check_i_;
        check_j_ = check_i_ + 1;  // new-new pairs are unordered: j > i
      }
      ++check_vertex_;
      check_i_ = 0;
      check_j_ = 1;
    }
    return true;
  }

  /// Successful Update() count since the last call (the counter `c`).
  std::uint64_t take_update_count() noexcept {
    const std::uint64_t c = updates_;
    comm_->telemetry().add(c_updates_, c);
    updates_ = 0;
    return c;
  }

  // ---- phase: graph optimization (§4.5) -----------------------------------

  /// Sends every edge's reverse to the target's owner. Staged: the
  /// reverse-edge tuples are constructed in parallel (slot = local
  /// vertex index, pure reads of the lists), then emitted sequentially
  /// in local-index order — the byte stream on the wire is identical to
  /// the fused serial loop.
  void emit_reverse_edges() {
    extra_edges_.clear();
    const auto& ids = points_.ids();
    struct RevEdge {
      VertexId target;
      Dist distance;
    };
    std::vector<std::vector<RevEdge>> slots(ids.size());
    pool_.for_blocks(
        ids.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            for (const Neighbor& n :
                 std::as_const(lists_.at(ids[i])).entries()) {
              slots[i].push_back({n.id, n.distance});
            }
          }
        },
        "rev_edge_build");
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (const RevEdge& e : slots[i]) {
        comm_->async(partition_.owner(e.target), h_rev_edge_, e.target,
                     ids[i], e.distance);
      }
    }
  }

  /// Merges received reverse edges, dedups, prunes to k·m (closest
  /// first). Each output row is a pure function of one vertex's list and
  /// extra_edges_ entry, so the rows build in parallel slots and are
  /// committed in local-index order.
  void finalize_optimization() {
    const auto max_degree = static_cast<std::size_t>(
        static_cast<double>(config_.k) * config_.prune_factor_m);
    const auto& ids = points_.ids();
    const auto& extra = extra_edges_;  // const view: find only, no insert
    std::vector<std::vector<Neighbor>> rows(ids.size());
    pool_.for_blocks(
        ids.size(), kVertexGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::vector<Neighbor> row = lists_.at(ids[i]).sorted();
            const auto it = extra.find(ids[i]);
            if (it != extra.end()) {
              row.insert(row.end(), it->second.begin(), it->second.end());
            }
            std::sort(row.begin(), row.end(),
                      [](const Neighbor& a, const Neighbor& b) {
                        return a.distance < b.distance ||
                               (a.distance == b.distance && a.id < b.id);
                      });
            row.erase(std::unique(row.begin(), row.end(),
                                  [](const Neighbor& a, const Neighbor& b) {
                                    return a.id == b.id;
                                  }),
                      row.end());
            if (row.size() > max_degree) row.resize(max_degree);
            rows[i] = std::move(row);
          }
        },
        "optimize_rows");
    optimized_rows_.clear();
    optimized_rows_.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      optimized_rows_.emplace_back(ids[i], std::move(rows[i]));
    }
    extra_edges_.clear();
  }

  // ---- results ------------------------------------------------------------

  /// Raw (unoptimized) shard rows, sorted by distance.
  [[nodiscard]] std::vector<std::pair<VertexId, std::vector<Neighbor>>>
  shard_rows() const {
    std::vector<std::pair<VertexId, std::vector<Neighbor>>> rows;
    rows.reserve(points_.size());
    for (const VertexId v : points_.ids()) {
      rows.emplace_back(v, lists_.at(v).sorted());
    }
    return rows;
  }

  /// Replaces this rank's neighbor lists from checkpointed rows (flags
  /// included). Points must already be loaded; every row id must be local.
  void import_rows(
      const std::vector<std::pair<VertexId, std::vector<Neighbor>>>& rows) {
    lists_.clear();
    lists_.reserve(rows.size());
    for (const auto& [v, entries] : rows) {
      assert(points_.contains(v));
      NeighborList list(config_.k, t_graph_);
      for (const Neighbor& n : entries) {
        list.update(n.id, n.distance, n.is_new);
      }
      lists_.emplace(v, std::move(list));
    }
  }

  /// Rows after finalize_optimization(); empty until then.
  [[nodiscard]] const std::vector<std::pair<VertexId, std::vector<Neighbor>>>&
  optimized_rows() const noexcept {
    return optimized_rows_;
  }

  [[nodiscard]] std::uint64_t distance_evals() const noexcept {
    return distance_evals_;
  }

  [[nodiscard]] const NeighborList& list_of(VertexId v) const {
    return lists_.at(v);
  }

 private:
  /// Grain for staged vertex-block stages. A fixed constant (never a
  /// function of the thread count) so the task decomposition — and the
  /// engine.tasks counter — is bit-identical for any threads_per_rank.
  static constexpr std::size_t kVertexGrain = 256;

  std::size_t scaled_sample_k() const noexcept {
    return static_cast<std::size_t>(config_.rho *
                                    static_cast<double>(config_.k));
  }

  void generate_init_targets(VertexId v) {
    init_targets_.clear();
    init_emitted_ = 0;
    const std::uint64_t want =
        std::min<std::uint64_t>(config_.k, global_n_ > 0 ? global_n_ - 1 : 0);
    while (init_targets_.size() < want) {
      const auto u = static_cast<VertexId>(rng_.uniform_below(global_n_));
      if (u == v) continue;
      if (std::find(init_targets_.begin(), init_targets_.end(), u) !=
          init_targets_.end()) {
        continue;
      }
      init_targets_.push_back(u);
    }
  }

  /// Rank index ~ P(rank) ∝ live point count; falls back to uniform when
  /// weights were not provided.
  int sample_weighted_rank() {
    if (total_weight_ == 0) {
      return static_cast<int>(rng_.uniform_below(
          static_cast<std::uint64_t>(comm_->size())));
    }
    std::uint64_t pick = rng_.uniform_below(total_weight_);
    for (std::size_t r = 0; r < rank_weights_.size(); ++r) {
      if (pick < rank_weights_[r]) return static_cast<int>(r);
      pick -= rank_weights_[r];
    }
    return comm_->size() - 1;
  }

  void merge_presorted(std::vector<VertexId>& dst, std::vector<VertexId>& rev,
                       std::size_t sample_k) {
    // Reversed entries accumulate in arrival order, which is a property of
    // the delivery schedule, not of the algorithm. The caller sorts before
    // sampling (in parallel, see merge_reverse_and_prepare_checks) so the
    // rng draw is applied to a canonical order and the merge result is
    // schedule-independent (entries are distinct: each center emits one
    // reverse entry per neighbor).
    util::shuffle(rev.begin(), rev.end(), rng_);
    const std::size_t take = std::min(sample_k, rev.size());
    for (std::size_t i = 0; i < take; ++i) {
      const VertexId u = rev[i];
      if (std::find(dst.begin(), dst.end(), u) == dst.end()) dst.push_back(u);
    }
  }

  void emit_pair(VertexId u1, VertexId u2) {
    if (config_.optimized_checks) {
      // §4.3.1 one-sided: only owner(u1) is contacted; it forwards.
      comm_->async(partition_.owner(u1), h_type1_, u1, u2);
    } else {
      // Figure 1a: both endpoints get a check request and exchange
      // features in both directions.
      comm_->async(partition_.owner(u1), h_type1_unopt_, u1, u2);
      comm_->async(partition_.owner(u2), h_type1_unopt_, u2, u1);
    }
  }

  /// Sends `args` to `dest`'s `handler`, followed by the feature of the
  /// local point `row` — unless `dest` is this rank, which stores the row
  /// already: a message never carries a feature to the rank that holds it.
  /// The omitted bytes still count toward the send buffer's flush
  /// threshold, which keeps the delivery schedule unchanged. The handler
  /// gets the feature back with row_from().
  template <typename... Args>
  void async_with_row(int dest, comm::HandlerId handler, VertexId row,
                      const Args&... args) {
    const auto feature = points_[row];
    if (dest == comm_->rank()) {
      comm_->async_omitting(dest, handler, serial::wire_size(feature),
                            args...);
    } else {
      comm_->async(dest, handler, args..., feature);
    }
  }

  /// Receiving half of async_with_row(): the feature of `row`, read in
  /// place from the shard when the message came from this rank, else
  /// deserialized into scratch (valid until the next row_from()).
  std::span<const T> row_from(int source, serial::InArchive& ar,
                              VertexId row) {
    if (source == comm_->rank()) return points_[row];
    ar.read_into(scratch_feature_);
    return scratch_feature_;
  }

  Dist eval(std::span<const T> a, std::span<const T> b) {
    ++distance_evals_;
    comm_->telemetry().add(c_distance_evals_);
    if constexpr (BatchDistance<DistanceFn, T>) {
      // Check requests arrive one candidate per message, so the engine
      // evaluates batches of one — but going through the batch entry
      // point keeps it on the same kernel (same dispatch, same reduction
      // order) as the bulk callers.
      Dist d;
      const T* row = b.data();
      distance_.batch(a.data(), &row, 1, a.size(), &d);
      return d;
    } else {
      return distance_(a, b);
    }
  }

  void register_handlers() {
    // Registration order is part of the wire protocol: every rank
    // constructs its engine the same way, so ids line up.
    h_init_req_ = comm_->register_handler(
        "init_req", [this](int source, serial::InArchive& ar) {
          const auto u = ar.read<VertexId>();
          const auto v = ar.read<VertexId>();
          const Dist d = eval(points_[u], row_from(source, ar, v));
          comm_->async(partition_.owner(v), h_init_rep_, v, u, d);
        });
    h_init_rep_ = comm_->register_handler(
        "init_rep", [this](int, serial::InArchive& ar) {
          const auto v = ar.read<VertexId>();
          const auto u = ar.read<VertexId>();
          const auto d = ar.read<Dist>();
          updates_ += static_cast<std::uint64_t>(
              lists_.at(v).update(u, d, /*is_new=*/true));
        });
    h_rev_sample_ = comm_->register_handler(
        "rev_sample", [this](int, serial::InArchive& ar) {
          const auto target = ar.read<VertexId>();
          const auto source = ar.read<VertexId>();
          const auto is_new = ar.read<std::uint8_t>();
          if (is_new != 0) {
            rev_new_[target].push_back(source);
          } else {
            rev_old_[target].push_back(source);
          }
        });
    h_type1_ = comm_->register_handler(
        "type1", [this](int, serial::InArchive& ar) {
          const auto u1 = ar.read<VertexId>();
          const auto u2 = ar.read<VertexId>();
          auto& l1 = lists_.at(u1);
          // §4.3.2: if u2 is already a neighbor the whole exchange is
          // redundant — its distance is known on this side and the other
          // side either has it or rejected it before.
          if (config_.redundant_check_reduction && l1.contains(u2)) return;
          const Dist bound =
              config_.distance_pruning ? l1.furthest_distance()
                                       : kInfiniteDistance;
          async_with_row(partition_.owner(u2), h_type2plus_, u1, u2, u1,
                         bound);
        });
    h_type2plus_ = comm_->register_handler(
        "type2plus", [this](int source, serial::InArchive& ar) {
          const auto u2 = ar.read<VertexId>();
          const auto u1 = ar.read<VertexId>();
          const auto bound = ar.read<Dist>();
          const auto f1 = row_from(source, ar, u1);
          auto& l2 = lists_.at(u2);
          if (config_.redundant_check_reduction && l2.contains(u1)) return;
          const Dist d = eval(points_[u2], f1);
          updates_ += static_cast<std::uint64_t>(l2.update(u1, d, true));
          // §4.3.3: reply only when u1 could still accept the candidate.
          if (d < bound) {
            comm_->async(partition_.owner(u1), h_type3_, u1, u2, d);
          }
        });
    h_type3_ = comm_->register_handler(
        "type3", [this](int, serial::InArchive& ar) {
          const auto u1 = ar.read<VertexId>();
          const auto u2 = ar.read<VertexId>();
          const auto d = ar.read<Dist>();
          updates_ += static_cast<std::uint64_t>(lists_.at(u1).update(u2, d, true));
        });
    h_type1_unopt_ = comm_->register_handler(
        "type1_unopt", [this](int, serial::InArchive& ar) {
          const auto u1 = ar.read<VertexId>();
          const auto u2 = ar.read<VertexId>();
          async_with_row(partition_.owner(u2), h_type2_unopt_, u1, u2, u1);
        });
    h_type2_unopt_ = comm_->register_handler(
        "type2_unopt", [this](int source, serial::InArchive& ar) {
          const auto u2 = ar.read<VertexId>();
          const auto u1 = ar.read<VertexId>();
          const Dist d = eval(points_[u2], row_from(source, ar, u1));
          updates_ += static_cast<std::uint64_t>(lists_.at(u2).update(u1, d, true));
        });
    h_ingest_ = comm_->register_handler(
        "ingest", [this](int, serial::InArchive& ar) {
          const auto id = ar.read<VertexId>();
          ar.read_into(scratch_feature_);
          points_.add(id, scratch_feature_);
        });
    h_init_sample_ = comm_->register_handler(
        "init_sample", [this](int source, serial::InArchive& ar) {
          // Dynamic-insert seeding: pick a random local point as the
          // candidate neighbor for the new vertex v (weighted-rank
          // sampling made this rank proportionally likely).
          const auto v = ar.read<VertexId>();
          const auto fv = row_from(source, ar, v);
          if (points_.empty()) return;
          const std::size_t local =
              rng_.uniform_below(points_.size());
          const VertexId u = points_.id_at(local);
          if (u == v) return;  // rare self-collision: drop this sample
          const Dist d = eval(points_[u], fv);
          comm_->async(partition_.owner(v), h_init_rep_, v, u, d);
        });
    h_rev_edge_ = comm_->register_handler(
        "rev_edge", [this](int, serial::InArchive& ar) {
          const auto target = ar.read<VertexId>();
          const auto source = ar.read<VertexId>();
          const auto d = ar.read<Dist>();
          extra_edges_[target].push_back(Neighbor{source, d, false});
        });
  }

  comm::Communicator* comm_;
  DnndConfig config_;
  DistanceFn distance_;
  Partition partition_;
  util::Xoshiro256 rng_;
  ThreadPool pool_;

  FeatureStore<T> points_;
  std::uint64_t global_n_ = 0;
  // The graph rows allocate through the ledger: the map's node storage
  // and every row's heap are charged to mem.engine.graph. Iteration
  // scratch (old/new/reverse samples, optimization buffers below) is
  // deliberately untagged — transient per-iteration state, documented in
  // DESIGN.md's memory-accounting row.
  using ListMapAlloc =
      telemetry::CountingAllocator<std::pair<const VertexId, NeighborList>>;
  using ListMap = std::unordered_map<VertexId, NeighborList,
                                     std::hash<VertexId>,
                                     std::equal_to<VertexId>, ListMapAlloc>;
  ListMap lists_;

  // Per-iteration sampling state.
  std::unordered_map<VertexId, std::vector<VertexId>> old_ids_;
  std::unordered_map<VertexId, std::vector<VertexId>> new_ids_;
  std::unordered_map<VertexId, std::vector<VertexId>> rev_old_;
  std::unordered_map<VertexId, std::vector<VertexId>> rev_new_;

  // Resumable cursors (§4.4 batching).
  std::size_t init_cursor_ = 0;
  std::vector<VertexId> init_targets_;
  std::size_t init_emitted_ = 0;
  std::size_t check_vertex_ = 0;
  std::size_t check_i_ = 0;
  std::size_t check_j_ = 1;

  // Optimization state.
  std::unordered_map<VertexId, std::vector<Neighbor>> extra_edges_;
  std::vector<std::pair<VertexId, std::vector<Neighbor>>> optimized_rows_;

  std::uint64_t updates_ = 0;
  std::uint64_t distance_evals_ = 0;
  /// Deserialization scratch: features arrive at arbitrary byte offsets
  /// inside packed datagrams, so multi-byte element types must be copied
  /// out before use (alignment); the buffer is reused across messages.
  std::vector<T> scratch_feature_;

  // Dynamic-update state.
  std::vector<VertexId> pending_init_;
  std::size_t pending_emitted_ = 0;
  std::vector<std::uint64_t> rank_weights_;
  std::uint64_t total_weight_ = 0;

  comm::HandlerId h_init_req_ = 0, h_init_rep_ = 0, h_rev_sample_ = 0;
  comm::HandlerId h_type1_ = 0, h_type2plus_ = 0, h_type3_ = 0;
  comm::HandlerId h_type1_unopt_ = 0, h_type2_unopt_ = 0, h_rev_edge_ = 0;
  comm::HandlerId h_init_sample_ = 0;
  comm::HandlerId h_ingest_ = 0;

  telemetry::MetricId c_distance_evals_ = 0;
  telemetry::MetricId c_updates_ = 0;
  telemetry::MetricId c_tasks_ = 0;
  telemetry::MemTag t_features_;
  telemetry::MemTag t_graph_;
};

}  // namespace dnnd::core
