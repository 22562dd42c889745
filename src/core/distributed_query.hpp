// Distributed ANN query service: greedy graph search over the *sharded*
// k-NN graph, no gather step.
//
// The paper's query program is shared-memory over a gathered graph
// (§5.3.1), which presumes the graph and dataset fit one node — true on
// Mammoth's 2 TiB nodes, not in general at "massive scale" (the paper's
// related work cites Pyramid for exactly this). This module keeps both
// the adjacency and the features partitioned as DNND left them and runs
// the §3.3 greedy search by message passing, surviving crash-stop rank
// failures on the way:
//
//   replicate  each shard (adjacency rows + features) lives on
//              `replication_factor` ranks, per the ReplicaMap's
//              chained-successor placement; slot 0 is the home rank.
//              replication_factor = 1 is the identity map: every shard
//              lives only on its home rank and nothing is exchanged.
//   seed       the coordinator (query index round-robin over ranks) draws
//              every entry point itself from a per-query rng, a fork of
//              params.seed by query index: one weighted draw picks the
//              home shard and the point index within it, and a seed_req
//              asks a replica of that shard to evaluate θ(q, ·)
//   expand     the coordinator pops the frontier, asks a replica of
//              owner(v) for v's row (row_req → row_reply), filters
//              visited, groups the unvisited neighbors by owner and
//              scatters eval_batch sub-requests carrying the query
//              vector; replicas evaluate against their copy of the shard
//   merge      a step's candidates are merged in canonical (distance, id)
//              order once its last reply lands, so the coordinator's
//              state depends only on reply contents — not on which
//              replica answered, in what order, or after what delay
//   terminate  frontier empty or closest frontier entry beyond
//              (1 + epsilon) · d_max — same rule as the shared-memory
//              searcher
//
// Every sub-request (seed / row / eval-batch) carries an idempotent
// request id and the home shard it reads, and is routed to the first live
// replica of that shard. On per-request timeout it is re-issued to the
// next live replica with doubled timeout; one hedged duplicate goes out
// early for stragglers. Replies are deduplicated by request id, so late or
// hedged duplicates merge exactly once. When the failure detector declares
// a rank dead, every pending sub-request aimed at it reroutes and future
// routing skips it; when EVERY replica of a shard is dead the sub-request
// is abandoned and the query completes in degraded mode with the best
// reachable results and an explicit `coverage` fraction — it never hangs
// and never throws. Because seeds depend only on params.seed and the
// query index, a query resubmitted after its coordinator died reproduces
// the same answer bit-for-bit.
//
// DistributedQueryService::run() drives all of this on the calling
// thread, whatever the environment's driver: it submits every query, then
// polls the live ranks round-robin (flush, deliver, detect failures, tick
// the request clock) until every query has completed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/environment.hpp"
#include "core/distance_kernels.hpp"
#include "core/dnnd_runner.hpp"
#include "core/knn_graph.hpp"
#include "core/knn_query.hpp"
#include "core/partition.hpp"
#include "core/neighbor_list.hpp"
#include "core/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dnnd::core {

/// Knobs for the query protocol's replication and failover. Defaults are
/// tuned against the simulated transport's tick clock: request timeouts
/// well below the failure detector's 256-tick horizon so failover starts
/// before the detector confirms the crash, and a query deadline that only
/// fires as a last-resort liveness backstop.
struct ServingConfig {
  /// Ranks holding each shard (chained successors). 1 = no replication.
  int replication_factor = 1;
  /// Ticks a sub-request may wait before re-issue to the next replica.
  std::uint32_t request_timeout_ticks = 96;
  /// Ticks before a straggling first attempt gets one hedged duplicate.
  std::uint32_t hedge_after_ticks = 48;
  /// Re-issues per sub-request before waiting on the failure detector.
  std::uint32_t max_request_resends = 3;
  /// Absolute per-query tick budget; expiry abandons remaining
  /// sub-requests so the query completes degraded rather than hanging.
  std::uint64_t query_deadline_ticks = std::uint64_t{1} << 20;
  /// Redraw attempts when a seed draw lands on a dead shard.
  std::size_t seed_redraw_limit = 64;
};

/// One weighted shard draw: the home rank and the index of the drawn
/// point within that rank's store. home == -1 means no live shard could
/// be drawn within the redraw limit.
struct ShardDraw {
  int home = -1;
  std::uint64_t index = 0;
};

/// Draws a (shard, point-index) pair proportional to `weights`, skipping
/// shards `alive` rejects. A single uniform draw yields both the shard
/// and the index within it, so when nothing is dead the rng consumes
/// exactly one value per draw. A draw landing on a dead shard is burned
/// and redrawn (up to `redraw_limit` times), preserving the weighted
/// distribution over the surviving shards.
template <typename Rng, typename AliveFn>
ShardDraw sample_live_weighted_shard(Rng& rng,
                                     const std::vector<std::uint64_t>& weights,
                                     std::uint64_t total_weight, AliveFn&& alive,
                                     std::size_t redraw_limit) {
  if (total_weight == 0) return {};
  for (std::size_t attempt = 0; attempt <= redraw_limit; ++attempt) {
    std::uint64_t pick = rng.uniform_below(total_weight);
    for (std::size_t r = 0; r < weights.size(); ++r) {
      if (pick >= weights[r]) {
        pick -= weights[r];
        continue;
      }
      if (alive(static_cast<int>(r))) {
        return ShardDraw{static_cast<int>(r), pick};
      }
      break;  // dead shard: burn this draw and try again
    }
  }
  return {};
}

/// One confirmed rank failure observed while serving queries — the
/// structured context the CLI surfaces.
struct RankFailureInfo {
  int failed_rank = -1;
  int detected_by = -1;
  std::uint64_t epoch = 0;
  std::uint64_t silent_ticks = 0;
};

/// Per-rank half of the service. Construct one per rank (same order on
/// every rank), attach the rank's shard, then drive via
/// DistributedQueryService.
template <typename T, typename DistanceFn>
class QueryEngineRank {
 public:
  QueryEngineRank(comm::Communicator& comm, DistanceFn distance,
                  Partition partition, const ServingConfig& config,
                  std::size_t threads = 1)
      : comm_(&comm),
        distance_(std::move(distance)),
        partition_(std::move(partition)),
        pool_(threads == 0 ? 1 : threads),
        config_(config),
        replica_map_(comm.size(), config.replication_factor),
        shards_(static_cast<std::size_t>(comm.size())),
        rank_dead_(static_cast<std::size_t>(comm.size()), 0) {
    auto& tel = comm_->telemetry();
    c_submitted_ = tel.counter("query.submitted");
    c_completed_ = tel.counter("query.completed");
    c_frontier_pops_ = tel.counter("query.frontier_pops");
    c_distance_evals_ = tel.counter("query.distance_evals");
    // Pool tasks from handler-side batch evals: fixed decomposition, so
    // bit-identical across thread counts (schedule-shape counter,
    // excluded from the metrics-regression diff like engine.tasks).
    c_tasks_ = tel.counter("query.tasks", telemetry::MetricUnit::kSchedule);
    pool_.set_telemetry(&tel, c_tasks_);
    h_evals_per_query_ = tel.histogram("query.distance_evals_per_query");
    c_failover_reissues_ = tel.counter("query.failover.reissues");
    c_failover_rerouted_ = tel.counter("query.failover.rerouted");
    c_failover_abandoned_ = tel.counter("query.failover.abandoned");
    c_failover_resubmitted_ = tel.counter("query.failover.resubmitted");
    c_degraded_ = tel.counter("query.degraded.completed");
    c_hedges_ = tel.counter("query.hedge.sent");
    t_replica_features_ = tel.mem_tag("mem.replica.features");
    t_replica_rows_ = tel.mem_tag("mem.replica.rows");
    register_handlers();
  }

  QueryEngineRank(const QueryEngineRank&) = delete;
  QueryEngineRank& operator=(const QueryEngineRank&) = delete;

  /// Serves the engine's shard: snapshots its adjacency rows (optimized
  /// if available) and borrows its feature store without copying it.
  void attach(DnndEngine<T, DistanceFn>& engine) {
    Shard& own = own_shard();
    own.rows.clear();
    if (!engine.optimized_rows().empty()) {
      for (const auto& [v, row] : engine.optimized_rows()) own.rows[v] = row;
    } else {
      for (auto& [v, row] : engine.shard_rows()) own.rows[v] = std::move(row);
    }
    own.points = &engine.local_points();
  }

  /// Serves a shard this engine owns outright (the serving-from-graph
  /// path, where no DnndEngine survives to borrow from).
  void attach_shard(std::unordered_map<VertexId, std::vector<Neighbor>> rows,
                    FeatureStore<T> points) {
    Shard& own = own_shard();
    own.rows = std::move(rows);
    own.hold(std::move(points));
  }

  /// Ranks holding each shard (the configured factor clamped to the
  /// world size).
  [[nodiscard]] int replication_factor() const noexcept {
    return replica_map_.factor();
  }

  [[nodiscard]] std::uint64_t local_point_count() const noexcept {
    const Shard& own = own_shard();
    return own.points == nullptr ? 0 : own.points->size();
  }

  /// Point counts of every shard, indexed by home rank: seed draws are
  /// weighted by them.
  void set_rank_weights(std::vector<std::uint64_t> counts) {
    rank_weights_ = std::move(counts);
    total_weight_ = 0;
    for (const auto w : rank_weights_) total_weight_ += w;
  }

  /// Ships this rank's shard (features + adjacency rows) to its replica
  /// successors. Call inside one phase on every rank; the quiescence
  /// barrier completes the exchange. Features are re-inserted in home
  /// insertion order, so id_at() agrees across replicas and any replica
  /// answers a seed_req identically.
  void broadcast_shard_to_replicas() {
    if (replica_map_.factor() <= 1) return;
    const Shard& own = own_shard();
    std::vector<VertexId> point_ids;
    std::vector<T> point_values;
    if (own.points != nullptr) {
      point_ids.reserve(own.points->size());
      for (std::size_t i = 0; i < own.points->size(); ++i) {
        point_ids.push_back(own.points->id_at(i));
        const auto row = own.points->row(i);
        point_values.insert(point_values.end(), row.begin(), row.end());
      }
    }
    std::vector<VertexId> row_ids;
    std::vector<std::uint32_t> row_lens;
    std::vector<Neighbor> row_flat;
    row_ids.reserve(own.rows.size());
    row_lens.reserve(own.rows.size());
    for (const auto& [v, row] : own.rows) {
      row_ids.push_back(v);
      row_lens.push_back(static_cast<std::uint32_t>(row.size()));
      row_flat.insert(row_flat.end(), row.begin(), row.end());
    }
    for (int slot = 1; slot < replica_map_.factor(); ++slot) {
      comm_->async(replica_map_.replica(comm_->rank(), slot), h_replicate_,
                   static_cast<std::uint32_t>(comm_->rank()), point_ids,
                   point_values, row_ids, row_lens, row_flat);
    }
  }

  /// Starts one query with this rank as coordinator. Seeds are drawn
  /// here from a per-query rng (fork of params.seed by query index), so
  /// the result does not depend on which rank coordinates or which
  /// replica answers — the property that makes post-crash resubmission
  /// bit-identical.
  void submit(std::uint64_t query_index, std::span<const T> query,
              const SearchParams& params, bool resubmitted = false) {
    const std::uint64_t qid = next_local_id_++;
    ActiveQuery& state = active_[qid];
    state.query_index = query_index;
    state.vector.assign(query.begin(), query.end());
    state.params = params;
    state.best = NeighborList(params.num_neighbors);
    state.started_tick = tick_;

    comm_->telemetry().add(c_submitted_);
    if (resubmitted) comm_->telemetry().add(c_failover_resubmitted_);
    const std::size_t entries =
        params.num_entry_points > 0 ? params.num_entry_points
                                    : params.num_neighbors;
    util::Xoshiro256 qrng = util::Xoshiro256(params.seed).fork(query_index);
    for (std::size_t e = 0; e < entries; ++e) {
      const ShardDraw draw = sample_live_weighted_shard(
          qrng, rank_weights_, total_weight_,
          [this](int r) { return shard_alive(r); },
          config_.seed_redraw_limit);
      if (draw.home < 0) {
        ++state.sub_failed;
        comm_->telemetry().add(c_failover_abandoned_);
        continue;
      }
      SubRequest req;
      req.qid = qid;
      req.kind = kSeedReq;
      req.home = draw.home;
      req.seed_index = draw.index;
      start_subrequest(std::move(req), state);
    }
    complete_step_if_done(qid, state);
  }

  /// Records that `rank` crashed (failure detector verdict or direct
  /// knowledge): every pending sub-request aimed at it fails over
  /// immediately, and routing and seeding skip it from now on.
  void mark_rank_dead(int rank) {
    if (rank < 0 || static_cast<std::size_t>(rank) >= rank_dead_.size()) return;
    if (rank_dead_[static_cast<std::size_t>(rank)] != 0) return;
    rank_dead_[static_cast<std::size_t>(rank)] = 1;
    scratch_req_ids_.clear();
    for (const auto& [req_id, req] : pending_) {
      if (req.target == rank) scratch_req_ids_.push_back(req_id);
    }
    for (const std::uint64_t req_id : scratch_req_ids_) {
      const auto it = pending_.find(req_id);
      if (it == pending_.end()) continue;
      SubRequest& req = it->second;
      int slot = req.replica_slot + 1;
      const int target = pick_live_replica(req.home, slot, &slot);
      if (target < 0) {
        fail_subrequest(req_id);
        continue;
      }
      comm_->telemetry().add(c_failover_rerouted_);
      req.target = target;
      req.replica_slot = slot;
      req.sent_tick = tick_;
      send_subrequest(req_id, req, target);
    }
  }

  /// One logical tick of the request clock: drives hedging, per-request
  /// timeouts with capped re-issue, and the per-query deadline. The
  /// driver calls this once per polling round, so like the transport's
  /// retransmit clock it advances deterministically under the sequential
  /// driver.
  void tick() {
    ++tick_;
    if (pending_.empty()) return;
    scratch_req_ids_.clear();
    for (auto& [req_id, req] : pending_) {
      const ActiveQuery& state = active_.at(req.qid);
      if (tick_ - state.started_tick > config_.query_deadline_ticks) {
        scratch_req_ids_.push_back(req_id);  // deadline: abandon
        continue;
      }
      const std::uint64_t waited = tick_ - req.sent_tick;
      if (!req.hedged && req.resends == 0 &&
          waited > config_.hedge_after_ticks) {
        // One early duplicate to the next replica for stragglers. Same
        // req_id, so whichever reply lands first wins and the other is
        // dropped by the pending-map dedup.
        req.hedged = true;
        int slot = req.replica_slot + 1;
        const int target = pick_live_replica(req.home, slot, &slot);
        if (target >= 0 && target != req.target) {
          comm_->telemetry().add(c_hedges_);
          send_subrequest(req_id, req, target);
        }
      }
      if (waited > req.timeout_ticks) {
        if (!shard_alive(req.home)) {
          scratch_req_ids_.push_back(req_id);  // every replica dead
          continue;
        }
        if (req.resends < config_.max_request_resends) {
          ++req.resends;
          int slot = req.replica_slot + 1;
          const int target = pick_live_replica(req.home, slot, &slot);
          if (target >= 0) {
            comm_->telemetry().add(c_failover_reissues_);
            req.target = target;
            req.replica_slot = slot;
            req.sent_tick = tick_;
            req.timeout_ticks = std::min(req.timeout_ticks * 2,
                                         config_.request_timeout_ticks * 8);
            send_subrequest(req_id, req, target);
          }
        }
        // Past the resend cap with a live replica: wait. The failure
        // detector (or the query deadline) resolves the wait — never
        // degrade a query just because a slow path exhausted retries.
      }
    }
    for (const std::uint64_t req_id : scratch_req_ids_) {
      fail_subrequest(req_id);
    }
  }

  /// Completed results, keyed by the caller's query_index.
  [[nodiscard]] std::unordered_map<std::uint64_t, SearchResult>&
  completed() noexcept {
    return completed_;
  }

 private:
  struct ActiveQuery {
    std::uint64_t query_index = 0;
    std::vector<T> vector;
    SearchParams params;
    NeighborList best;
    std::priority_queue<std::pair<Dist, VertexId>,
                        std::vector<std::pair<Dist, VertexId>>, std::greater<>>
        frontier;
    std::unordered_set<VertexId> evaluated;  ///< θ(q, ·) already computed
    std::unordered_set<VertexId> expanded;   ///< row already fetched
    std::size_t outstanding = 0;  ///< replies pending before the next step
    std::uint64_t distance_evals = 0;
    std::uint64_t sub_ok = 0;      ///< sub-requests answered
    std::uint64_t sub_failed = 0;  ///< sub-requests abandoned (dead shard)
    std::uint64_t started_tick = 0;
    /// Evaluated candidates of the current step, merged in canonical
    /// order once the step's last reply lands (see buffer_candidates).
    std::vector<std::pair<Dist, VertexId>> step_candidates;
  };

  /// Sub-request kinds; the wire carries the id + kind-specific payload.
  static constexpr std::uint8_t kSeedReq = 0;
  static constexpr std::uint8_t kRowReq = 1;
  static constexpr std::uint8_t kEvalReq = 2;

  /// Coordinator-side record of one in-flight idempotent sub-request.
  struct SubRequest {
    std::uint64_t qid = 0;
    std::uint8_t kind = kSeedReq;
    int home = -1;                 ///< logical shard the data lives on
    std::uint64_t seed_index = 0;  ///< kSeedReq: index within the shard
    VertexId vertex = 0;           ///< kRowReq
    std::vector<VertexId> batch;   ///< kEvalReq
    int target = -1;       ///< replica rank the live attempt went to
    int replica_slot = 0;  ///< slot of `target` in the replica chain
    std::uint32_t resends = 0;
    std::uint64_t sent_tick = 0;
    std::uint32_t timeout_ticks = 0;
    bool hedged = false;
  };

  /// One shard this rank serves: its own (home == rank) or a mirrored
  /// replica. `points` either borrows a DnndEngine's store or points at
  /// `owned`; it is null for shards this rank does not host.
  struct Shard {
    std::unordered_map<VertexId, std::vector<Neighbor>> rows;
    const FeatureStore<T>* points = nullptr;
    std::unique_ptr<FeatureStore<T>> owned;

    void hold(FeatureStore<T> store) {
      owned = std::make_unique<FeatureStore<T>>(std::move(store));
      points = owned.get();
    }
  };

  Shard& own_shard() {
    return shards_[static_cast<std::size_t>(comm_->rank())];
  }
  const Shard& own_shard() const {
    return shards_[static_cast<std::size_t>(comm_->rank())];
  }

  /// First live rank in `home`'s replica chain starting at `start_slot`
  /// (wrapping across all slots); -1 when every replica is dead.
  int pick_live_replica(int home, int start_slot, int* out_slot) const {
    const int factor = replica_map_.factor();
    for (int i = 0; i < factor; ++i) {
      const int slot = (start_slot + i) % factor;
      const int r = replica_map_.replica(home, slot);
      if (rank_dead_[static_cast<std::size_t>(r)] == 0) {
        *out_slot = slot;
        return r;
      }
    }
    return -1;
  }

  [[nodiscard]] bool shard_alive(int home) const {
    int slot = 0;
    return pick_live_replica(home, 0, &slot) >= 0;
  }

  /// Routes a fresh sub-request to the preferred (slot-0 first) live
  /// replica. Returns false — counting the failure against the query —
  /// when every replica of the shard is dead.
  bool start_subrequest(SubRequest&& req, ActiveQuery& state) {
    int slot = 0;
    const int target = pick_live_replica(req.home, 0, &slot);
    if (target < 0) {
      ++state.sub_failed;
      comm_->telemetry().add(c_failover_abandoned_);
      return false;
    }
    req.target = target;
    req.replica_slot = slot;
    req.sent_tick = tick_;
    req.timeout_ticks = config_.request_timeout_ticks;
    const std::uint64_t req_id = next_req_id_++;
    ++state.outstanding;
    send_subrequest(req_id, req, target);
    pending_.emplace(req_id, std::move(req));
    return true;
  }

  void send_subrequest(std::uint64_t req_id, const SubRequest& req,
                       int target) {
    const ActiveQuery& state = active_.at(req.qid);
    const auto coordinator = static_cast<std::uint32_t>(comm_->rank());
    const auto home = static_cast<std::uint32_t>(req.home);
    switch (req.kind) {
      case kSeedReq:
        comm_->async(target, h_seed_req_, req.qid, req_id, coordinator, home,
                     req.seed_index, state.vector);
        break;
      case kRowReq:
        comm_->async(target, h_row_req_, req.qid, req_id, coordinator, home,
                     req.vertex);
        break;
      default:
        comm_->async(target, h_eval_batch_, req.qid, req_id, coordinator,
                     home, state.vector, req.batch);
        break;
    }
  }

  /// Abandons one pending sub-request (dead shard or deadline): the query
  /// counts it failed and advances — degraded completion instead of a
  /// hang.
  void fail_subrequest(std::uint64_t req_id) {
    const auto it = pending_.find(req_id);
    if (it == pending_.end()) return;
    const std::uint64_t qid = it->second.qid;
    pending_.erase(it);
    comm_->telemetry().add(c_failover_abandoned_);
    const auto ait = active_.find(qid);
    if (ait == active_.end()) return;
    ActiveQuery& state = ait->second;
    ++state.sub_failed;
    --state.outstanding;
    complete_step_if_done(qid, state);
  }

  /// Candidate intake: replies from different shards (and from failover
  /// re-sends) can interleave in any order, so candidates are buffered
  /// per step and merged in canonical (distance, id) order when the
  /// step's last reply lands. That makes the coordinator's state a pure
  /// function of the step's reply *contents* — which replicas answered,
  /// in what order, with what delays, all becomes invisible, and a
  /// failover run stays bit-identical to the fault-free one.
  void buffer_candidates(ActiveQuery& state, const std::vector<VertexId>& ids,
                         const std::vector<Dist>& dists) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ++state.distance_evals;
      state.evaluated.insert(ids[i]);
      state.step_candidates.emplace_back(dists[i], ids[i]);
    }
  }

  /// Flushes the step buffer through the slack-bound admission rule and
  /// advances the query — only once every outstanding reply arrived (or
  /// was abandoned). May complete the query and erase `state`.
  void complete_step_if_done(std::uint64_t qid, ActiveQuery& state) {
    if (state.outstanding != 0) return;
    std::sort(state.step_candidates.begin(), state.step_candidates.end());
    const double slack = 1.0 + state.params.epsilon;
    for (const auto& [d, v] : state.step_candidates) {
      const Dist bound = state.best.furthest_distance();
      if (static_cast<double>(d) < slack * static_cast<double>(bound)) {
        state.frontier.emplace(d, v);
        state.best.update(v, d, false);
      }
    }
    state.step_candidates.clear();
    advance(qid, state);
  }

  /// Expands the next frontier vertex or finishes the query. A vertex
  /// whose shard has no live replica is *skipped* (counted failed) and
  /// the search continues over what is reachable — graceful degradation,
  /// not an error.
  void advance(std::uint64_t qid, ActiveQuery& state) {
    const double slack = 1.0 + state.params.epsilon;
    while (!state.frontier.empty()) {
      const auto [d, v] = state.frontier.top();
      const Dist d_max = state.best.furthest_distance();
      if (static_cast<double>(d) > slack * static_cast<double>(d_max)) break;
      state.frontier.pop();
      comm_->telemetry().add(c_frontier_pops_);
      if (state.expanded.contains(v)) continue;
      state.expanded.insert(v);
      SubRequest req;
      req.qid = qid;
      req.kind = kRowReq;
      req.home = partition_.owner(v);
      req.vertex = v;
      if (start_subrequest(std::move(req), state)) return;
      // Dead shard: keep searching the reachable part of the graph.
    }
    comm_->telemetry().add(c_completed_);
    comm_->telemetry().record(h_evals_per_query_, state.distance_evals);
    SearchResult result;
    result.neighbors = state.best.sorted();
    result.distance_evals = state.distance_evals;
    result.visited = state.evaluated.size();
    const std::uint64_t total = state.sub_ok + state.sub_failed;
    result.coverage =
        total == 0 ? 1.0
                   : static_cast<double>(state.sub_ok) /
                         static_cast<double>(total);
    result.degraded = state.sub_failed != 0;
    if (result.degraded) comm_->telemetry().add(c_degraded_);
    completed_.emplace(state.query_index, std::move(result));
    active_.erase(qid);
  }

  /// Distances from the query vector (already in scratch_) to `ids`,
  /// in `ids` order (batched kernel when the functor supports it; fixed
  /// kEvalGrain decomposition keeps the reply bytes bit-identical across
  /// thread counts).
  void evaluate_ids(const FeatureStore<T>& store,
                    const std::vector<VertexId>& ids,
                    std::vector<Dist>& dists) {
    dists.resize(ids.size());
    if constexpr (BatchDistance<DistanceFn, T>) {
      if (!ids.empty()) {
        std::vector<const T*> rows;
        rows.reserve(ids.size());
        for (const VertexId w : ids) rows.push_back(store[w].data());
        pool_.for_blocks(
            ids.size(), kEvalGrain,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              distance_.batch(scratch_.data(), rows.data() + begin,
                              end - begin, scratch_.size(),
                              dists.data() + begin);
            },
            "query_eval");
      }
    } else {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        dists[i] = distance_(std::span<const T>(scratch_), store[ids[i]]);
      }
    }
    comm_->telemetry().add(c_distance_evals_, ids.size());
  }

  /// Wire protocol. Every request carries (qid, req_id, coordinator,
  /// home, payload); every reply carries (qid, req_id, data). The handler
  /// resolves `home` in its shard table, so any rank in the replica chain
  /// serves the same bytes. Replies dedup coordinator-side by req_id:
  /// late answers after a reroute and the losing half of a hedged pair
  /// both drop on the pending-map miss.
  void register_handlers() {
    h_seed_req_ = comm_->register_handler(
        "qs_seed_req", [this](int, serial::InArchive& ar) {
          const auto qid = ar.read<std::uint64_t>();
          const auto req_id = ar.read<std::uint64_t>();
          const auto coordinator = ar.read<std::uint32_t>();
          const auto home = ar.read<std::uint32_t>();
          const auto seed_index = ar.read<std::uint64_t>();
          ar.read_into(scratch_);
          // The coordinator drew the index; every replica answers with
          // the same point (insertion order mirrors the home shard).
          std::vector<VertexId> ids;
          std::vector<Dist> dists;
          const FeatureStore<T>* store = shards_[home].points;
          if (store != nullptr && !store->empty()) {
            const VertexId u = store->id_at(
                static_cast<std::size_t>(seed_index) % store->size());
            ids.push_back(u);
            dists.push_back(
                distance_(std::span<const T>(scratch_), (*store)[u]));
            comm_->telemetry().add(c_distance_evals_);
          }
          comm_->async(static_cast<int>(coordinator), h_eval_reply_, qid,
                       req_id, ids, dists);
        });
    h_row_req_ = comm_->register_handler(
        "qs_row_req", [this](int, serial::InArchive& ar) {
          const auto qid = ar.read<std::uint64_t>();
          const auto req_id = ar.read<std::uint64_t>();
          const auto coordinator = ar.read<std::uint32_t>();
          const auto home = ar.read<std::uint32_t>();
          const auto v = ar.read<VertexId>();
          std::vector<VertexId> ids;
          const auto& rows = shards_[home].rows;
          if (const auto it = rows.find(v); it != rows.end()) {
            ids.reserve(it->second.size());
            for (const Neighbor& n : it->second) ids.push_back(n.id);
          }
          comm_->async(static_cast<int>(coordinator), h_row_reply_, qid,
                       req_id, ids);
        });
    h_eval_batch_ = comm_->register_handler(
        "qs_eval_batch", [this](int, serial::InArchive& ar) {
          const auto qid = ar.read<std::uint64_t>();
          const auto req_id = ar.read<std::uint64_t>();
          const auto coordinator = ar.read<std::uint32_t>();
          const auto home = ar.read<std::uint32_t>();
          ar.read_into(scratch_);
          auto ids = ar.read_vector<VertexId>();
          std::vector<Dist> dists;
          if (const FeatureStore<T>* store = shards_[home].points) {
            evaluate_ids(*store, ids, dists);
          } else {
            ids.clear();  // shard not hosted here: answer empty
          }
          comm_->async(static_cast<int>(coordinator), h_eval_reply_, qid,
                       req_id, ids, dists);
        });
    h_row_reply_ = comm_->register_handler(
        "qs_row_reply", [this](int, serial::InArchive& ar) {
          const auto qid = ar.read<std::uint64_t>();
          const auto req_id = ar.read<std::uint64_t>();
          const auto ids = ar.read_vector<VertexId>();
          const auto it = pending_.find(req_id);
          if (it == pending_.end()) return;  // late or hedged duplicate
          pending_.erase(it);
          auto& state = active_.at(qid);
          ++state.sub_ok;
          --state.outstanding;
          std::unordered_map<int, std::vector<VertexId>> by_owner;
          for (const VertexId w : ids) {
            if (state.evaluated.contains(w)) continue;
            state.evaluated.insert(w);
            by_owner[partition_.owner(w)].push_back(w);
          }
          for (auto& [owner, batch] : by_owner) {
            SubRequest req;
            req.qid = qid;
            req.kind = kEvalReq;
            req.home = owner;
            req.batch = std::move(batch);
            start_subrequest(std::move(req), state);
          }
          complete_step_if_done(qid, state);
        });
    h_eval_reply_ = comm_->register_handler(
        "qs_eval_reply", [this](int, serial::InArchive& ar) {
          const auto qid = ar.read<std::uint64_t>();
          const auto req_id = ar.read<std::uint64_t>();
          const auto ids = ar.read_vector<VertexId>();
          const auto dists = ar.read_vector<Dist>();
          const auto it = pending_.find(req_id);
          if (it == pending_.end()) return;  // late or hedged duplicate
          pending_.erase(it);
          auto& state = active_.at(qid);
          buffer_candidates(state, ids, dists);
          ++state.sub_ok;
          --state.outstanding;
          complete_step_if_done(qid, state);
        });
    h_replicate_ = comm_->register_handler(
        "q_replicate", [this](int, serial::InArchive& ar) {
          const auto home = ar.read<std::uint32_t>();
          const auto point_ids = ar.read_vector<VertexId>();
          const auto point_values = ar.read_vector<T>();
          const auto row_ids = ar.read_vector<VertexId>();
          const auto row_lens = ar.read_vector<std::uint32_t>();
          const auto row_flat = ar.read_vector<Neighbor>();
          Shard& shard = shards_[home];
          FeatureStore<T> store;
          if (!point_ids.empty()) {
            const std::size_t dim = point_values.size() / point_ids.size();
            for (std::size_t i = 0; i < point_ids.size(); ++i) {
              store.add(point_ids[i],
                        std::span<const T>(point_values.data() + i * dim, dim));
            }
          }
          shard.hold(std::move(store));
          t_replica_features_.add(static_cast<std::int64_t>(
              point_values.size() * sizeof(T) +
              point_ids.size() * sizeof(VertexId)));
          std::size_t off = 0;
          for (std::size_t i = 0; i < row_ids.size(); ++i) {
            const std::size_t len = row_lens[i];
            shard.rows.emplace(
                row_ids[i],
                std::vector<Neighbor>(
                    row_flat.begin() + static_cast<std::ptrdiff_t>(off),
                    row_flat.begin() + static_cast<std::ptrdiff_t>(off + len)));
            off += len;
          }
          t_replica_rows_.add(static_cast<std::int64_t>(
              row_flat.size() * sizeof(Neighbor) +
              row_ids.size() * sizeof(VertexId)));
        });
  }

  /// Grain for handler-side batched-eval tasks (fixed: the task count
  /// must not depend on the thread count).
  static constexpr std::size_t kEvalGrain = 16;

  comm::Communicator* comm_;
  DistanceFn distance_;
  Partition partition_;
  ThreadPool pool_;
  ServingConfig config_;
  ReplicaMap replica_map_;

  /// Every shard this rank serves, indexed by home rank.
  std::vector<Shard> shards_;
  std::vector<std::uint64_t> rank_weights_;
  std::uint64_t total_weight_ = 0;
  std::vector<char> rank_dead_;  ///< local liveness verdicts

  std::uint64_t next_local_id_ = 0;
  std::unordered_map<std::uint64_t, ActiveQuery> active_;
  std::unordered_map<std::uint64_t, SearchResult> completed_;
  std::vector<T> scratch_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_req_id_ = 1;
  std::unordered_map<std::uint64_t, SubRequest> pending_;
  std::vector<std::uint64_t> scratch_req_ids_;

  comm::HandlerId h_seed_req_ = 0, h_row_req_ = 0, h_eval_batch_ = 0;
  comm::HandlerId h_row_reply_ = 0, h_eval_reply_ = 0, h_replicate_ = 0;

  telemetry::MetricId c_submitted_ = 0, c_completed_ = 0;
  telemetry::MetricId c_frontier_pops_ = 0, c_distance_evals_ = 0;
  telemetry::MetricId c_tasks_ = 0;
  telemetry::MetricId h_evals_per_query_ = 0;
  telemetry::MetricId c_failover_reissues_ = 0, c_failover_rerouted_ = 0;
  telemetry::MetricId c_failover_abandoned_ = 0, c_failover_resubmitted_ = 0;
  telemetry::MetricId c_degraded_ = 0, c_hedges_ = 0;
  telemetry::MemTag t_replica_features_;
  telemetry::MemTag t_replica_rows_;
};

/// Front-end: binds one query engine per rank to a sharded index and runs
/// query batches to completion.
template <typename T, typename DistanceFn>
class DistributedQueryService {
 public:
  /// Serves the shards of a built DnndRunner in place: each engine
  /// borrows its rank's feature store and snapshots its rows.
  DistributedQueryService(comm::Environment& env,
                          DnndRunner<T, DistanceFn>& runner,
                          DistanceFn distance, const ServingConfig& config = {})
      : env_(&env) {
    const std::size_t threads =
        resolve_threads(runner.config().threads_per_rank);
    for (int r = 0; r < env.num_ranks(); ++r) {
      add_rank(distance, runner.partition(), config, threads)
          .attach(runner.engine(r));
    }
    start();
  }

  /// Serving from a finished graph + feature set (no DnndRunner needed):
  /// shards both by the hash partition and hands each engine its shard.
  /// This is the "load index, serve queries through failures" entry point
  /// the CLI uses.
  DistributedQueryService(comm::Environment& env, const KnnGraph& graph,
                          const FeatureStore<T>& points, DistanceFn distance,
                          const ServingConfig& config, std::size_t threads = 0)
      : env_(&env) {
    const Partition partition = Partition::hash(env.num_ranks());
    const auto nranks = static_cast<std::size_t>(env.num_ranks());
    std::vector<FeatureStore<T>> stores(nranks);
    std::vector<std::unordered_map<VertexId, std::vector<Neighbor>>> rows(
        nranks);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const VertexId id = points.id_at(i);
      stores[static_cast<std::size_t>(partition.owner(id))].add(id,
                                                               points.row(i));
    }
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const auto row = graph.neighbors(v);
      if (row.empty()) continue;
      rows[static_cast<std::size_t>(partition.owner(v))].emplace(
          v, std::vector<Neighbor>(row.begin(), row.end()));
    }
    for (std::size_t r = 0; r < nranks; ++r) {
      add_rank(distance, partition, config, resolve_threads(threads))
          .attach_shard(std::move(rows[r]), std::move(stores[r]));
    }
    start();
  }

  /// Rank failures observed during run(); cleared at each run() start.
  [[nodiscard]] const std::vector<RankFailureInfo>& rank_failures()
      const noexcept {
    return rank_failures_;
  }

  [[nodiscard]] QueryEngineRank<T, DistanceFn>& engine_rank(int r) {
    return *ranks_[static_cast<std::size_t>(r)];
  }

  /// Runs all queries to completion on the calling thread; queries are
  /// assigned to coordinator ranks round-robin. Results are indexed like
  /// `queries`.
  ///
  /// execute_phase's quiescence barrier cannot drive this: a crash
  /// strands submitted-counter debt by design, so the world never goes
  /// quiescent again. Instead run() polls every live rank round-robin —
  /// flush, deliver, detect, tick — translating detector verdicts into
  /// protocol-level failover, until every query completed (possibly
  /// degraded) or every rank died.
  [[nodiscard]] std::vector<SearchResult> run(const FeatureStore<T>& queries,
                                              const SearchParams& params) {
    for (auto& rank : ranks_) rank->completed().clear();
    rank_failures_.clear();
    const int nranks = env_->num_ranks();
    auto& world = env_->world();
    world.begin_serving_epoch();

    std::vector<int> coordinator(queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      coordinator[qi] = static_cast<int>(qi % static_cast<std::size_t>(nranks));
    }
    std::vector<char> presumed_dead(static_cast<std::size_t>(nranks), 0);
    int live_count = nranks;

    auto engine = [&](int r) -> QueryEngineRank<T, DistanceFn>& {
      return *ranks_[static_cast<std::size_t>(r)];
    };

    // Declares `dead` crashed: every survivor reroutes, and queries the
    // dead rank was coordinating (and had not yet completed) resubmit on
    // the surviving ranks — the per-query rng makes the re-runs
    // bit-identical to what the dead coordinator would have produced.
    auto on_rank_dead = [&](int dead, int detected_by, std::uint64_t epoch,
                            std::uint64_t silent_ticks) {
      if (dead < 0 || dead >= nranks) return;
      if (presumed_dead[static_cast<std::size_t>(dead)] != 0) return;
      presumed_dead[static_cast<std::size_t>(dead)] = 1;
      --live_count;
      rank_failures_.push_back(
          RankFailureInfo{dead, detected_by, epoch, silent_ticks});
      std::vector<int> live;
      for (int r = 0; r < nranks; ++r) {
        if (presumed_dead[static_cast<std::size_t>(r)] != 0) continue;
        env_->comm(r).mark_peer_dead(dead);
        engine(r).mark_rank_dead(dead);
        live.push_back(r);
      }
      if (live.empty()) return;
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        if (coordinator[qi] != dead) continue;
        if (engine(dead).completed().count(qi) != 0) continue;  // already done
        const int next = live[qi % live.size()];
        coordinator[qi] = next;
        engine(next).submit(qi, queries.row(qi), params,
                            /*resubmitted=*/true);
      }
    };

    // Submit. Not under execute_phase — the drive loop below is the
    // barrier substitute.
    for (int r = 0; r < nranks; ++r) {
      if (!world.alive(r)) continue;
      const auto span = env_->telemetry(r).span("query_batch", "query");
      for (std::size_t qi = static_cast<std::size_t>(r); qi < queries.size();
           qi += static_cast<std::size_t>(nranks)) {
        engine(r).submit(qi, queries.row(qi), params);
      }
    }

    auto all_done = [&]() {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        if (engine(coordinator[qi]).completed().count(qi) == 0) return false;
      }
      return true;
    };

    const bool detecting =
        nranks > 0 && env_->comm(0).detecting_failures();
    while (live_count > 0 && !all_done()) {
      // A crashed-but-undetected rank with no heartbeat detector would
      // hang the loop; fall back to omniscient detection (the harness
      // standing in for an operator) so the contract "never hangs" holds
      // in detector-off configurations too.
      if (!detecting) {
        for (int r = 0; r < nranks; ++r) {
          if (!world.alive(r) &&
              presumed_dead[static_cast<std::size_t>(r)] == 0) {
            on_rank_dead(r, -1, env_->phase_epoch(), 0);
          }
        }
        if (live_count == 0) break;
      }
      for (int r = 0; r < nranks; ++r) {
        if (presumed_dead[static_cast<std::size_t>(r)] != 0) continue;
        if (!world.alive(r)) continue;  // crashed: executes nothing
        env_->comm(r).flush();
      }
      for (int r = 0; r < nranks; ++r) {
        if (presumed_dead[static_cast<std::size_t>(r)] != 0) continue;
        if (!world.alive(r)) continue;
        try {
          env_->comm(r).process_available(16);
        } catch (const comm::RankFailureError& e) {
          on_rank_dead(e.failed_rank(), e.detected_by(), e.epoch(),
                       e.silent_ticks());
        } catch (const comm::TransportError& e) {
          // Retry exhaustion without a detector verdict: treat the
          // unreachable destination as dead (the no-detector backstop).
          on_rank_dead(e.dest(), r, env_->phase_epoch(), 0);
        }
      }
      for (int r = 0; r < nranks; ++r) {
        if (presumed_dead[static_cast<std::size_t>(r)] != 0) continue;
        if (!world.alive(r)) continue;
        try {
          env_->comm(r).check_failures();
        } catch (const comm::RankFailureError& e) {
          on_rank_dead(e.failed_rank(), e.detected_by(), e.epoch(),
                       e.silent_ticks());
        }
      }
      for (int r = 0; r < nranks; ++r) {
        if (presumed_dead[static_cast<std::size_t>(r)] != 0) continue;
        if (!world.alive(r)) continue;
        engine(r).tick();
      }
    }

    // Collect. A query nobody completed (every rank died) reports
    // zero coverage rather than throwing — degraded, never broken.
    std::vector<SearchResult> results(queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      bool found = false;
      for (auto& rank : ranks_) {
        auto it = rank->completed().find(qi);
        if (it != rank->completed().end()) {
          results[qi] = std::move(it->second);
          found = true;
          break;
        }
      }
      if (!found) {
        results[qi].degraded = true;
        results[qi].coverage = 0.0;
      }
    }
    return results;
  }

 private:
  QueryEngineRank<T, DistanceFn>& add_rank(const DistanceFn& distance,
                                           const Partition& partition,
                                           const ServingConfig& config,
                                           std::size_t threads) {
    const int r = static_cast<int>(ranks_.size());
    ranks_.push_back(std::make_unique<QueryEngineRank<T, DistanceFn>>(
        env_->comm(r), distance, partition, config, threads));
    return *ranks_.back();
  }

  /// Hands every engine the per-shard point counts seeds are drawn by
  /// and, when the replication factor is above 1, mirrors every shard
  /// onto its replica successors under one quiescence barrier.
  void start() {
    std::vector<std::uint64_t> counts;
    counts.reserve(ranks_.size());
    for (const auto& rank : ranks_) counts.push_back(rank->local_point_count());
    for (auto& rank : ranks_) rank->set_rank_weights(counts);
    if (ranks_.front()->replication_factor() > 1) {
      env_->execute_phase([&](int r) {
        ranks_[static_cast<std::size_t>(r)]->broadcast_shard_to_replicas();
      });
    }
  }

  comm::Environment* env_;
  std::vector<std::unique_ptr<QueryEngineRank<T, DistanceFn>>> ranks_;
  std::vector<RankFailureInfo> rank_failures_;
};

}  // namespace dnnd::core
