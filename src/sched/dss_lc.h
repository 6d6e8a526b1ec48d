// DSS-LC: Distributed Service request Scheduling for LC requests (§5.2,
// Algorithm 2).
//
// Per dispatch round and per request type k, the scheduler builds a
// min-cost-flow instance G_k over the master (supply = pending requests) and
// the reachable workers (capacity t_i^k from Eq. 2, edge cost = one-way
// delay) and routes every request at minimum total transmission delay.
// When demand exceeds capacity (Σ t_i^k > 0), requests are split by the
// sorting policy ρ into an immediate set R_k (scheduled on G_k as above) and
// a queued set R'_k scheduled on Ĝ'_k, whose capacities come from *total*
// node resources scaled by the augmentation factor λ (Eqs. 7–8) so the
// backlog spreads proportionally to heterogeneous node sizes.
//
// Parallel scheduling core: Alg. 2 treats the per-type graphs G_k as
// independent, so Schedule() fans the types out over a fixed-size thread
// pool (DssLcConfig::num_threads). Determinism contract:
//   * every type draws from its own RNG stream derived from (seed, service
//     id, round index) — never from a shared stream;
//   * every type sees the identical round-start view (snapshots + the
//     dispatcher's commitments as of the top of the round);
//   * results are merged in ascending service-id order.
// Under a fixed seed the emitted assignments are therefore byte-identical
// whatever num_threads is — serial mode is just the pool-free special case.
//
// Every G_k / Ĝ'_k is a dispatch star (source → master → workers → sink), so
// Route hands the per-worker chains (delay cost, capacity min(c_ij, t_i^k))
// straight to flow::SolveDispatchStar — no arc graph is built. Each
// thread-pool slot owns one reusable worker view, chain array and kernel
// scratch, pre-grown at round start, so steady-state rounds allocate no
// solver storage (see solver_pool_stats()). The kernel fully overwrites its
// scratch, so which slot solves a type never affects the result.
//
// Round cost: the liveness filter builds one flat node view per round
// (capacities net of commitments, totals, rtt/2, queue length), looking up
// each cluster's RTT once and each node's commitment by array index; every
// type then derives its worker view from that array with plain arithmetic.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flow/mcmf.h"
#include "k8s/scheduling_api.h"
#include "scope/metrics.h"

namespace tango::sched {

/// ρ(·): how the overload split orders requests. The paper uses random
/// (all LC services share one priority) and notes the policy is pluggable.
enum class SplitPolicy { kRandom, kFifo };
const char* SplitPolicyName(SplitPolicy p);

struct DssLcConfig {
  /// Per-(master,worker) transmission capacity c_ij, in requests per round
  /// (Eq. 4's bound).
  std::int64_t edge_capacity = 4096;
  SplitPolicy split_policy = SplitPolicy::kRandom;
  std::uint64_t seed = 97;
  /// Concurrency of the per-type G_k fan-out: 1 = serial (no pool),
  /// 0 = one slot per hardware thread, N > 1 = N slots (N-1 pool threads
  /// plus the scheduling thread). Assignments are identical for any value.
  int num_threads = 1;
  /// Record a wall-clock profile of each round's phases into the
  /// scheduler's metric registry: snapshot (liveness filter and round
  /// view), graph_build (one sample per type: its worker view plus every
  /// chain fill), mcmf_solve (one sample per kernel call), merge, commit.
  /// Off by default: the extra steady_clock reads sit on the per-type hot
  /// path.
  bool profile_phases = false;
};

class DssLcScheduler : public k8s::LcScheduler {
 public:
  DssLcScheduler(const workload::ServiceCatalog* catalog,
                 DssLcConfig cfg = {});

  std::vector<k8s::Assignment> Schedule(
      ClusterId cluster, const std::vector<k8s::PendingRequest>& queue,
      const metrics::StateStorage& storage, SimTime now) override;

  std::string name() const override { return "DSS-LC"; }
  double decision_seconds() const override { return decision_seconds_; }
  std::int64_t decisions() const override { return decisions_; }
  k8s::LcRoundStats last_round_stats() const override { return last_round_; }
  k8s::LcRoundStats total_round_stats() const override {
    return total_round_;
  }

  /// λ of the most recent overload split (0 when no split happened) —
  /// exposed for tests of Eq. 8.
  double last_lambda() const { return last_lambda_; }
  /// Total requests routed through the overflow graph Ĝ'_k so far.
  std::int64_t overflow_routed() const { return overflow_routed_; }

  /// Solver slots actually used for the G_k fan-out (1 = serial).
  int concurrency() const {
    return pool_ != nullptr ? pool_->concurrency() : 1;
  }

  /// Reuse statistics of the per-slot solver scratch. A flat
  /// `alloc_events` across rounds proves steady-state rounds route without
  /// touching the heap for solver storage.
  struct SolverPoolStats {
    int solvers = 0;                // per-slot scratch instances
    std::int64_t solves = 0;        // star instances solved so far
    std::int64_t alloc_events = 0;  // times a slot's scratch had to grow
    std::int64_t star_solves = 0;   // dispatch-star kernel solves (= solves)
    // Always 0 (the star kernel is DSS-LC's only solve path); kept only so
    // TangoBench's per-layer schema (flow.warm_solves / memo_hits /
    // cold_solves) holds.
    std::int64_t warm_solves = 0;
    std::int64_t memo_hits = 0;
    std::int64_t cold_solves = 0;
  };
  SolverPoolStats solver_pool_stats() const;

  /// Live per-node commitment entries, CPU and memory counted separately
  /// (bounded by the epsilon decay eviction; exposed for tests).
  std::size_t committed_entries() const;

  /// Per-scheduler metric registry: "sched.rounds"/"sched.assigned"/
  /// "sched.overflow" counters plus, when DssLcConfig::profile_phases is
  /// set, the "sched.phase.*_us" wall-clock histograms of each round phase.
  scope::MetricRegistry& metrics() { return metrics_; }
  const scope::MetricRegistry& metrics() const { return metrics_; }

 private:
  struct WorkerCap {
    NodeId node;
    std::int64_t capacity;        // |t_i^k| for available resources
    std::int64_t total_capacity;  // with total resources; set for Ĝ'_k only
    std::int64_t cost;            // one-way delay µs
  };

  /// One usable worker as the whole round sees it, built once per round by
  /// the liveness filter; each type's WorkerCap is plain arithmetic on it.
  struct RoundNode {
    NodeId node;
    Millicores cpu_for_lc = 0;  // Eq. 2 LC view minus commitments, >= 0
    MiB mem_for_lc = 0;
    Millicores cpu_total = 0;
    MiB mem_total = 0;
    SimDuration half_rtt = 0;  // one-way delay to the node's cluster
    int queued = 0;
    bool has_committed_cpu = false;
    double committed_cpu = 0.0;
  };

  /// What the dispatcher committed to one node since the last sync. A flag
  /// cleared by decay reads exactly like an entry erased from a map: its
  /// value is reset to 0.0, so re-committing starts from 0.0 + amount.
  struct Commitment {
    double cpu = 0.0;
    double mem = 0.0;
    bool has_cpu = false;
    bool has_mem = false;
  };

  /// Per-node resource commitments one scheduled type adds, merged into
  /// committed_ after the fan-out joins.
  struct NodeCommit {
    NodeId node;
    double cpu;
    double mem;
  };

  /// Everything one type's G_k solve produced; merged in service-id order
  /// so the output is independent of worker interleaving.
  struct TypeOutcome {
    std::vector<k8s::Assignment> assignments;
    std::vector<NodeCommit> commits;
    double lambda = 0.0;
    bool overloaded = false;
    std::int64_t overflow = 0;
  };

  /// One pool slot's reusable solver storage: the type's worker view, its
  /// per-worker assignment counts, the ρ-ordered request list, the chain
  /// array Route fills and the kernel scratch. Only the slot's own thread
  /// touches it; every buffer is sized at round start (to the round view,
  /// or to the largest type for `ordered`).
  struct RouteScratch {
    std::vector<WorkerCap> workers;
    std::vector<std::int64_t> assigned;
    std::vector<const k8s::PendingRequest*> ordered;
    std::vector<flow::StarChain> chains;
    flow::StarScratch star;
  };

  /// Solve one type's graph(s) against the round view using the claiming
  /// slot's scratch, overwriting `outcome` (whose buffers the round
  /// pre-sized). Pure w.r.t. scheduler state except for `scratch`,
  /// `outcome` and the atomic solve counter.
  void ScheduleType(ServiceId svc,
                    const std::vector<const k8s::PendingRequest*>& reqs,
                    std::uint64_t round, RouteScratch& scratch,
                    TypeOutcome& outcome);

  /// Fill `scratch.workers` with one type's worker view (Eq. 2 capacities
  /// and edge costs; total capacities left 0) from round_view_; returns
  /// Σ capacity.
  std::int64_t BuildWorkerView(const workload::ServiceSpec& svc,
                               RouteScratch& scratch) const;

  /// Route `amount` requests across scratch.workers via the dispatch-star
  /// kernel; returns per-worker counts aligned with them, valid until
  /// `scratch` is reused. Adds the chain-fill time to `build_us` when
  /// profiling.
  std::span<const std::int64_t> Route(RouteScratch& scratch,
                                      std::int64_t amount, bool use_total,
                                      double lambda, double& build_us);

  const workload::ServiceCatalog* catalog_;
  DssLcConfig cfg_;
  /// Created when cfg_.num_threads != 1; absent in serial mode.
  std::unique_ptr<ThreadPool> pool_;
  /// One scratch per pool slot (index = ParallelFor worker slot).
  std::vector<RouteScratch> slot_scratch_;
  /// This round's usable workers in NodeId order; read-only during the
  /// fan-out, rebuilt (capacity kept) every round.
  std::vector<RoundNode> round_view_;
  /// This round's queue grouped by type (Alg. 2's R_k), in reused
  /// buffers: by_type_[service id] holds that type's requests in queue
  /// order, types_ the present types in ascending id order. outcomes_
  /// never shrinks, so each entry keeps its buffers' capacity.
  std::vector<std::vector<const k8s::PendingRequest*>> by_type_;
  std::vector<ServiceId> types_;
  std::vector<TypeOutcome> outcomes_;
  /// Capacity growths of every buffer a round reuses (the round view, the
  /// grouping and outcome buffers, each slot's scratch).
  std::int64_t scratch_alloc_events_ = 0;
  std::atomic<std::int64_t> solves_{0};  // Route calls (pool threads write)
  double decision_seconds_ = 0.0;
  std::int64_t decisions_ = 0;
  double last_lambda_ = 0.0;
  std::int64_t overflow_routed_ = 0;
  k8s::LcRoundStats last_round_;
  k8s::LcRoundStats total_round_;
  /// CPU/memory the dispatcher has committed per node since the last
  /// state-storage refresh (decays with the sync period), indexed by
  /// NodeId::value: without it, every dispatch round between refreshes
  /// re-routes onto the same stale capacity. Entries decayed below an
  /// epsilon are cleared; committed_live_ lists the slots with a live
  /// entry, so the decay pass costs the recently-used nodes, not every id.
  std::vector<Commitment> committed_;
  std::vector<std::int32_t> committed_live_;
  SimTime last_decay_ = 0;

  /// TangoScope metrics (registered once in the constructor; pointers are
  /// stable for the registry's lifetime). Histogram::Observe is a relaxed
  /// atomic add, so the pool threads write h_graph_build_/h_solve_ without
  /// extra synchronisation.
  scope::MetricRegistry metrics_;
  scope::Counter* m_rounds_ = nullptr;
  scope::Counter* m_assigned_ = nullptr;
  scope::Counter* m_overflow_ = nullptr;
  scope::Histogram* h_round_ = nullptr;
  scope::Histogram* h_snapshot_ = nullptr;
  scope::Histogram* h_graph_build_ = nullptr;
  scope::Histogram* h_solve_ = nullptr;
  scope::Histogram* h_merge_ = nullptr;
  scope::Histogram* h_commit_ = nullptr;
};

}  // namespace tango::sched
