#include "sched/dss_lc.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "common/logging.h"
#include "common/vet.h"
#include "scope/scope.h"

namespace tango::sched {

using k8s::Assignment;
using k8s::PendingRequest;

namespace {

/// Commitments decayed below this are dropped from the per-node maps so
/// they stay bounded by the active node set, not every node ever seen.
constexpr double kCommitEpsilon = 1e-6;

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Independent per-(type, round) RNG stream: the Rng constructor splitmixes
/// the seed, so a distinct linear combination per stream is sufficient.
std::uint64_t TypeStreamSeed(std::uint64_t seed, ServiceId svc,
                             std::uint64_t round) {
  return seed + 0x9E3779B97F4A7C15ULL *
                    (static_cast<std::uint64_t>(svc.value) + 1) +
         0x94D049BB133111EBULL * (round + 1);
}

}  // namespace

const char* SplitPolicyName(SplitPolicy p) {
  switch (p) {
    case SplitPolicy::kRandom:
      return "random";
    case SplitPolicy::kFifo:
      return "fifo";
  }
  return "?";
}

DssLcScheduler::DssLcScheduler(const workload::ServiceCatalog* catalog,
                               DssLcConfig cfg)
    : catalog_(catalog), cfg_(cfg) {
  TANGO_CHECK(catalog_ != nullptr, "catalog required");
  if (cfg_.num_threads != 1) {
    pool_ = std::make_unique<ThreadPool>(
        cfg_.num_threads == 0 ? 0 : cfg_.num_threads - 1);
  }
  slot_scratch_.resize(static_cast<std::size_t>(concurrency()));
  m_rounds_ = &metrics_.GetCounter("sched.rounds");
  m_assigned_ = &metrics_.GetCounter("sched.assigned");
  m_overflow_ = &metrics_.GetCounter("sched.overflow");
  h_round_ = &metrics_.GetHistogram("sched.round_us");
  h_snapshot_ = &metrics_.GetHistogram("sched.phase.snapshot_us");
  h_graph_build_ = &metrics_.GetHistogram("sched.phase.graph_build_us");
  h_solve_ = &metrics_.GetHistogram("sched.phase.mcmf_solve_us");
  h_merge_ = &metrics_.GetHistogram("sched.phase.merge_us");
  h_commit_ = &metrics_.GetHistogram("sched.phase.commit_us");
}

TANGO_HOT std::int64_t DssLcScheduler::BuildWorkerView(
    const workload::ServiceSpec& svc, RouteScratch& scratch) const {
  const Millicores cpu_demand = std::max<Millicores>(1, svc.cpu_demand);
  const MiB mem_demand = std::max<MiB>(1, svc.mem_demand);
  const auto commit_per_request = static_cast<double>(svc.cpu_demand);
  const auto proc = static_cast<double>(svc.base_proc);
  std::int64_t total_capacity = 0;
  for (std::size_t i = 0; i < round_view_.size(); ++i) {
    const RoundNode& v = round_view_[i];
    // Eq. 2 over the §4.1-regulated LC view (idle + BE-preemptible),
    // minus what this dispatcher already committed since the last sync.
    const std::int64_t cap = std::min(v.cpu_for_lc / cpu_demand,
                                      v.mem_for_lc / mem_demand);
    // Edge cost = transmission delay + estimated queueing delay (queued
    // work observed at the node, plus our own not-yet-visible
    // commitments) — the "routing and queuing delays" the paper's
    // objective integrates. Without the queue term the overflow graph
    // keeps feeding saturated nodes proportional to their total size.
    const double queued_estimate =
        static_cast<double>(v.queued) +
        (v.has_committed_cpu ? v.committed_cpu / commit_per_request : 0.0);
    const auto queue_cost =
        static_cast<std::int64_t>(queued_estimate * proc);
    // total_capacity is only read by the overflow graph; ScheduleType
    // fills it when a type overloads.
    scratch.workers[i] = {v.node, cap, 0, v.half_rtt + queue_cost};
    total_capacity += cap;
  }
  return total_capacity;
}

TANGO_HOT std::span<const std::int64_t> DssLcScheduler::Route(
    RouteScratch& scratch, std::int64_t amount, bool use_total,
    double lambda, double& build_us) {
  std::chrono::steady_clock::time_point t_build;
  // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing state)
  if (cfg_.profile_phases) t_build = std::chrono::steady_clock::now();
  // One chain per worker: master → worker transmission (cost = delay,
  // cap = c_ij) then worker → sink processing capacity (Eq. 5), so the
  // chain carries at most min(c_ij, t_i^k).
  scratch.chains.clear();
  for (const WorkerCap& w : scratch.workers) {
    std::int64_t cap = w.capacity;
    if (use_total) {
      cap = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(w.total_capacity) * lambda));
    }
    cap = std::max<std::int64_t>(0, cap);
    // TANGOVET_ALLOW_NEXT(amortized: chain array pre-grown at round start)
    scratch.chains.push_back({w.cost, std::min(cap, cfg_.edge_capacity)});
  }
  std::chrono::steady_clock::time_point t_solve;
  if (cfg_.profile_phases) {
    // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing)
    t_solve = std::chrono::steady_clock::now();
    build_us += ElapsedUs(t_build, t_solve);
  }
  const auto counts =
      flow::SolveDispatchStar(scratch.chains, amount, scratch.star);
  if (cfg_.profile_phases) {
    h_solve_->Observe(static_cast<std::int64_t>(
        // TANGOVET_ALLOW_NEXT(profiling: timing never feeds routing)
        ElapsedUs(t_solve, std::chrono::steady_clock::now())));
  }
  solves_.fetch_add(1, std::memory_order_relaxed);
  return counts;
}

void DssLcScheduler::ScheduleType(
    ServiceId svc_id, const std::vector<const PendingRequest*>& requests,
    std::uint64_t round, RouteScratch& scratch, TypeOutcome& outcome) {
  outcome.assignments.clear();
  outcome.commits.clear();
  outcome.lambda = 0.0;
  outcome.overloaded = false;
  outcome.overflow = 0;
  if (round_view_.empty()) return;
  const auto& svc = catalog_->Get(svc_id);

  // The worker capacity view (Eq. 2 / Eq. 7) against the round-start
  // state: commitments made by sibling types this round are intentionally
  // invisible (the determinism contract — see the header).
  std::chrono::steady_clock::time_point t_build;
  // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing state)
  if (cfg_.profile_phases) t_build = std::chrono::steady_clock::now();
  const std::int64_t total_capacity = BuildWorkerView(svc, scratch);
  double build_us = 0.0;
  if (cfg_.profile_phases) {
    // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing)
    build_us = ElapsedUs(t_build, std::chrono::steady_clock::now());
  }
  const std::vector<WorkerCap>& workers = scratch.workers;

  const auto pending = static_cast<std::int64_t>(requests.size());

  // Order requests by the split policy ρ(·) on this type's own RNG stream.
  std::vector<const PendingRequest*>& ordered = scratch.ordered;
  ordered = requests;
  switch (cfg_.split_policy) {
    case SplitPolicy::kRandom: {
      Rng rng(TypeStreamSeed(cfg_.seed, svc_id, round));
      for (std::size_t i = ordered.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(ordered[i - 1], ordered[j]);
      }
      break;
    }
    case SplitPolicy::kFifo:
      std::stable_sort(ordered.begin(), ordered.end(),
                       [](const PendingRequest* a, const PendingRequest* b) {
                         return a->request.arrival < b->request.arrival;
                       });
      break;
  }

  // Per-worker commitment totals, turned into NodeCommits after assigning.
  std::vector<std::int64_t>& assigned_per_worker = scratch.assigned;
  std::fill(assigned_per_worker.begin(), assigned_per_worker.end(), 0);
  auto assign_counts = [&](std::span<const std::int64_t> counts,
                           std::size_t first_request,
                           std::size_t n_requests) {
    std::size_t cursor = first_request;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      for (std::int64_t c = 0; c < counts[i]; ++c) {
        if (cursor >= first_request + n_requests) return;
        outcome.assignments.push_back(
            {ordered[cursor]->request.id, workers[i].node});
        assigned_per_worker[i] += 1;
        ++cursor;
      }
    }
  };

  if (pending <= total_capacity) {
    // Case 1: capacity suffices — one graph G_k.
    const auto counts =
        Route(scratch, pending, /*use_total=*/false, 0.0, build_us);
    assign_counts(counts, 0, static_cast<std::size_t>(pending));
  } else {
    // Case 2: overload — split into R_k (immediate) and R'_k (queued).
    const std::int64_t immediate = total_capacity;
    const std::int64_t overflow = pending - immediate;
    if (immediate > 0) {
      const auto counts =
          Route(scratch, immediate, /*use_total=*/false, 0.0, build_us);
      assign_counts(counts, 0, static_cast<std::size_t>(immediate));
    }
    // λ scales total-resource capacities so Ĝ'_k fits exactly R'_k (Eq. 8).
    // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing state)
    if (cfg_.profile_phases) t_build = std::chrono::steady_clock::now();
    const Millicores cpu_demand = std::max<Millicores>(1, svc.cpu_demand);
    const MiB mem_demand = std::max<MiB>(1, svc.mem_demand);
    std::int64_t total_res_capacity = 0;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const RoundNode& v = round_view_[i];
      scratch.workers[i].total_capacity = std::max<std::int64_t>(
          0, std::min(v.cpu_total / cpu_demand, v.mem_total / mem_demand));
      total_res_capacity += scratch.workers[i].total_capacity;
    }
    if (cfg_.profile_phases) {
      // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds routing)
      build_us += ElapsedUs(t_build, std::chrono::steady_clock::now());
    }
    if (total_res_capacity > 0 && overflow > 0) {
      outcome.lambda = static_cast<double>(overflow) /
                       static_cast<double>(total_res_capacity);
      outcome.overloaded = true;
      const auto counts = Route(scratch, overflow, /*use_total=*/true,
                                outcome.lambda, build_us);
      assign_counts(counts, static_cast<std::size_t>(immediate),
                    static_cast<std::size_t>(overflow));
      for (const auto c : counts) outcome.overflow += c;
    }
  }

  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (assigned_per_worker[i] == 0) continue;
    const double n = static_cast<double>(assigned_per_worker[i]);
    outcome.commits.push_back(
        {workers[i].node, n * static_cast<double>(svc.cpu_demand),
         n * static_cast<double>(svc.mem_demand)});
  }
  if (cfg_.profile_phases) {
    h_graph_build_->Observe(static_cast<std::int64_t>(build_us));
  }
}

std::vector<Assignment> DssLcScheduler::Schedule(
    ClusterId /*cluster*/, const std::vector<PendingRequest>& queue,
    const metrics::StateStorage& storage, SimTime now) {
  // TANGOVET_ALLOW_NEXT(profiling: decision-latency telemetry only)
  const auto t0 = std::chrono::steady_clock::now();
  const scope::SpanId round_span = scope::BeginSpan(
      "dsslc.round", "sched", now,
      {.value = static_cast<std::int64_t>(queue.size())});
  std::vector<Assignment> out;

  // Decay local commitments (half-life 125 ms ≈ typical service time), so
  // they only bridge the staleness window of the state storage; entries
  // decayed to ~zero are erased to keep the maps bounded.
  if (now > last_decay_) {
    const double factor =
        std::pow(0.5, static_cast<double>(now - last_decay_) /
                          static_cast<double>(125 * kMillisecond));
    const auto decay = [factor](double& value, bool& live) {
      if (!live) return;
      value *= factor;
      if (value < kCommitEpsilon) {
        value = 0.0;
        live = false;
      }
    };
    std::size_t kept = 0;
    for (const std::int32_t slot : committed_live_) {
      Commitment& c = committed_[static_cast<std::size_t>(slot)];
      decay(c.cpu, c.has_cpu);
      decay(c.mem, c.has_mem);
      if (c.has_cpu || c.has_mem) committed_live_[kept++] = slot;
    }
    committed_live_.resize(kept);
    last_decay_ = now;
  }

  // Group queued requests by type k ∈ K (Alg. 2 handles each in parallel)
  // into per-service-id lists: types_ comes out in the ascending service-id
  // order the merge below relies on and each list keeps queue order. Every
  // buffer is reused; growth is summed into scratch_alloc_events_.
  const auto buffer_capacity = [this]() {
    std::size_t sum = round_view_.capacity() + by_type_.capacity() +
                      types_.capacity() + outcomes_.capacity();
    for (const auto& requests : by_type_) sum += requests.capacity();
    for (const auto& o : outcomes_) {
      sum += o.assignments.capacity() + o.commits.capacity();
    }
    return sum;
  };
  const std::size_t capacity_before = buffer_capacity();
  for (auto& requests : by_type_) requests.clear();
  for (const auto& p : queue) {
    TANGO_CHECK(p.request.service.valid(), "queued request %d has no type",
                p.request.id.value);
    const auto id = static_cast<std::size_t>(p.request.service.value);
    if (id >= by_type_.size()) by_type_.resize(id + 1);
    by_type_[id].push_back(&p);
  }
  types_.clear();
  std::size_t largest_type = 0;
  for (std::size_t id = 0; id < by_type_.size(); ++id) {
    if (by_type_[id].empty()) continue;
    types_.push_back(ServiceId{static_cast<std::int32_t>(id)});
    largest_type = std::max(largest_type, by_type_[id].size());
  }

  // Workers the fault plane took out (crashed, draining, or behind a cut
  // link) are excluded up front — dispatching to them would strand the
  // request until the failure detector re-queues it. The survivors form
  // the round view every type reads: snapshots arrive in NodeId order, so
  // a cluster's RTT is looked up once per run of its nodes.
  k8s::LcRoundStats round;
  round.at = now;
  round_view_.clear();
  ClusterId rtt_cluster;
  SimDuration half_rtt = 0;
  std::int32_t max_node = -1;
  storage.ForEach([&](const metrics::NodeSnapshot& s) {
    if (s.is_master) return;
    round.considered += 1;
    if (!s.alive || s.draining) {
      round.excluded_dead += 1;
      return;
    }
    if (!s.reachable) {
      round.excluded_unreachable += 1;
      return;
    }
    if (round_view_.empty() || s.cluster != rtt_cluster) {
      rtt_cluster = s.cluster;
      half_rtt = storage.Rtt(s.cluster).value_or(kMillisecond) / 2;
    }
    TANGO_CHECK(s.node.value >= 0, "worker snapshot without a NodeId");
    RoundNode v;
    v.node = s.node;
    Millicores cpu_for_lc = s.CpuForLc();
    MiB mem_for_lc = s.MemForLc();
    const auto slot = static_cast<std::size_t>(s.node.value);
    if (slot < committed_.size()) {
      const Commitment& c = committed_[slot];
      if (c.has_cpu) cpu_for_lc -= static_cast<Millicores>(c.cpu);
      if (c.has_mem) mem_for_lc -= static_cast<MiB>(c.mem);
      v.has_committed_cpu = c.has_cpu;
      v.committed_cpu = c.cpu;
    }
    v.cpu_for_lc = std::max<Millicores>(0, cpu_for_lc);
    v.mem_for_lc = std::max<MiB>(0, mem_for_lc);
    v.cpu_total = s.cpu_total;
    v.mem_total = s.mem_total;
    v.half_rtt = half_rtt;
    v.queued = s.queued;
    round_view_.push_back(v);
    max_node = std::max(max_node, s.node.value);
  });
  // Every node a type can commit to is in the view, so growing the
  // commitment array here keeps the merge below free of bounds checks.
  if (static_cast<std::size_t>(max_node + 1) > committed_.size()) {
    committed_.resize(static_cast<std::size_t>(max_node + 1));
  }
  if (cfg_.profile_phases) {
    h_snapshot_->Observe(static_cast<std::int64_t>(
        // TANGOVET_ALLOW_NEXT(profiling: timing never feeds scheduling)
        ElapsedUs(t0, std::chrono::steady_clock::now())));
  }

  // Fan the independent per-type graphs G_k out over the pool. A type is
  // solved in whichever slot claims it, against that slot's scratch; every
  // call overwrites the scratch, so serial and parallel runs stay
  // identical. Each slot is sized here to this round's view (one worker
  // and one chain per usable worker) so no type allocates solver storage.
  const auto round_index = static_cast<std::uint64_t>(decisions_);
  const std::size_t n_view = round_view_.size();
  for (auto& slot : slot_scratch_) {
    const bool grows = n_view > slot.chains.capacity() ||
                       n_view > slot.workers.capacity() ||
                       n_view > slot.assigned.capacity() ||
                       largest_type > slot.ordered.capacity();
    slot.chains.reserve(n_view);
    slot.workers.resize(n_view);
    slot.assigned.resize(n_view);
    slot.ordered.reserve(largest_type);
    if (slot.star.Reserve(n_view) || grows) ++scratch_alloc_events_;
  }
  // Each outcome can hold at most its type's requests and one commit per
  // usable worker; sizing them here keeps the fan-out allocation-free.
  if (outcomes_.size() < types_.size()) outcomes_.resize(types_.size());
  for (std::size_t i = 0; i < types_.size(); ++i) {
    outcomes_[i].assignments.reserve(
        by_type_[static_cast<std::size_t>(types_[i].value)].size());
    outcomes_[i].commits.reserve(n_view);
  }
  if (buffer_capacity() != capacity_before) ++scratch_alloc_events_;
  const std::span<const TypeOutcome> outcomes(outcomes_.data(),
                                              types_.size());
  const auto run_type = [&](std::size_t i, int worker_slot) {
    const ServiceId svc = types_[i];
    ScheduleType(svc, by_type_[static_cast<std::size_t>(svc.value)],
                 round_index,
                 slot_scratch_[static_cast<std::size_t>(worker_slot)],
                 outcomes_[i]);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(types_.size(), run_type);
  } else {
    for (std::size_t i = 0; i < types_.size(); ++i) run_type(i, 0);
  }

  // Merge in ascending service-id order: assignment order, commitment
  // application, λ, and overflow accounting all match serial execution.
  // The two sweeps (assignment merge, then commitment application) are
  // separate so each can be profiled as its own phase; commitment adds are
  // commutative per node, so the split does not change the result.
  // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds scheduling)
  const auto t_merge = std::chrono::steady_clock::now();
  std::int64_t round_overflow = 0;
  for (const auto& outcome : outcomes) {
    out.insert(out.end(), outcome.assignments.begin(),
               outcome.assignments.end());
    if (outcome.overloaded) last_lambda_ = outcome.lambda;
    round_overflow += outcome.overflow;
  }
  overflow_routed_ += round_overflow;
  // TANGOVET_ALLOW_NEXT(profiling: phase timing never feeds scheduling)
  const auto t_commit = std::chrono::steady_clock::now();
  for (const auto& outcome : outcomes) {
    for (const auto& c : outcome.commits) {
      Commitment& entry = committed_[static_cast<std::size_t>(c.node.value)];
      if (!entry.has_cpu && !entry.has_mem) {
        committed_live_.push_back(c.node.value);
      }
      entry.cpu += c.cpu;
      entry.mem += c.mem;
      entry.has_cpu = true;
      entry.has_mem = true;
    }
  }
  if (cfg_.profile_phases) {
    h_merge_->Observe(
        static_cast<std::int64_t>(ElapsedUs(t_merge, t_commit)));
    h_commit_->Observe(static_cast<std::int64_t>(
        // TANGOVET_ALLOW_NEXT(profiling: timing never feeds scheduling)
        ElapsedUs(t_commit, std::chrono::steady_clock::now())));
  }
  if (round_overflow > 0) {
    TANGO_SCOPE_INSTANT("dsslc.overflow", "sched", now,
                        .value = round_overflow);
  }

  if constexpr (audit::kEnabled) {
    // Post-merge sweep (§5.2 / §4.1): every assignment lands on a node that
    // survived the liveness filter, and no request is dispatched twice.
    std::unordered_set<std::int32_t> usable;
    usable.reserve(round_view_.size());
    for (const auto& v : round_view_) usable.insert(v.node.value);
    std::unordered_set<std::int32_t> assigned;
    assigned.reserve(out.size());
    for (const auto& a : out) {
      audit::checks::CheckLcTargetUsable(now, a.target.value,
                                         usable.count(a.target.value) != 0);
      audit::checks::CheckUniqueAssignment(
          now, a.request.value, !assigned.insert(a.request.value).second);
    }
    AUDIT_CHECK(out.size() <= queue.size(), .subsystem = "sched",
                .invariant = "sched.assignment_count", .sim_time = now,
                .detail = audit::Detail("%zu assignments from a queue of "
                                        "%zu",
                                        out.size(), queue.size()));
  }
  round.assigned = static_cast<int>(out.size());
  round.left_queued = static_cast<int>(queue.size()) - round.assigned;
  last_round_ = round;
  total_round_.at = now;
  total_round_.considered += round.considered;
  total_round_.excluded_dead += round.excluded_dead;
  total_round_.excluded_unreachable += round.excluded_unreachable;
  total_round_.assigned += round.assigned;
  total_round_.left_queued += round.left_queued;

  // TANGOVET_ALLOW_NEXT(profiling: decision-latency telemetry only)
  const auto t1 = std::chrono::steady_clock::now();
  decision_seconds_ +=
      std::chrono::duration<double>(t1 - t0).count();
  ++decisions_;
  m_rounds_->Add();
  m_assigned_->Add(static_cast<std::int64_t>(out.size()));
  m_overflow_->Add(round_overflow);
  h_round_->Observe(static_cast<std::int64_t>(ElapsedUs(t0, t1)));
  scope::EndSpan(round_span, now);
  return out;
}

std::size_t DssLcScheduler::committed_entries() const {
  std::size_t live = 0;
  for (const std::int32_t slot : committed_live_) {
    const Commitment& c = committed_[static_cast<std::size_t>(slot)];
    live += static_cast<std::size_t>(c.has_cpu) +
            static_cast<std::size_t>(c.has_mem);
  }
  return live;
}

DssLcScheduler::SolverPoolStats DssLcScheduler::solver_pool_stats() const {
  SolverPoolStats stats;
  stats.solvers = static_cast<int>(slot_scratch_.size());
  stats.solves = solves_.load(std::memory_order_relaxed);
  stats.alloc_events = scratch_alloc_events_;
  stats.star_solves = stats.solves;
  return stats;
}

}  // namespace tango::sched
