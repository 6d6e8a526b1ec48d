#include "sched/lc_baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tango::sched {

using k8s::Assignment;
using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;

namespace {

/// Local mutable view of node headroom so one Schedule call does not pile
/// every request onto the same snapshot. `snap` points into the storage,
/// which a Schedule call only reads.
struct Headroom {
  const NodeSnapshot* snap;
  Millicores cpu;
  MiB mem;
};

std::vector<Headroom> WorkersOf(const StateStorage& storage,
                                std::optional<ClusterId> only_cluster) {
  std::vector<Headroom> out;
  storage.ForEach([&](const NodeSnapshot& s) {
    if (s.is_master) return;
    if (only_cluster.has_value() && s.cluster != *only_cluster) return;
    // LC schedulers see the §4.1-regulated LC availability (idle plus
    // BE-preemptible when the node's allocation policy allows it).
    out.push_back({&s, s.CpuForLc(), s.MemForLc()});
  });
  return out;
}

bool Fits(const Headroom& h, const workload::ServiceSpec& svc) {
  return h.cpu >= svc.cpu_demand && h.mem >= svc.mem_demand;
}

void Consume(Headroom& h, const workload::ServiceSpec& svc) {
  h.cpu -= svc.cpu_demand;
  h.mem -= svc.mem_demand;
}

}  // namespace

std::vector<Assignment> KubeNativeLcScheduler::Schedule(
    ClusterId cluster, const std::vector<PendingRequest>& queue,
    const StateStorage& storage, SimTime /*now*/) {
  // K8s default: blind round-robin over the local endpoints; no resource or
  // latency awareness. Requests are always dispatched (they may queue badly
  // at the node — that is the point of this baseline).
  std::vector<Headroom> workers = WorkersOf(storage, cluster);
  std::vector<Assignment> out;
  if (workers.empty()) return out;
  std::size_t& cursor = rr_cursor_[cluster];
  for (const auto& p : queue) {
    const auto& w = workers[cursor % workers.size()];
    ++cursor;
    out.push_back({p.request.id, w.snap->node});
  }
  return out;
}

std::vector<Assignment> LoadGreedyLcScheduler::Schedule(
    ClusterId /*cluster*/, const std::vector<PendingRequest>& queue,
    const StateStorage& storage, SimTime /*now*/) {
  // Lowest load = largest available-CPU fraction, local + nearby.
  std::vector<Headroom> workers = WorkersOf(storage, std::nullopt);
  std::vector<Assignment> out;
  if (workers.empty()) return out;
  for (const auto& p : queue) {
    const auto& svc = catalog_->Get(p.request.service);
    Headroom* best = nullptr;
    double best_frac = -1.0;
    for (auto& w : workers) {
      const double frac =
          static_cast<double>(w.cpu) /
          static_cast<double>(std::max<Millicores>(1, w.snap->cpu_total));
      if (frac > best_frac) {
        best_frac = frac;
        best = &w;
      }
    }
    if (best == nullptr) break;
    out.push_back({p.request.id, best->snap->node});
    Consume(*best, svc);
  }
  return out;
}

std::vector<Assignment> ScoringLcScheduler::Schedule(
    ClusterId /*cluster*/, const std::vector<PendingRequest>& queue,
    const StateStorage& storage, SimTime now) {
  std::vector<Headroom> workers = WorkersOf(storage, std::nullopt);
  std::vector<Assignment> out;
  if (workers.empty()) return out;
  // Decay the in-flight estimates (half-life ~200 ms) so they only bridge
  // the gap between state-storage refreshes.
  if (now > last_decay_) {
    const double factor =
        std::pow(0.5, static_cast<double>(now - last_decay_) /
                          static_cast<double>(200 * kMillisecond));
    for (auto& [node, count] : inflight_) count *= factor;
    last_decay_ = now;
  }
  // Normalize RTT by the worst observed so the latency term is in [0,1].
  SimDuration max_rtt = 1;
  for (const auto& w : workers) {
    max_rtt = std::max(max_rtt,
                       storage.Rtt(w.snap->cluster).value_or(kMillisecond));
  }
  for (const auto& p : queue) {
    const auto& svc = catalog_->Get(p.request.service);
    auto score_of = [&](const Headroom& w) {
      const double cpu_frac =
          static_cast<double>(w.cpu) /
          static_cast<double>(std::max<Millicores>(1, w.snap->cpu_total));
      const double mem_frac =
          static_cast<double>(w.mem) /
          static_cast<double>(std::max<MiB>(1, w.snap->mem_total));
      const double rtt_frac =
          static_cast<double>(
              storage.Rtt(w.snap->cluster).value_or(kMillisecond)) /
          static_cast<double>(max_rtt);
      double queue_pen = static_cast<double>(w.snap->queued) / 10.0;
      auto inflight_it = inflight_.find(w.snap->node);
      if (inflight_it != inflight_.end()) {
        queue_pen += inflight_it->second / 4.0;
      }
      return weights_.cpu * cpu_frac + weights_.mem * mem_frac -
             weights_.latency * rtt_frac - weights_.queue * queue_pen;
    };
    Headroom* best = nullptr;
    double best_score = -std::numeric_limits<double>::max();
    for (auto& w : workers) {
      if (!Fits(w, svc)) continue;
      const double score = score_of(w);
      if (score > best_score) {
        best_score = score;
        best = &w;
      }
    }
    if (best == nullptr) {
      // Nothing strictly fits: fall back to the best-scored node anyway —
      // LC requests queue there rather than aging out at the master.
      for (auto& w : workers) {
        const double score = score_of(w);
        if (score > best_score) {
          best_score = score;
          best = &w;
        }
      }
    }
    if (best == nullptr) continue;
    out.push_back({p.request.id, best->snap->node});
    Consume(*best, svc);
    inflight_[best->snap->node] += 1.0;
  }
  return out;
}

}  // namespace tango::sched
