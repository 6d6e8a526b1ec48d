#include "sched/be_baselines.h"

#include <limits>

namespace tango::sched {

std::optional<NodeId> KubeNativeBeScheduler::ScheduleOne(
    const k8s::PendingRequest& pending, const metrics::StateStorage& storage,
    SimTime /*now*/) {
  (void)pending;
  std::vector<NodeId> workers;
  storage.ForEach([&workers](const metrics::NodeSnapshot& s) {
    if (!s.is_master) workers.push_back(s.node);
  });
  if (workers.empty()) return std::nullopt;
  const NodeId pick = workers[cursor_ % workers.size()];
  ++cursor_;
  return pick;
}

std::optional<NodeId> LoadGreedyBeScheduler::ScheduleOne(
    const k8s::PendingRequest& pending, const metrics::StateStorage& storage,
    SimTime /*now*/) {
  const auto& svc = catalog_->Get(pending.request.service);
  const metrics::NodeSnapshot* best = nullptr;
  double best_frac = -1.0;
  storage.ForEach([&](const metrics::NodeSnapshot& s) {
    if (s.is_master) return;
    if (s.cpu_available < svc.cpu_demand || s.mem_available < svc.mem_demand) {
      return;
    }
    const double frac =
        static_cast<double>(s.cpu_available) /
        static_cast<double>(std::max<Millicores>(1, s.cpu_total));
    if (frac > best_frac) {
      best_frac = frac;
      best = &s;
    }
  });
  // Fall back to the emptiest queue when nothing strictly fits — a BE
  // request can always wait at a node.
  if (best == nullptr) {
    int best_queue = std::numeric_limits<int>::max();
    storage.ForEach([&](const metrics::NodeSnapshot& s) {
      if (s.is_master) return;
      if (s.queued < best_queue) {
        best_queue = s.queued;
        best = &s;
      }
    });
  }
  if (best == nullptr) return std::nullopt;
  return best->node;
}

}  // namespace tango::sched
