// The state storage of Figure 3 (component ➋): each master node keeps a
// possibly-stale snapshot of nearby clusters' node states, refreshed by
// periodic Prometheus pushes and QoS-detector reports. Schedulers read the
// snapshot — they never peek at live node objects — so decision staleness is
// modeled faithfully.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace tango::metrics {

/// Snapshot of one node, as pushed by its cluster's monitoring stack.
/// Field names follow §5.2.1: r^{c}_{i,ava}, r^{c}_{i,total}, etc.
struct NodeSnapshot {
  NodeId node;
  ClusterId cluster;
  bool is_master = false;
  Millicores cpu_total = 0;
  Millicores cpu_available = 0;
  MiB mem_total = 0;
  MiB mem_available = 0;
  /// Resources available *to LC requests* under the §4.1 regulations:
  /// idle plus whatever BE currently holds of compressible CPU (and
  /// evictable memory) when the node's allocation policy preempts BE for
  /// LC. −1 means "same as the raw availability" (no preemption).
  Millicores cpu_available_lc = -1;
  MiB mem_available_lc = -1;

  Millicores CpuForLc() const {
    return cpu_available_lc >= 0 ? cpu_available_lc : cpu_available;
  }
  MiB MemForLc() const {
    return mem_available_lc >= 0 ? mem_available_lc : mem_available;
  }
  /// Requests currently queued/executing on the node, by rough class.
  int running_lc = 0;
  int running_be = 0;
  int queued = 0;
  /// Liveness as seen by the monitoring stack: a crashed node's last
  /// snapshot is kept but flagged dead; a node behind a cut link is flagged
  /// unreachable by the viewing master's failure detector. Schedulers must
  /// not route to nodes that fail `Usable()`.
  bool alive = true;
  bool reachable = true;
  bool draining = false;
  bool Usable() const { return alive && reachable && !draining; }
  /// Most recent slack score reported by the QoS detector (min over
  /// services; +1 when idle).
  double slack_score = 1.0;
  SimTime recorded_at = 0;
};

/// Content equality modulo `recorded_at` — the equivalence the delta sync
/// protocol's skip decision must preserve (version equality ⇒ content
/// equality). Used by the TANGO_AUDIT delta-identity checker.
bool SameContent(const NodeSnapshot& a, const NodeSnapshot& b);

/// Per-master view of the (geo-nearby or global) system state.
class StateStorage {
 public:
  /// Upsert a node snapshot (newer timestamps replace older ones).
  void Update(const NodeSnapshot& snap);

  const NodeSnapshot* Find(NodeId node) const;

  /// All snapshots, in NodeId order (deterministic iteration for solvers).
  std::vector<NodeSnapshot> All() const;

  /// Call `visit(const NodeSnapshot&)` on every snapshot in NodeId order —
  /// All()'s order without copying the snapshots out. The references are
  /// valid until the storage is next modified.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (const auto& [id, snap] : nodes_) visit(snap);
  }

  /// Snapshots restricted to one cluster.
  std::vector<NodeSnapshot> ForCluster(ClusterId cluster) const;

  /// Flip the reachability flag on every stored snapshot of one cluster —
  /// the viewing master's failure detector marking a partition (snapshots
  /// are preserved so the view heals instantly when the link does). The
  /// per-snapshot sweep only runs when the flag actually flips, so calling
  /// this every sync period costs O(1) in steady state.
  void MarkClusterReachability(ClusterId cluster, bool reachable);

  /// Record the measured RTT from this master's cluster to another cluster.
  void UpdateRtt(ClusterId to, SimDuration rtt) { rtt_[to] = rtt; }
  std::optional<SimDuration> Rtt(ClusterId to) const;

  std::size_t size() const { return nodes_.size(); }
  void Clear() {
    nodes_.clear();
    rtt_.clear();
    cluster_reachable_.clear();
  }

  /// Number of Update() calls that created a new entry (an allocation) —
  /// flat in steady state, when every push hits an existing node.
  std::int64_t inserts() const { return inserts_; }

 private:
  std::map<NodeId, NodeSnapshot> nodes_;
  std::map<ClusterId, SimDuration> rtt_;
  std::map<ClusterId, bool> cluster_reachable_;  // last marked flag
  std::int64_t inserts_ = 0;
};

}  // namespace tango::metrics
