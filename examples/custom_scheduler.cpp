// Scenario: extending Tango with your own scheduling policy.
//
// The scheduler interfaces (k8s::LcScheduler / k8s::BeScheduler) are the
// extension points the framework itself uses; this example implements a
// simple "power of two choices" LC scheduler, plugs it into the system next
// to Tango's own DCG-BE dispatcher and HRM, and compares it against DSS-LC
// on the same trace.
//
//   $ ./examples/custom_scheduler
#include <cstdio>

#include "eval/harness.h"

using namespace tango;

namespace {

/// Power-of-two-choices: sample two candidate workers, dispatch to the one
/// with more free CPU. O(1) per request and surprisingly strong — a good
/// starting point for custom policies.
class PowerOfTwoLcScheduler : public k8s::LcScheduler {
 public:
  PowerOfTwoLcScheduler(const workload::ServiceCatalog* catalog,
                        std::uint64_t seed)
      : catalog_(catalog), rng_(seed) {}

  std::vector<k8s::Assignment> Schedule(
      ClusterId /*cluster*/, const std::vector<k8s::PendingRequest>& queue,
      const metrics::StateStorage& storage, SimTime /*now*/) override {
    std::vector<const metrics::NodeSnapshot*> workers;
    storage.ForEach([&workers](const metrics::NodeSnapshot& s) {
      if (!s.is_master) workers.push_back(&s);
    });
    std::vector<k8s::Assignment> out;
    if (workers.empty()) return out;
    for (const auto& p : queue) {
      const auto& a = *workers[static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(workers.size()) - 1))];
      const auto& b = *workers[static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(workers.size()) - 1))];
      // LC view per the §4.1 regulations: idle + BE-preemptible.
      const auto& pick = a.CpuForLc() >= b.CpuForLc() ? a : b;
      out.push_back({p.request.id, pick.node});
      (void)catalog_;
    }
    return out;
  }

  std::string name() const override { return "power-of-two"; }

 private:
  const workload::ServiceCatalog* catalog_;
  Rng rng_;
};

k8s::RunSummary RunWith(k8s::LcScheduler* lc, const workload::Trace& trace,
                        const workload::ServiceCatalog& catalog) {
  k8s::SystemConfig sys;
  sys.clusters = eval::PhysicalClusters(4);
  sys.region_km = 450.0;
  sys.seed = 11;
  k8s::EdgeCloudSystem system(sys, &catalog);

  // Reuse Tango's BE dispatcher and HRM; only the LC policy is custom.
  auto be = sched::MakeDcgBe(&catalog);
  hrm::HrmAllocationPolicy hrm_policy(&catalog);
  hrm::Reassurer reassurer(&system, &hrm_policy);
  system.SetAllocationPolicy(&hrm_policy);
  system.SetLcScheduler(lc);
  system.SetBeScheduler(be.get());

  system.SubmitTrace(trace);
  system.Run(60 * kSecond);
  return system.Summary();
}

}  // namespace

int main() {
  const workload::ServiceCatalog catalog = workload::ServiceCatalog::Standard();
  workload::TraceConfig tc;
  tc.catalog = &catalog;
  tc.num_clusters = 4;
  tc.duration = 50 * kSecond;
  tc.lc_rps = 120.0;
  tc.be_rps = 20.0;
  tc.hotspot_fraction = 0.7;
  tc.seed = 77;
  const workload::Trace trace =
      workload::GeneratePattern(workload::Pattern::kP3, tc);

  std::printf("custom scheduler demo — plugging a policy into Tango\n");
  PowerOfTwoLcScheduler p2c(&catalog, 99);
  const k8s::RunSummary custom = RunWith(&p2c, trace, catalog);
  sched::DssLcScheduler dss(&catalog);
  const k8s::RunSummary reference = RunWith(&dss, trace, catalog);

  eval::PrintTable(
      "power-of-two-choices vs DSS-LC (same trace, same HRM + DCG-BE)",
      {"LC scheduler", "QoS-sat", "mean latency", "abandoned", "BE done"},
      {{"power-of-two", eval::Pct(custom.qos_satisfaction),
        eval::Fmt(custom.mean_latency_ms, 1) + " ms",
        std::to_string(custom.lc_abandoned),
        std::to_string(custom.be_completed)},
       {"DSS-LC", eval::Pct(reference.qos_satisfaction),
        eval::Fmt(reference.mean_latency_ms, 1) + " ms",
        std::to_string(reference.lc_abandoned),
        std::to_string(reference.be_completed)}});
  std::printf("\nTo write your own policy: derive from k8s::LcScheduler or "
              "k8s::BeScheduler,\nread the master's StateStorage snapshot, "
              "and return assignments.\n");
  return 0;
}
