// TangoBench — the end-to-end benchmark of the Tango stack.
//
//   tangobench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   tangobench --selfcheck
//
// Workloads (see README.md beside this file for why each exists):
//   hybrid_paper  Fig. 13's Tango run: 104 clusters, full stack, 45 s.
//   lc_flash      LC-only storm flash crowd on 16×16 workers (spare).
//   lc_overload   the same arrivals on 16×4 workers (hotspots saturate).
//   shard_100k    ShardEngine, 128×800 workers, 4 shards, 30 s.
//
// --trace 0 repeats the workload (fresh set-up each time) until --seconds
// of wall time are spent and reports medians of the end-to-end metrics.
// --trace 1 runs the workload once untraced and once with timing
// decorators around the public plug-in interfaces (LcScheduler,
// BeScheduler, rl::Agent, AllocationPolicy, Reassurer::Tick) and reports
// the per-layer metrics. Every run checks request conservation against
// the generated inputs and determinism (repetitions, traced vs untraced,
// 4 shards vs 1); a failed check prints "correct": false and exits 1.
// The last stdout line is the JSON result; everything before it is the
// human-readable report (provenance, digest, attribution table).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/scenarios.h"
#include "hrm/reassurance.h"
#include "hrm/regulations.h"
#include "sched/dss_lc.h"
#include "sched/learned_be.h"
#include "shard/engine.h"
#include "storm/scenario.h"
#include "storm/source.h"
#include "tango/framework.h"

namespace {

using namespace tango;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank percentile of raw samples (0 when empty).
double Quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) -
                               1]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void Add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  void Add(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(int v) { Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
};

// ---- Correctness bookkeeping ----------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

// ---- Seeded violations (self-check only) ----------------------------------

/// Each value plants one defect the correctness gate must catch.
enum class Violation {
  kNone,
  kDropAssignment,   // traced LC wrapper drops one assignment
  kLoseRequest,      // one generated request never reaches the system
  kRepDiverges,      // a repetition runs with another system seed
  kShardDiverges,    // the 1-shard reference runs another seed
  kShardLosesCount,  // the shard run is checked against one request more
};

// ---- Workloads -------------------------------------------------------------

enum class Kind { kHybridPaper, kLcFlash, kLcOverload, kShard100k };

struct WorkloadDef {
  const char* name;
  Kind kind;
};

constexpr WorkloadDef kWorkloads[] = {
    {"hybrid_paper", Kind::kHybridPaper},
    {"lc_flash", Kind::kLcFlash},
    {"lc_overload", Kind::kLcOverload},
    {"shard_100k", Kind::kShard100k},
};

/// Arrival window and post-arrival drain of a workload. The self-check
/// shrinks both; the benchmark always uses FullSizing().
struct Sizing {
  SimDuration arrivals = 0;
  SimDuration drain = 0;
};

Sizing FullSizing(Kind kind) {
  switch (kind) {
    case Kind::kHybridPaper:
      return {30 * kSecond, 15 * kSecond};
    case Kind::kLcFlash:
    case Kind::kLcOverload:
      return {10 * kSecond, 0};
    case Kind::kShard100k:
      return {30 * kSecond, 0};
  }
  return {};
}

const workload::ServiceCatalog& HybridCatalog() {
  // Fig. 13's catalog: the batch jobs at this scale are CPU-bound, so a
  // quarter of the standard BE memory footprint (bench/fig13_sota.cpp).
  static const workload::ServiceCatalog cat = [] {
    auto specs = workload::ServiceCatalog::Standard().all();
    for (auto& svc : specs) {
      if (!svc.is_lc()) svc.mem_demand = std::max<MiB>(64, svc.mem_demand / 4);
    }
    return workload::ServiceCatalog(std::move(specs));
  }();
  return cat;
}

/// Everything a k8s workload hands the program: the layout, the generated
/// trace and the framework options. Produced from the seed alone.
struct K8sInputs {
  const workload::ServiceCatalog* catalog = nullptr;
  k8s::SystemConfig system;
  workload::Trace trace;
  framework::FrameworkOptions opts;
  SimTime horizon = 0;
};

K8sInputs GenerateK8s(Kind kind, std::uint64_t seed, const Sizing& size) {
  K8sInputs in;
  in.system.seed = 9;
  in.horizon = size.arrivals + size.drain;
  if (kind == Kind::kHybridPaper) {
    in.catalog = &HybridCatalog();
    // Fig. 13's dual-space layout: 4 physical clusters plus 100 virtual
    // ones of 3-8 workers with 2-6 cores (fixed layout seed 88).
    in.system.clusters = eval::PhysicalClusters(4);
    Rng rng(88);
    for (int i = 0; i < 100; ++i) {
      k8s::ClusterSpec spec;
      spec.num_workers = static_cast<int>(rng.UniformInt(3, 8));
      spec.heterogeneous = true;
      spec.min_cpu = 2 * kCore;
      spec.max_cpu = 6 * kCore;
      spec.min_mem = 4 * 1024;
      spec.max_mem = 12 * 1024;
      in.system.clusters.push_back(spec);
    }
    workload::TraceConfig tc;
    tc.catalog = in.catalog;
    tc.num_clusters = 104;
    tc.duration = size.arrivals;
    tc.lc_rps = 16.0;
    tc.be_rps = 1.1;
    tc.seed = seed;
    tc.hotspot_fraction = 0.85;
    tc.num_hotspots = 2;
    in.trace = workload::GenerateGoogleStyle(tc);
    for (auto& r : in.trace) {
      if (!in.catalog->Get(r.service).is_lc()) r.work_scale *= 60.0;
    }
    in.opts.be.granularity = sched::BeGranularity::kCluster;
    return in;
  }
  // lc_flash / lc_overload: one LC-only flash-crowd stream, two layouts.
  in.catalog = &bench::Catalog();
  const int workers = kind == Kind::kLcFlash ? 16 : 4;
  for (int c = 0; c < 16; ++c) {
    k8s::ClusterSpec spec;
    spec.num_workers = workers;
    in.system.clusters.push_back(spec);
  }
  in.system.region_km = 450.0;  // every master sees every worker
  storm::ScenarioConfig sc =
      eval::DefaultScenarioConfig(*in.catalog, 16, size.arrivals, seed);
  sc.rps_per_cluster = 450.0;
  sc.lc_fraction = 1.0;
  sc.spike_mult = 4.0;
  sc.spike_clusters = 4;
  workload::Trace lc;
  storm::Drain(*storm::BuildScenario(storm::ScenarioKind::kFlashCrowd, sc),
               &lc);
  // φ′ (be_completed) must be defined on every workload, but a steady BE
  // stream would make DCG-BE's online training the dominant cost here. So
  // a small fixed batch — 8 BE jobs per cluster in the first 80 ms, before
  // the spike — with seeded service picks; DCG-BE runs at cluster
  // granularity as in hybrid_paper.
  workload::Trace be;
  Rng pick(storm::DeriveStreamSeed(seed, -1, 0xbe));
  const auto be_services = in.catalog->BeServices();
  for (int k = 0; k < 8; ++k) {
    for (int c = 0; c < 16; ++c) {
      workload::Request r;
      r.service = be_services[static_cast<std::size_t>(pick.UniformInt(
          0, static_cast<std::int64_t>(be_services.size()) - 1))];
      r.origin = ClusterId{c};
      r.arrival = k * 10 * kMillisecond + c * 100;
      be.push_back(r);
    }
  }
  in.trace = workload::MergeTraces({std::move(lc), std::move(be)});
  in.opts.be.granularity = sched::BeGranularity::kCluster;
  return in;
}

// ---- Results ---------------------------------------------------------------

/// The simulated end-to-end metrics of one run (deterministic per seed).
struct SimOutputs {
  double lc_qos_rate = 0.0;
  double lc_p95_ms = 0.0;
  double be_completed = 0.0;
  double mean_util = 0.0;
  double req_fail_rate = 0.0;
  std::uint64_t digest = 0;
};

/// Host timings of one repetition.
struct RepTiming {
  double trace_s = 0.0;
  double build_s = 0.0;
  double install_s = 0.0;
  double submit_s = 0.0;
  double run_s = 0.0;
  /// Wall time of each kSlice of simulated time (k8s workloads only).
  std::vector<double> slice_s;
  double setup_s() const { return trace_s + build_s + install_s + submit_s; }
};

struct Rep {
  RepTiming t;
  SimOutputs out;
};

// ---- k8s runs: outputs, digest, conservation -------------------------------

SimOutputs CollectK8s(const k8s::EdgeCloudSystem& system) {
  const k8s::RunSummary s = system.Summary();
  SimOutputs o;
  o.lc_qos_rate = s.qos_satisfaction;
  o.lc_p95_ms = s.p95_latency_ms;
  o.be_completed = s.be_throughput;
  o.mean_util = s.mean_util;
  const int arrived = s.lc_total + s.be_total;
  const int failed = arrived - s.lc_completed - s.be_completed;
  o.req_fail_rate = Ratio(failed, arrived);
  Fnv f;
  for (const auto& rec : system.records()) {
    f.Add(rec.request.id.value);
    f.Add(static_cast<int>(rec.outcome));
    f.Add(rec.target.value);
    f.Add(rec.dispatched);
    f.Add(rec.completed);
    f.Add(rec.latency);
    f.Add(static_cast<int>(rec.qos_met));
    f.Add(rec.reschedules);
    f.Add(rec.fault_reroutes);
  }
  for (const auto& p : system.periods()) {
    f.Add(p.period_start);
    f.Add(p.util_total);
    f.Add(p.util_lc);
    f.Add(p.util_be);
    f.Add(p.lc_arrived);
    f.Add(p.lc_qos_met);
    f.Add(p.be_completed);
  }
  o.digest = f.h;
  return o;
}

std::int64_t CounterValue(const k8s::EdgeCloudSystem& system,
                          const char* name) {
  for (const auto& row : system.metrics_registry().Snapshot()) {
    if (row.name == name) return row.count;
  }
  return -1;
}

/// Request conservation: every generated request is in the system's
/// records exactly as generated, every arrival ended completed, abandoned,
/// dropped or unfinished, and the live counters agree with the records.
void CheckConservation(const k8s::EdgeCloudSystem& system,
                       const workload::Trace& generated, Checks& checks) {
  const auto& catalog = system.catalog();
  const auto& recs = system.records();
  checks.Expect(recs.size() == generated.size(),
                "records hold " + std::to_string(recs.size()) +
                    " requests, the generated trace " +
                    std::to_string(generated.size()));
  const std::size_t n = std::min(recs.size(), generated.size());
  std::size_t mismatched = 0;
  std::int64_t lc = 0, lc_done = 0, lc_abandoned = 0, be_done = 0;
  std::int64_t dropped = 0, unfinished = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& rec = recs[i];
    const auto& req = generated[i];
    if (rec.request.id != req.id || rec.request.service != req.service ||
        rec.request.origin != req.origin ||
        rec.request.arrival != req.arrival) {
      ++mismatched;
      continue;
    }
    const bool is_lc = catalog.Get(req.service).is_lc();
    if (is_lc) ++lc;
    switch (rec.outcome) {
      case k8s::Outcome::kCompleted:
        (is_lc ? lc_done : be_done) += 1;
        if (rec.completed < req.arrival || !rec.target.valid()) ++mismatched;
        break;
      case k8s::Outcome::kAbandoned:
        lc_abandoned += 1;
        if (!is_lc) ++mismatched;  // only LC clients give up
        break;
      case k8s::Outcome::kDropped:
        dropped += 1;
        break;
      case k8s::Outcome::kPending:
        unfinished += 1;
        break;
    }
  }
  checks.Expect(mismatched == 0, std::to_string(mismatched) +
                                     " records disagree with the generated "
                                     "request or outcome");
  checks.Expect(lc_done + be_done + lc_abandoned + dropped + unfinished ==
                    static_cast<std::int64_t>(n),
                "outcomes do not partition the arrivals");
  checks.Expect(CounterValue(system, "lc.arrived") == lc,
                "lc.arrived counter disagrees with the generated LC count");
  checks.Expect(CounterValue(system, "lc.completed") == lc_done,
                "lc.completed counter disagrees with the records");
  checks.Expect(CounterValue(system, "lc.abandoned") == lc_abandoned,
                "lc.abandoned counter disagrees with the records");
  checks.Expect(CounterValue(system, "be.completed") == be_done,
                "be.completed counter disagrees with the records");
  checks.Expect(system.fault_drops() == dropped,
                "fault.drops counter disagrees with the records");
}

// ---- Timing decorators (traced run) ----------------------------------------

/// Times one interface method: per-call nanoseconds into a registry
/// histogram (count and exact sum), plus the raw samples where the layer
/// reports exact percentiles.
class CallTimer {
 public:
  CallTimer(scope::MetricRegistry& reg, const char* name, bool keep_raw)
      : h_(&reg.GetHistogram(name)), keep_raw_(keep_raw) {}
  void Record(std::int64_t ns) {
    h_->Observe(ns);
    if (keep_raw_) raw_.push_back(ns);
  }
  std::int64_t calls() const { return h_->count(); }
  double seconds() const { return static_cast<double>(h_->sum()) * 1e-9; }
  double QuantileUs(double q) const { return Quantile(raw_, q) * 1e-3; }

 private:
  scope::Histogram* h_;
  bool keep_raw_;
  std::vector<std::int64_t> raw_;
};

class TimedLcScheduler final : public k8s::LcScheduler {
 public:
  TimedLcScheduler(sched::DssLcScheduler* inner, scope::MetricRegistry& reg,
                   bool drop_one)
      : inner_(inner),
        round_(reg, "dsslc.round_ns", true),
        requests_(&reg.GetCounter("dsslc.requests")),
        drop_one_(drop_one) {}

  std::vector<k8s::Assignment> Schedule(
      ClusterId cluster, const std::vector<k8s::PendingRequest>& queue,
      const metrics::StateStorage& storage, SimTime now) override {
    const auto t0 = Clock::now();
    auto out = inner_->Schedule(cluster, queue, storage, now);
    round_.Record(NanosSince(t0));
    requests_->Add(static_cast<std::int64_t>(queue.size()));
    if (drop_one_ && !out.empty()) {
      out.pop_back();
      drop_one_ = false;
    }
    return out;
  }
  std::string name() const override { return inner_->name(); }
  double decision_seconds() const override {
    return inner_->decision_seconds();
  }
  std::int64_t decisions() const override { return inner_->decisions(); }
  k8s::LcRoundStats last_round_stats() const override {
    return inner_->last_round_stats();
  }
  k8s::LcRoundStats total_round_stats() const override {
    return inner_->total_round_stats();
  }

  const CallTimer& round() const { return round_; }
  std::int64_t requests() const { return requests_->value(); }

 private:
  sched::DssLcScheduler* inner_;
  CallTimer round_;
  scope::Counter* requests_;
  bool drop_one_;
};

class TimedAgent final : public rl::Agent {
 public:
  TimedAgent(std::unique_ptr<rl::Agent> inner, scope::MetricRegistry& reg)
      : inner_(std::move(inner)),
        act_(reg, "rl.act_ns", false),
        observe_(reg, "rl.observe_ns", false) {}

  int Act(const rl::GraphState& state, bool greedy) override {
    const auto t0 = Clock::now();
    const int a = inner_->Act(state, greedy);
    act_.Record(NanosSince(t0));
    return a;
  }
  void Observe(float reward, const rl::GraphState& next_state,
               bool done) override {
    const auto t0 = Clock::now();
    inner_->Observe(reward, next_state, done);
    observe_.Record(NanosSince(t0));
  }
  std::string name() const override { return inner_->name(); }
  std::int64_t train_steps() const override { return inner_->train_steps(); }

  const CallTimer& act() const { return act_; }
  const CallTimer& observe() const { return observe_; }

 private:
  std::unique_ptr<rl::Agent> inner_;
  CallTimer act_;
  CallTimer observe_;
};

class TimedBeScheduler final : public k8s::BeScheduler {
 public:
  TimedBeScheduler(k8s::BeScheduler* inner, scope::MetricRegistry& reg)
      : inner_(inner),
        decide_(reg, "dcgbe.decide_ns", true),
        completed_(reg, "dcgbe.completed_ns", false),
        requeues_(&reg.GetCounter("dcgbe.requeues")) {}

  std::optional<NodeId> ScheduleOne(const k8s::PendingRequest& pending,
                                    const metrics::StateStorage& storage,
                                    SimTime now) override {
    const auto t0 = Clock::now();
    auto target = inner_->ScheduleOne(pending, storage, now);
    decide_.Record(NanosSince(t0));
    if (!target.has_value()) requeues_->Add();
    return target;
  }
  void OnBeCompleted(NodeId node, const workload::Request& request,
                     SimTime now) override {
    const auto t0 = Clock::now();
    inner_->OnBeCompleted(node, request, now);
    completed_.Record(NanosSince(t0));
  }
  std::string name() const override { return inner_->name(); }

  const CallTimer& decide() const { return decide_; }
  const CallTimer& completed() const { return completed_; }
  std::int64_t requeues() const { return requeues_->value(); }

 private:
  k8s::BeScheduler* inner_;
  CallTimer decide_;
  CallTimer completed_;
  scope::Counter* requeues_;
};

/// AllocationPolicy's methods are const; the timers are mutable because
/// timing is not part of the policy's observable state.
class TimedAllocationPolicy final : public k8s::AllocationPolicy {
 public:
  TimedAllocationPolicy(const k8s::AllocationPolicy* inner,
                        scope::MetricRegistry& reg)
      : inner_(inner),
        admit_(reg, "hrm.admit_ns", false),
        grants_(reg, "hrm.grants_ns", false),
        demand_(reg, "hrm.demand_ns", false),
        admitted_(&reg.GetCounter("hrm.admitted")) {}

  k8s::ResourceVec EffectiveDemand(
      NodeId node, const workload::ServiceSpec& service) const override {
    const auto t0 = Clock::now();
    const k8s::ResourceVec v = inner_->EffectiveDemand(node, service);
    demand_.Record(NanosSince(t0));
    return v;
  }
  k8s::AdmitDecision Admit(
      const k8s::NodeSpec& node, const k8s::ExecSlot& incoming,
      const std::vector<k8s::ExecSlot>& running) const override {
    const auto t0 = Clock::now();
    k8s::AdmitDecision d = inner_->Admit(node, incoming, running);
    admit_.Record(NanosSince(t0));
    if (d.admit) admitted_->Add();
    return d;
  }
  void ComputeGrants(const k8s::NodeSpec& node,
                     const std::vector<k8s::ExecSlot>& running,
                     std::vector<Millicores>& grants) const override {
    const auto t0 = Clock::now();
    inner_->ComputeGrants(node, running, grants);
    grants_.Record(NanosSince(t0));
  }
  SimDuration AdmissionLatency() const override {
    return inner_->AdmissionLatency();
  }
  bool PreemptsBeForLc() const override { return inner_->PreemptsBeForLc(); }
  std::string name() const override { return inner_->name(); }

  const CallTimer& admit() const { return admit_; }
  const CallTimer& grants() const { return grants_; }
  const CallTimer& demand() const { return demand_; }
  std::int64_t admitted() const { return admitted_->value(); }

 private:
  const k8s::AllocationPolicy* inner_;
  mutable CallTimer admit_;
  mutable CallTimer grants_;
  mutable CallTimer demand_;
  scope::Counter* admitted_;
};

/// The Tango assembly of framework::InstallPair(kDssLc, kDcgBe, HRM) with
/// every plug-in wrapped in a timing decorator. DCG-BE is built exactly as
/// sched::MakeDcgBe builds it, around a timed rl::Agent. The re-assurer's
/// own periodic is parked beyond any horizon and a benchmark-owned
/// periodic with the configured period calls the timed Reassurer::Tick —
/// created right after it, so event order (and the digest) is unchanged.
class TracedTango {
 public:
  TracedTango(k8s::EdgeCloudSystem& system,
              const framework::FrameworkOptions& opts,
              scope::MetricRegistry& reg, bool drop_one_assignment)
      : system_(system),
        reassure_(reg, "hrm.reassure_ns", false) {
    const workload::ServiceCatalog* cat = &system.catalog();
    sched::DssLcConfig dss = opts.dss;
    dss.seed = opts.seed;
    dss.profile_phases = true;
    dss_ = std::make_unique<sched::DssLcScheduler>(cat, dss);
    lc_ = std::make_unique<TimedLcScheduler>(dss_.get(), reg,
                                             drop_one_assignment);

    rl::A2cConfig a2c;
    a2c.encoder = gnn::EncoderKind::kGraphSage;
    a2c.seed = opts.seed + 1;
    a2c.adam.lr = opts.be.learning_rate;
    a2c.packed_inference = opts.be.packed_inference;
    auto agent =
        std::make_unique<TimedAgent>(std::make_unique<rl::A2cAgent>(a2c), reg);
    agent_ = agent.get();
    dcg_ = std::make_unique<sched::LearnedBeScheduler>(cat, std::move(agent),
                                                       opts.be);
    be_ = std::make_unique<TimedBeScheduler>(dcg_.get(), reg);
    system.SetLcScheduler(lc_.get());
    system.SetBeScheduler(be_.get());

    hrm_ = std::make_unique<hrm::HrmAllocationPolicy>(cat, opts.hrm);
    alloc_ = std::make_unique<TimedAllocationPolicy>(hrm_.get(), reg);
    system.SetAllocationPolicy(alloc_.get());
    if (opts.enable_reassurance) {
      hrm::ReassuranceConfig rc = opts.reassurance;
      const SimDuration period = rc.period;
      rc.period = kParked;
      reassurer_ = std::make_unique<hrm::Reassurer>(&system, hrm_.get(), rc);
      auto& sim = system.simulator();
      tick_ = sim.StartPeriodic(sim.Now() + period, period, [this] {
        const auto t0 = Clock::now();
        reassurer_->Tick(system_.simulator().Now());
        reassure_.Record(NanosSince(t0));
      });
    }
  }
  ~TracedTango() {
    if (reassurer_ != nullptr) system_.simulator().Cancel(tick_);
  }
  TracedTango(const TracedTango&) = delete;
  TracedTango& operator=(const TracedTango&) = delete;

  const sched::DssLcScheduler& dss() const { return *dss_; }
  sched::DssLcScheduler& dss() { return *dss_; }
  const TimedLcScheduler& lc() const { return *lc_; }
  const TimedAgent& agent() const { return *agent_; }
  const TimedBeScheduler& be() const { return *be_; }
  const TimedAllocationPolicy& alloc() const { return *alloc_; }
  const CallTimer& reassure() const { return reassure_; }
  std::int64_t reassure_adjustments() const {
    return reassurer_ == nullptr ? 0
                                 : reassurer_->adjustments_up() +
                                       reassurer_->adjustments_down();
  }

 private:
  static constexpr SimDuration kParked = 1'000'000 * kSecond;

  k8s::EdgeCloudSystem& system_;
  std::unique_ptr<sched::DssLcScheduler> dss_;
  std::unique_ptr<TimedLcScheduler> lc_;
  TimedAgent* agent_ = nullptr;  // owned by dcg_
  std::unique_ptr<sched::LearnedBeScheduler> dcg_;
  std::unique_ptr<TimedBeScheduler> be_;
  std::unique_ptr<hrm::HrmAllocationPolicy> hrm_;
  std::unique_ptr<TimedAllocationPolicy> alloc_;
  std::unique_ptr<hrm::Reassurer> reassurer_;
  CallTimer reassure_;
  sim::EventHandle tick_ = sim::kInvalidEvent;
};

// ---- k8s repetitions -------------------------------------------------------

/// The horizon is simulated in slices of kSlice virtual time (RunUntil is
/// resumable; the shard engine drives it per epoch the same way) so that
/// repetitions of the identical, deterministic simulation can be compared
/// slice by slice.
constexpr SimDuration kSlice = kSecond;

void RunSliced(k8s::EdgeCloudSystem& system, SimTime horizon, RepTiming& t) {
  for (SimTime until = std::min<SimTime>(kSlice, horizon);;
       until = std::min<SimTime>(until + kSlice, horizon)) {
    const auto t0 = Clock::now();
    system.Run(until);
    t.slice_s.push_back(SecondsSince(t0));
    t.run_s += t.slice_s.back();
    if (until == horizon) break;
  }
}

/// A set-up k8s run: generated inputs, the system, and either the
/// untraced framework::InstallFramework assembly or the traced stack.
/// Members are destroyed in reverse order, so the plug-ins go before the
/// system they are wired into.
struct K8sRun {
  K8sInputs in;
  std::unique_ptr<k8s::EdgeCloudSystem> system;
  framework::Assembly assembly;
  std::unique_ptr<TracedTango> traced;
  RepTiming t;
};

/// Generate, build, install and submit, timing each phase. `traced_reg`
/// selects the traced stack (its timers register there).
std::unique_ptr<K8sRun> SetUpK8s(Kind kind, std::uint64_t seed,
                                 const Sizing& size, Violation v,
                                 scope::MetricRegistry* traced_reg) {
  auto run = std::make_unique<K8sRun>();
  auto t0 = Clock::now();
  run->in = GenerateK8s(kind, seed, size);
  run->t.trace_s = SecondsSince(t0);
  if (v == Violation::kRepDiverges) run->in.system.seed += 1;
  t0 = Clock::now();
  run->system =
      std::make_unique<k8s::EdgeCloudSystem>(run->in.system, run->in.catalog);
  run->t.build_s = SecondsSince(t0);
  t0 = Clock::now();
  if (traced_reg != nullptr) {
    run->traced = std::make_unique<TracedTango>(
        *run->system, run->in.opts, *traced_reg,
        v == Violation::kDropAssignment);
  } else {
    run->assembly = framework::InstallFramework(
        *run->system, framework::FrameworkKind::kTango, run->in.opts);
  }
  run->t.install_s = SecondsSince(t0);
  t0 = Clock::now();
  if (v == Violation::kLoseRequest && !run->in.trace.empty()) {
    const workload::Trace submitted(run->in.trace.begin(),
                                    run->in.trace.end() - 1);
    run->system->SubmitTrace(submitted);
  } else {
    run->system->SubmitTrace(run->in.trace);
  }
  run->t.submit_s = SecondsSince(t0);
  return run;
}

/// Simulate the horizon of a set-up run, then collect and check it.
Rep FinishK8s(K8sRun& run, Checks& checks) {
  RunSliced(*run.system, run.in.horizon, run.t);
  Rep rep;
  rep.t = run.t;
  rep.out = CollectK8s(*run.system);
  CheckConservation(*run.system, run.in.trace, checks);
  return rep;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

struct TracedResult {
  Rep untraced;
  Rep traced;
  Metrics layers;
};

void Put(Metrics& m, const std::string& name, double value, const char* unit) {
  m.push_back({name, {value, unit}});
}

/// Per-layer metrics of the k8s stack's plug-in seams. The shard engine
/// has none of these seams and reports them as zero, so every traced run
/// emits the same metric set; RunK8sTraced checks it emits each one.
constexpr std::pair<const char*, const char*> kK8sLayers[] = {
    {"dsslc.rounds", "count"},          {"dsslc.busy_s", "s"},
    {"dsslc.round_us.p50", "us"},       {"dsslc.round_us.p99", "us"},
    {"dsslc.req_per_round", "req"},     {"dsslc.overflow_routed", "count"},
    {"dsslc.left_queued", "count"},     {"dsslc.phase.snapshot_us", "us"},
    {"dsslc.phase.graph_build_us", "us"}, {"dsslc.phase.delta_build_us", "us"},
    {"dsslc.phase.mcmf_solve_us", "us"}, {"dsslc.phase.merge_us", "us"},
    {"dsslc.phase.commit_us", "us"},    {"flow.star_solves", "count"},
    {"flow.warm_solves", "count"},      {"flow.memo_hits", "count"},
    {"flow.cold_solves", "count"},      {"dcgbe.calls", "count"},
    {"dcgbe.busy_s", "s"},              {"dcgbe.decide_us.p50", "us"},
    {"dcgbe.decide_us.p99", "us"},      {"dcgbe.requeue_ratio", "ratio"},
    {"rl.act_s", "s"},                  {"rl.observe_s", "s"},
    {"rl.train_steps", "count"},        {"hrm.admit_calls", "count"},
    {"hrm.admit_ratio", "ratio"},       {"hrm.admit_s", "s"},
    {"hrm.admit_per_request", "calls"}, {"hrm.grants_calls", "count"},
    {"hrm.grants_s", "s"},              {"hrm.demand_s", "s"},
    {"hrm.reassure_ticks", "count"},    {"hrm.reassure_s", "s"},
    {"hrm.reassure_adjustments", "count"},
};

/// Per-layer names that only the shard engine reports; k8s workloads
/// report them as zero (and vice versa), so every traced run emits the
/// same metric set.
void PutShardLayers(Metrics& m, const shard::RunResult* r,
                    double parallel_run_s, double speedup) {
  const bool has = r != nullptr;
  Put(m, "shard.epochs", has ? static_cast<double>(r->epochs) : 0.0, "count");
  Put(m, "shard.epochs_skipped",
      has ? static_cast<double>(r->epochs_skipped) : 0.0, "count");
  Put(m, "shard.events_per_epoch",
      has ? Ratio(static_cast<double>(r->executed_events),
                  static_cast<double>(r->epochs))
          : 0.0,
      "events");
  Put(m, "shard.mailbox_exchanged",
      has ? static_cast<double>(r->mailbox_exchanged) : 0.0, "count");
  Put(m, "shard.mailbox_drained",
      has ? static_cast<double>(r->mailbox_drained) : 0.0, "count");
  Put(m, "shard.parallel_run_s", parallel_run_s, "s");
  Put(m, "shard.speedup_vs_serial", speedup, "x");
}

void PutSetupLayers(Metrics& m, const RepTiming& t) {
  Put(m, "setup.trace_s", t.trace_s, "s");
  Put(m, "setup.build_s", t.build_s, "s");
  Put(m, "setup.install_s", t.install_s, "s");
  Put(m, "setup.submit_s", t.submit_s, "s");
}

/// One row of the attribution table. Sub-rows (`part_of_previous`) break
/// the preceding layer down and are not summed again.
struct AttributionRow {
  const char* layer;
  double seconds;
  bool part_of_previous = false;
};

void PrintAttribution(const char* workload,
                      const std::vector<AttributionRow>& rows,
                      double traced_run_s, double untraced_run_s) {
  std::printf("\n== attribution of traced run_s (%s) ==\n", workload);
  double sum = 0.0;
  for (const auto& r : rows) {
    std::printf("  %s%-28s %12.6f s  %6.2f%%\n",
                r.part_of_previous ? "  of which " : "", r.layer, r.seconds,
                100.0 * Ratio(r.seconds, traced_run_s));
    if (!r.part_of_previous) sum += r.seconds;
  }
  std::printf("  %-28s %12.6f s  (traced run_s %.6f s)\n", "sum of rows", sum,
              traced_run_s);
  std::printf("  %-28s %12.6f s  (untraced run_s %.6f s)\n",
              "tracing overhead", traced_run_s - untraced_run_s,
              untraced_run_s);
}

TracedResult RunK8sTraced(const char* workload, Kind kind, std::uint64_t seed,
                          const Sizing& size, Violation v, Checks& checks) {
  TracedResult res;
  res.untraced = FinishK8s(
      *SetUpK8s(kind, seed, size, Violation::kNone, nullptr), checks);

  scope::MetricRegistry reg;
  const auto run = SetUpK8s(kind, seed, size, v, &reg);
  res.traced = FinishK8s(*run, checks);
  const Rep& tr = res.traced;
  checks.Expect(tr.out.digest == res.untraced.out.digest,
                "traced run's simulated outputs differ from the untraced "
                "run's");

  const TracedTango& stack = *run->traced;
  k8s::EdgeCloudSystem& system = *run->system;
  const K8sInputs& in = run->in;
  const auto& lc = stack.lc();
  const auto& dss = stack.dss();
  const auto& be = stack.be();
  const auto& agent = stack.agent();
  const auto& alloc = stack.alloc();
  const double dsslc_s = lc.round().seconds();
  const double dcgbe_s = be.decide().seconds() + be.completed().seconds();
  const double hrm_s = alloc.admit().seconds() + alloc.grants().seconds() +
                       alloc.demand().seconds() + stack.reassure().seconds();
  const double other_s = tr.t.run_s - dsslc_s - dcgbe_s - hrm_s;

  Metrics& m = res.layers;
  const double rounds = static_cast<double>(lc.round().calls());
  Put(m, "dsslc.rounds", rounds, "count");
  Put(m, "dsslc.busy_s", dsslc_s, "s");
  Put(m, "dsslc.round_us.p50", lc.round().QuantileUs(0.50), "us");
  Put(m, "dsslc.round_us.p99", lc.round().QuantileUs(0.99), "us");
  Put(m, "dsslc.req_per_round",
      Ratio(static_cast<double>(lc.requests()), rounds), "req");
  Put(m, "dsslc.overflow_routed", static_cast<double>(dss.overflow_routed()),
      "count");
  Put(m, "dsslc.left_queued",
      static_cast<double>(dss.total_round_stats().left_queued), "count");
  auto& sched_reg = run->traced->dss().metrics();
  for (const char* phase : {"snapshot", "graph_build", "delta_build",
                            "mcmf_solve", "merge", "commit"}) {
    const std::string src = std::string("sched.phase.") + phase + "_us";
    Put(m, std::string("dsslc.phase.") + phase + "_us",
        sched_reg.GetHistogram(src).Mean(), "us");
  }
  const auto pool = dss.solver_pool_stats();
  Put(m, "flow.star_solves", static_cast<double>(pool.star_solves), "count");
  Put(m, "flow.warm_solves", static_cast<double>(pool.warm_solves), "count");
  Put(m, "flow.memo_hits", static_cast<double>(pool.memo_hits), "count");
  Put(m, "flow.cold_solves", static_cast<double>(pool.cold_solves), "count");

  const double calls = static_cast<double>(be.decide().calls());
  Put(m, "dcgbe.calls", calls, "count");
  Put(m, "dcgbe.busy_s", dcgbe_s, "s");
  Put(m, "dcgbe.decide_us.p50", be.decide().QuantileUs(0.50), "us");
  Put(m, "dcgbe.decide_us.p99", be.decide().QuantileUs(0.99), "us");
  Put(m, "dcgbe.requeue_ratio",
      Ratio(static_cast<double>(be.requeues()), calls), "ratio");
  Put(m, "rl.act_s", agent.act().seconds(), "s");
  Put(m, "rl.observe_s", agent.observe().seconds(), "s");
  Put(m, "rl.train_steps", static_cast<double>(agent.train_steps()), "count");

  const double admits = static_cast<double>(alloc.admit().calls());
  Put(m, "hrm.admit_calls", admits, "count");
  Put(m, "hrm.admit_ratio", Ratio(static_cast<double>(alloc.admitted()), admits),
      "ratio");
  Put(m, "hrm.admit_s", alloc.admit().seconds(), "s");
  Put(m, "hrm.admit_per_request",
      Ratio(admits, static_cast<double>(in.trace.size())), "calls");
  Put(m, "hrm.grants_calls", static_cast<double>(alloc.grants().calls()),
      "count");
  Put(m, "hrm.grants_s", alloc.grants().seconds(), "s");
  Put(m, "hrm.demand_s", alloc.demand().seconds(), "s");
  Put(m, "hrm.reassure_ticks", static_cast<double>(stack.reassure().calls()),
      "count");
  Put(m, "hrm.reassure_s", stack.reassure().seconds(), "s");
  Put(m, "hrm.reassure_adjustments",
      static_cast<double>(stack.reassure_adjustments()), "count");

  const double events =
      static_cast<double>(system.simulator().executed_events());
  const k8s::SyncStats sync = system.sync_stats();
  Put(m, "sim.events", events, "count");
  Put(m, "sim.events_per_s", Ratio(events, res.untraced.t.run_s), "1/s");
  Put(m, "sync.pushes", static_cast<double>(sync.pushes), "count");
  Put(m, "sync.skip_ratio",
      Ratio(static_cast<double>(sync.pushes_skipped),
            static_cast<double>(sync.pushes + sync.pushes_skipped)),
      "ratio");
  Put(m, "k8s.other_s", other_s, "s");
  PutShardLayers(m, nullptr, 0.0, 0.0);
  PutSetupLayers(m, res.untraced.t);
  Put(m, "trace.run_s", tr.t.run_s, "s");
  Put(m, "trace.overhead_s", tr.t.run_s - res.untraced.t.run_s, "s");

  for (const auto& [name, unit] : kK8sLayers) {
    const bool present =
        std::any_of(m.begin(), m.end(), [&](const auto& e) {
          return e.first == name && std::strcmp(e.second.second, unit) == 0;
        });
    checks.Expect(present, std::string("layer metric ") + name + " missing");
  }
  checks.Expect(other_s >= 0.0,
                "timed layer calls exceed the traced run_s (double count)");
  PrintAttribution(workload,
                   {{"dsslc (LcScheduler)", dsslc_s},
                    {"dcgbe (BeScheduler)", dcgbe_s},
                    {"rl.act (rl::Agent)", agent.act().seconds(), true},
                    {"rl.observe (rl::Agent)", agent.observe().seconds(),
                     true},
                    {"hrm (AllocationPolicy+Tick)", hrm_s},
                    {"k8s.other (unattributed)", other_s}},
                   tr.t.run_s, res.untraced.t.run_s);
  return res;
}

// ---- shard_100k ------------------------------------------------------------

struct ShardRep {
  RepTiming t;
  SimOutputs out;
  shard::RunResult result;
};

storm::ScenarioConfig ShardScenario(std::uint64_t seed, const Sizing& size) {
  // MMPP steady load of 60 rps per cluster, 80% LC: the engine's default
  // 50 LC + 10 BE rps, drawn from a seeded storm stream per cluster.
  storm::ScenarioConfig sc = eval::DefaultScenarioConfig(
      bench::Catalog(), 128, size.arrivals, seed);
  sc.rps_per_cluster = 60.0;
  sc.lc_fraction = 0.8;
  return sc;
}

double InterpolatedP95Ms(const shard::ClusterStats& s) {
  // The engine keeps completed-LC latencies in log2 µs buckets
  // [2^b, 2^(b+1)); interpolate linearly inside the p95 bucket.
  std::int64_t n = 0;
  for (auto c : s.latency_us_log2) n += c;
  if (n == 0) return 0.0;
  const double target = 0.95 * static_cast<double>(n);
  double seen = 0.0;
  for (int b = 0; b < shard::ClusterStats::kLatencyBuckets; ++b) {
    const auto c = static_cast<double>(s.latency_us_log2[b]);
    if (c > 0.0 && seen + c >= target) {
      const double lo = std::ldexp(1.0, b);
      return (lo + (target - seen) / c * lo) / 1000.0;
    }
    seen += c;
  }
  return std::ldexp(1.0, shard::ClusterStats::kLatencyBuckets) / 1000.0;
}

/// `threaded` runs the shards on the engine's pool (caller + shards−1
/// threads); otherwise the identical epoch protocol runs on the calling
/// thread in shard order (EngineConfig::deterministic_reference).
ShardRep RunShard(std::uint64_t seed, const Sizing& size, int shards,
                  bool threaded, std::int64_t* generated) {
  ShardRep rep;
  auto t0 = Clock::now();
  const storm::ScenarioConfig sc = ShardScenario(seed, size);
  shard::EngineConfig cfg;
  for (int c = 0; c < 128; ++c) {
    k8s::ClusterSpec spec;
    spec.num_workers = 800;
    cfg.clusters.push_back(spec);
  }
  cfg.model.scenario = &sc;
  cfg.model.scenario_kind = storm::ScenarioKind::kSteady;
  cfg.seed = seed;
  cfg.duration = size.arrivals + size.drain;
  cfg.num_shards = shards;
  cfg.deterministic_reference = !threaded;
  if (generated != nullptr) {
    // Count the generated arrivals independently of the engine: the
    // conservation reference.
    *generated = 0;
    workload::Request req;
    for (int c = 0; c < sc.num_clusters; ++c) {
      auto src = storm::BuildClusterStream(cfg.model.scenario_kind, sc,
                                           ClusterId{c});
      while (src->NextRequest(&req) && req.arrival <= cfg.duration) {
        ++*generated;
      }
    }
  }
  rep.t.trace_s = SecondsSince(t0);
  t0 = Clock::now();
  shard::ShardEngine engine(std::move(cfg));
  rep.t.build_s = SecondsSince(t0);
  t0 = Clock::now();
  rep.result = engine.Run();
  rep.t.run_s = SecondsSince(t0);

  const shard::ClusterStats& s = rep.result.totals;
  SimOutputs& o = rep.out;
  o.lc_qos_rate = Ratio(static_cast<double>(s.lc_qos_met),
                        static_cast<double>(s.lc_arrived));
  o.lc_p95_ms = InterpolatedP95Ms(s);
  o.be_completed = static_cast<double>(s.be_completed);
  o.mean_util = rep.result.mean_util;
  const auto arrived = static_cast<double>(s.lc_arrived + s.be_arrived);
  o.req_fail_rate =
      Ratio(arrived - static_cast<double>(s.lc_completed + s.be_completed),
            arrived);
  o.digest = rep.result.digest;
  return rep;
}

void CheckShardConservation(const ShardRep& rep, std::int64_t generated,
                            Checks& checks) {
  const shard::ClusterStats& s = rep.result.totals;
  checks.Expect(s.lc_arrived + s.be_arrived == generated,
                "shard arrivals " + std::to_string(s.lc_arrived + s.be_arrived) +
                    " differ from the generated " + std::to_string(generated));
  checks.Expect(s.lc_completed + s.lc_abandoned + s.lc_dropped <= s.lc_arrived,
                "more LC outcomes than LC arrivals");
  checks.Expect(s.be_completed + s.be_dropped <= s.be_arrived,
                "more BE outcomes than BE arrivals");
  checks.Expect(s.lc_qos_met <= s.lc_completed,
                "more LC requests met QoS than completed");
}

// ---- Reporting ---------------------------------------------------------------

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num +
           ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintOutputs(const SimOutputs& o) {
  std::printf(
      "  simulated: lc_qos_rate %.6f  lc_p95_ms %.3f  be_completed %.0f  "
      "mean_util %.6f  req_fail_rate %.6f  digest %s\n",
      o.lc_qos_rate, o.lc_p95_ms, o.be_completed, o.mean_util,
      o.req_fail_rate, Hex(o.digest).c_str());
}

/// run_s over repetitions of one deterministic simulation: the sum, over
/// the slices of simulated time, of each slice's median wall time across
/// repetitions — a transient host stall inflates one slice of one
/// repetition and drops out of the median. Without slices (the shard
/// engine runs in one call) it is the median of the totals.
double RunSeconds(const std::vector<RepTiming>& reps) {
  std::vector<double> totals;
  for (const auto& r : reps) totals.push_back(r.run_s);
  const std::size_t slices = reps.front().slice_s.size();
  if (slices == 0) return Median(totals);
  double sum = 0.0;
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double> at;
    for (const auto& r : reps) at.push_back(r.slice_s[k]);
    sum += Median(at);
  }
  return sum;
}

Metrics EndToEnd(const std::vector<RepTiming>& setups,
                 const std::vector<RepTiming>& reps, const SimOutputs& o) {
  std::vector<double> setup;
  for (const auto& t : setups) setup.push_back(t.setup_s());
  std::printf("  run_s samples:");
  for (const auto& r : reps) std::printf(" %.4f", r.run_s);
  std::printf("  -> run_s %.4f over %zu repetitions, setup_s over %zu\n",
              RunSeconds(reps), reps.size(), setup.size());
  Metrics m;
  Put(m, "setup_s", Median(setup), "s");
  Put(m, "run_s", RunSeconds(reps), "s");
  Put(m, "peak_rss_mb", PeakRssMb(), "MB");
  Put(m, "lc_qos_rate", o.lc_qos_rate, "ratio");
  Put(m, "lc_p95_ms", o.lc_p95_ms, "ms");
  Put(m, "be_completed", o.be_completed, "count");
  Put(m, "mean_util", o.mean_util, "ratio");
  Put(m, "req_fail_rate", o.req_fail_rate, "ratio");
  return m;
}

// ---- Build guard -------------------------------------------------------------

struct BuildFlags {
  std::string build_type;
  bool audit = false;
  bool scope = false;
  bool sanitizer = false;
};

BuildFlags ThisBuild() {
  BuildFlags b;
#if defined(TANGO_BUILD_TYPE)
  b.build_type = TANGO_BUILD_TYPE;
#endif
  b.audit = audit::kEnabled;
  b.scope = scope::kCompiled;
#if defined(TANGO_SANITIZE) || defined(TANGO_TSAN) || defined(TANGO_UBSAN)
  b.sanitizer = true;
#endif
  return b;
}

/// Numbers from a non-Release, audit, scope or sanitizer build measure a
/// different program; refuse to record them.
std::string BuildRefusal(const BuildFlags& b) {
  if (b.build_type != "Release") {
    return "build type is '" + b.build_type + "', not Release";
  }
  if (b.audit) return "TANGO_AUDIT is on";
  if (b.scope) return "TANGO_SCOPE is on";
  if (b.sanitizer) return "a sanitizer is on";
  return "";
}

// ---- Workload runners --------------------------------------------------------

struct RunOutcome {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
};

/// --trace 0: repeat the workload (fresh set-up each time) until `seconds`
/// are spent and at least kMinReps repetitions ran. On k8s workloads set-up
/// is also timed on its own (without the run) so the set-up median rests on
/// at least kMinSetups samples even when one simulation takes most of the
/// budget.
constexpr std::size_t kMinReps = 2;
constexpr int kMinSetups = 9;

RunOutcome TimedK8s(Kind kind, std::uint64_t seed, double seconds,
                    const Sizing& size, Violation v) {
  RunOutcome res;
  Checks checks;
  std::vector<RepTiming> setups;
  std::vector<RepTiming> runs;
  SimOutputs first;
  const auto start = Clock::now();
  while (runs.size() < kMinReps || SecondsSince(start) < seconds) {
    Violation rep_v = v == Violation::kLoseRequest ? v : Violation::kNone;
    if (v == Violation::kRepDiverges && runs.size() == 1) rep_v = v;
    Checks rep_checks;
    const Rep rep =
        FinishK8s(*SetUpK8s(kind, seed, size, rep_v, nullptr), rep_checks);
    ++res.attempted;
    if (runs.empty()) first = rep.out;
    rep_checks.Expect(rep.out.digest == first.digest,
                      "repetition " + std::to_string(runs.size()) +
                          " diverged from the first (nondeterminism)");
    if (!rep_checks.ok()) ++res.failed;
    for (auto& f : rep_checks.failures) checks.failures.push_back(f);
    setups.push_back(rep.t);
    runs.push_back(rep.t);
  }
  while (static_cast<int>(setups.size()) < kMinSetups) {
    setups.push_back(SetUpK8s(kind, seed, size, Violation::kNone, nullptr)->t);
  }
  PrintOutputs(first);
  for (const auto& f : checks.failures) std::printf("  [!!] %s\n", f.c_str());
  res.correct = checks.ok();
  res.metrics = EndToEnd(setups, runs, first);
  return res;
}

/// shard_100k's end-to-end timing runs the 4-shard epoch protocol on one
/// thread. On a 4-vCPU host shared with other tenants the threaded engine
/// waits at ~14k epoch barriers, so one descheduled vCPU stretches its wall
/// time 2-4x for as long as the contention lasts; the single-threaded
/// protocol run is steady. The threaded run's time and speed-up are
/// per-layer metrics of the traced run (shard.parallel_run_s,
/// shard.speedup_vs_serial).
RunOutcome TimedShard(std::uint64_t seed, double seconds, const Sizing& size,
                      Violation v) {
  RunOutcome res;
  Checks checks;
  std::vector<RepTiming> setups;
  std::vector<RepTiming> runs;
  SimOutputs first;
  const auto start = Clock::now();
  while (runs.size() < kMinReps || SecondsSince(start) < seconds) {
    std::int64_t generated = 0;
    const ShardRep rep = RunShard(seed, size, 4, false, &generated);
    ++res.attempted;
    Checks rep_checks;
    if (runs.empty()) first = rep.out;
    CheckShardConservation(
        rep, generated + (v == Violation::kShardLosesCount ? 1 : 0),
        rep_checks);
    rep_checks.Expect(rep.out.digest == first.digest,
                      "repetition diverged from the first (nondeterminism)");
    if (!rep_checks.ok()) ++res.failed;
    for (auto& f : rep_checks.failures) checks.failures.push_back(f);
    setups.push_back(rep.t);
    runs.push_back(rep.t);
  }
  // The determinism witness: the 1-shard run must produce the same digest.
  const ShardRep serial = RunShard(
      seed + (v == Violation::kShardDiverges ? 1 : 0), size, 1, false, nullptr);
  ++res.attempted;
  if (serial.out.digest != first.digest) {
    ++res.failed;
    checks.failures.push_back("1-shard digest " + Hex(serial.out.digest) +
                              " differs from the 4-shard digest " +
                              Hex(first.digest));
  }
  PrintOutputs(first);
  for (const auto& f : checks.failures) std::printf("  [!!] %s\n", f.c_str());
  res.correct = checks.ok();
  res.metrics = EndToEnd(setups, runs, first);
  return res;
}

RunOutcome TracedShard(std::uint64_t seed, const Sizing& size, Violation v) {
  RunOutcome res;
  Checks checks;
  std::int64_t generated = 0;
  // The timed configuration twice (untraced, then the run the attribution
  // rows sum to; the engine has no plug-in seams to decorate), the threaded
  // 4-shard engine, and the 1-shard determinism witness.
  const ShardRep untraced = RunShard(seed, size, 4, false, &generated);
  const ShardRep traced = RunShard(seed, size, 4, false, nullptr);
  const ShardRep threaded = RunShard(seed, size, 4, true, nullptr);
  const ShardRep serial = RunShard(
      seed + (v == Violation::kShardDiverges ? 1 : 0), size, 1, false, nullptr);
  res.attempted = 4;
  CheckShardConservation(untraced, generated, checks);
  checks.Expect(traced.out.digest == untraced.out.digest,
                "second 4-shard run diverged (nondeterminism)");
  checks.Expect(threaded.out.digest == untraced.out.digest,
                "threaded 4-shard digest differs from the single-thread one");
  checks.Expect(serial.out.digest == untraced.out.digest,
                "1-shard digest differs from the 4-shard digest");
  res.failed = checks.ok() ? 0 : 1;
  PrintOutputs(untraced.out);

  Metrics& m = res.metrics;
  for (const auto& [name, unit] : kK8sLayers) Put(m, name, 0.0, unit);
  const auto events = static_cast<double>(untraced.result.executed_events);
  const shard::ClusterStats& totals = untraced.result.totals;
  Put(m, "sim.events", events, "count");
  Put(m, "sim.events_per_s", Ratio(events, untraced.t.run_s), "1/s");
  Put(m, "sync.pushes", static_cast<double>(totals.deltas_sent), "count");
  Put(m, "sync.skip_ratio",
      Ratio(static_cast<double>(totals.deltas_skipped),
            static_cast<double>(totals.deltas_sent + totals.deltas_skipped)),
      "ratio");
  Put(m, "k8s.other_s", traced.t.run_s, "s");
  PutShardLayers(m, &threaded.result, threaded.t.run_s,
                 Ratio(serial.t.run_s, threaded.t.run_s));
  PutSetupLayers(m, untraced.t);
  Put(m, "trace.run_s", traced.t.run_s, "s");
  Put(m, "trace.overhead_s", traced.t.run_s - untraced.t.run_s, "s");
  PrintAttribution("shard_100k",
                   {{"shard engine (no plug-in seams)", 0.0},
                    {"k8s.other (unattributed)", traced.t.run_s}},
                   traced.t.run_s, untraced.t.run_s);
  std::printf("  1-shard run_s %.4f, threaded 4-shard run_s %.4f\n",
              serial.t.run_s, threaded.t.run_s);
  for (const auto& f : checks.failures) std::printf("  [!!] %s\n", f.c_str());
  res.correct = checks.ok();
  return res;
}

RunOutcome TracedK8s(const char* workload, Kind kind, std::uint64_t seed,
                     const Sizing& size, Violation v) {
  RunOutcome res;
  Checks checks;
  TracedResult tr = RunK8sTraced(workload, kind, seed, size, v, checks);
  res.attempted = 2;
  res.failed = checks.ok() ? 0 : 1;
  PrintOutputs(tr.untraced.out);
  for (const auto& f : checks.failures) std::printf("  [!!] %s\n", f.c_str());
  res.correct = checks.ok();
  res.metrics = std::move(tr.layers);
  return res;
}

RunOutcome RunWorkload(const WorkloadDef& w, std::uint64_t seed,
                       double seconds, bool trace, const Sizing& size,
                       Violation v) {
  if (w.kind == Kind::kShard100k) {
    return trace ? TracedShard(seed, size, v)
                 : TimedShard(seed, seconds, size, v);
  }
  return trace ? TracedK8s(w.name, w.kind, seed, size, v)
               : TimedK8s(w.kind, seed, seconds, size, v);
}

// ---- Self-check ------------------------------------------------------------

/// Tiny-horizon runs: every correctness check must pass on the clean
/// program and trip on its seeded violation.
int SelfCheck() {
  const Sizing tiny_k8s{1 * kSecond, 0};
  const Sizing tiny_shard{1 * kSecond, 0};
  struct Case {
    const char* what;
    Kind kind;
    bool trace;
    Violation v;
  };
  const Case cases[] = {
      {"traced == untraced outputs", Kind::kLcFlash, true,
       Violation::kDropAssignment},
      {"request conservation vs generated trace", Kind::kLcOverload, false,
       Violation::kLoseRequest},
      {"repetitions are identical", Kind::kLcFlash, false,
       Violation::kRepDiverges},
      {"4-shard digest == 1-shard digest", Kind::kShard100k, false,
       Violation::kShardDiverges},
      {"shard arrivals == generated count", Kind::kShard100k, false,
       Violation::kShardLosesCount},
  };
  bool ok = true;
  for (const auto& c : cases) {
    const WorkloadDef w{"selfcheck", c.kind};
    const Sizing& size = c.kind == Kind::kShard100k ? tiny_shard : tiny_k8s;
    const RunOutcome clean =
        RunWorkload(w, 7, 0.0, c.trace, size, Violation::kNone);
    const RunOutcome seeded = RunWorkload(w, 7, 0.0, c.trace, size, c.v);
    const bool holds = clean.correct && !seeded.correct;
    std::printf("  [%s] %-42s clean %s, seeded violation %s\n",
                holds ? "ok" : "!!", c.what, clean.correct ? "passes" : "FAILS",
                seeded.correct ? "NOT caught" : "caught");
    ok = ok && holds;
  }
  BuildFlags debug = ThisBuild();
  debug.build_type = "Debug";
  BuildFlags audited = ThisBuild();
  audited.build_type = "Release";
  audited.audit = true;
  const bool guard = !BuildRefusal(debug).empty() &&
                     !BuildRefusal(audited).empty();
  std::printf("  [%s] %-42s Debug and TANGO_AUDIT builds refused\n",
              guard ? "ok" : "!!", "build guard");
  ok = ok && guard;
  std::printf("selfcheck: %s\n", ok ? "all checks trip" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tangobench --workload <hybrid_paper|lc_flash|"
               "lc_overload|shard_100k> [--seed N] [--seconds S] "
               "[--trace 0|1]\n       tangobench --selfcheck\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 71;  // Fig. 13's trace seed
  double seconds = 10.0;
  bool trace = false;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else if (a == "--selfcheck") {
      selfcheck = true;
    } else {
      return Usage();
    }
  }
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("provenance: {%s, \"ubsan\": %s}\n",
              bench::ProvenanceJson(cores).c_str(),
              ThisBuild().sanitizer ? "true" : "false");
  const std::string refusal = BuildRefusal(ThisBuild());
  if (!refusal.empty()) {
    std::fprintf(stderr, "tangobench: refusing to record numbers: %s\n",
                 refusal.c_str());
    return 3;
  }
  if (selfcheck) return SelfCheck();
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) def = &w;
  }
  if (def == nullptr || !(seconds >= 0.0)) return Usage();
  std::printf("workload %s  seed %llu  seconds %.1f  trace %d\n", def->name,
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  const RunOutcome r = RunWorkload(*def, seed, seconds, trace,
                                   FullSizing(def->kind), Violation::kNone);
  std::fflush(stdout);
  PrintResult(r.correct, r.attempted, r.failed, r.metrics);
  return r.correct ? 0 : 1;
}
