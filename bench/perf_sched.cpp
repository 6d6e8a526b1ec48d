// perf_sched — scheduling-core performance baseline.
//
// Measures DSS-LC dispatch rounds/sec with the per-type G_k fan-out serial
// vs parallel on small (16-node), large (256-node) and huge (1024-node)
// cluster views, verifies the parallel mode is byte-identical to serial and
// that steady-state rounds perform zero solver-scratch allocations, prints
// an FNV-1a digest of every round's assignments per config (the witness
// that routing output is unchanged across implementations), then times a
// short end-to-end simulation and concurrent benchmark repetitions. Emits
// BENCH_sched.json (cwd) so later PRs can diff scheduling throughput
// against this baseline. The ≥2× parallel speedup
// expectation only applies on hosts with ≥4 cores; the JSON records the
// core count either way.
//
// Flags: --smoke            small configs + invariant checks only, exit 1 on
//                           failure, no BENCH write (CI gate)
//        --nodes N          single custom config of ~N workers (16/cluster)
//        --queue Q          requests per round for the custom config
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "sched/dss_lc.h"

using namespace tango;

namespace {

using k8s::Assignment;
using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;
using SolverPoolStats = sched::DssLcScheduler::SolverPoolStats;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StateStorage MakeStorage(int clusters, int workers_per_cluster,
                         std::uint64_t seed) {
  StateStorage st;
  Rng rng(seed);
  int node = 1;
  for (int c = 0; c < clusters; ++c) {
    st.UpdateRtt(ClusterId{c}, rng.UniformInt(1, 40) * kMillisecond);
    for (int w = 0; w < workers_per_cluster; ++w) {
      NodeSnapshot s;
      s.node = NodeId{node++};
      s.cluster = ClusterId{c};
      s.cpu_total = 8000;
      s.cpu_available = rng.UniformInt(500, 8000);
      s.mem_total = 16384;
      s.mem_available = rng.UniformInt(1024, 16384);
      s.queued = static_cast<int>(rng.UniformInt(0, 16));
      st.Update(s);
    }
  }
  return st;
}

std::vector<PendingRequest> MakeQueue(int count, SimTime base) {
  std::vector<PendingRequest> q;
  q.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PendingRequest p;
    p.request.id = RequestId{i};
    p.request.service = ServiceId{i % 5};  // the 5 LC types of the catalog
    p.request.origin = ClusterId{0};
    p.request.arrival = base + (i % 7) * kMillisecond;
    q.push_back(p);
  }
  return q;
}

struct SchedRun {
  double rounds_per_sec = 0.0;
  std::int64_t assignments = 0;
  std::int64_t steady_alloc_events = 0;  // scratch growths after warm-up
  SolverPoolStats stats;                 // solver pool counters at run end
  std::vector<std::vector<Assignment>> per_round;  // for the identity check
};

SchedRun RunRounds(int num_threads, const StateStorage& st, int queue_len,
                   int rounds, int warmup) {
  sched::DssLcConfig cfg;
  cfg.num_threads = num_threads;
  sched::DssLcScheduler dss(&bench::Catalog(), cfg);
  SchedRun run;
  std::int64_t warm_allocs = 0;
  double t0 = 0.0;
  for (int r = 0; r < warmup + rounds; ++r) {
    const SimTime now = r * 100 * kMillisecond;
    if (r == warmup) {
      warm_allocs = dss.solver_pool_stats().alloc_events;
      t0 = Now();
    }
    auto as = dss.Schedule(ClusterId{0}, MakeQueue(queue_len, now), st, now);
    run.assignments += static_cast<std::int64_t>(as.size());
    run.per_round.push_back(std::move(as));
  }
  const double elapsed = Now() - t0;
  run.rounds_per_sec = elapsed > 0.0 ? rounds / elapsed : 0.0;
  run.steady_alloc_events = dss.solver_pool_stats().alloc_events - warm_allocs;
  run.stats = dss.solver_pool_stats();
  return run;
}

bool Identical(const SchedRun& a, const SchedRun& b) {
  if (a.per_round.size() != b.per_round.size()) return false;
  for (std::size_t r = 0; r < a.per_round.size(); ++r) {
    const auto& x = a.per_round[r];
    const auto& y = b.per_round[r];
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].request != y[i].request || x[i].target != y[i].target) {
        return false;
      }
    }
  }
  return true;
}

/// FNV-1a over every round's assignment count and (request, target) pairs,
/// in emission order.
std::uint64_t AssignmentDigest(const SchedRun& run) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto fold = [&h](std::int32_t v) {
    auto u = static_cast<std::uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte) {
      h = (h ^ (u & 0xFFu)) * 1099511628211ULL;
      u >>= 8;
    }
  };
  for (const auto& round : run.per_round) {
    fold(static_cast<std::int32_t>(round.size()));
    for (const auto& a : round) {
      fold(a.request.value);
      fold(a.target.value);
    }
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct SchedComparison {
  const char* label;
  int nodes;
  int queue_len;
  SchedRun serial;
  SchedRun parallel;
  bool identical = false;
  double speedup = 0.0;
  std::uint64_t digest = 0;  // AssignmentDigest of the serial run
};

SchedComparison CompareSched(const char* label, int clusters, int workers,
                             int queue_len, int rounds) {
  SchedComparison cmp;
  cmp.label = label;
  cmp.nodes = clusters * workers;
  cmp.queue_len = queue_len;
  const StateStorage st = MakeStorage(clusters, workers, 77);
  cmp.serial = RunRounds(/*num_threads=*/1, st, queue_len, rounds, 3);
  cmp.parallel = RunRounds(/*num_threads=*/0, st, queue_len, rounds, 3);
  cmp.identical = Identical(cmp.serial, cmp.parallel);
  cmp.digest = AssignmentDigest(cmp.serial);
  cmp.speedup = cmp.serial.rounds_per_sec > 0.0
                    ? cmp.parallel.rounds_per_sec / cmp.serial.rounds_per_sec
                    : 0.0;
  return cmp;
}

/// Per-phase wall-clock profile of the DSS-LC round (snapshot filter and
/// round view, per-type worker view and chain build, star solve, merge,
/// commit) from a profile_phases run.
/// Serial mode so phase timings are not interleaved across pool threads.
std::vector<scope::MetricRow> ProfilePhases(const StateStorage& st,
                                            int queue_len, int rounds) {
  sched::DssLcConfig cfg;
  cfg.num_threads = 1;
  cfg.profile_phases = true;
  sched::DssLcScheduler dss(&bench::Catalog(), cfg);
  for (int r = 0; r < rounds; ++r) {
    const SimTime now = r * 100 * kMillisecond;
    dss.Schedule(ClusterId{0}, MakeQueue(queue_len, now), st, now);
  }
  std::vector<scope::MetricRow> rows;
  for (auto& row : dss.metrics().Snapshot()) {
    if (row.name.rfind("sched.phase.", 0) == 0 ||
        row.name == "sched.round_us") {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Where a profiled round's time went: each row's mean µs per round (its
/// sample sum over the round count — solve and build sample once per type
/// or kernel call, so several times a round) and the unattributed rest,
/// mean round_us minus the phases' per-round sums.
struct PhaseAttribution {
  std::vector<double> per_round;  // aligned with the profile rows
  double other_us = 0.0;
};

PhaseAttribution Attribute(const std::vector<scope::MetricRow>& rows) {
  PhaseAttribution a;
  double rounds = 0.0;
  double round_mean = 0.0;
  for (const auto& row : rows) {
    if (row.name == "sched.round_us") {
      rounds = static_cast<double>(row.count);
      round_mean = row.value;
    }
  }
  a.other_us = round_mean;
  for (const auto& row : rows) {
    const double per_round =
        rounds > 0.0 ? row.value * static_cast<double>(row.count) / rounds
                     : 0.0;
    a.per_round.push_back(per_round);
    if (row.name != "sched.round_us") a.other_us -= per_round;
  }
  return a;
}

struct E2eComparison {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double speedup = 0.0;
};

E2eComparison CompareEndToEnd() {
  constexpr SimDuration kDur = 20 * kSecond;
  const workload::Trace trace = bench::MixedTrace(4, 150.0, 10.0, kDur);
  E2eComparison e;
  framework::FrameworkOptions serial_opts;
  serial_opts.dss.num_threads = 1;
  framework::FrameworkOptions parallel_opts;
  parallel_opts.dss.num_threads = 0;
  double t = Now();
  const auto rs = bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                                 framework::BeAlgo::kK8sNative, true,
                                 kDur + 5 * kSecond, serial_opts);
  e.serial_s = Now() - t;
  t = Now();
  const auto rp = bench::RunPair(trace, 4, framework::LcAlgo::kDssLc,
                                 framework::BeAlgo::kK8sNative, true,
                                 kDur + 5 * kSecond, parallel_opts);
  e.parallel_s = Now() - t;
  e.speedup = e.parallel_s > 0.0 ? e.serial_s / e.parallel_s : 0.0;
  // Parallel DSS-LC must not change simulation results.
  if (rs.summary.qos_satisfaction != rp.summary.qos_satisfaction) {
    std::printf("  [!!] e2e serial vs parallel summaries diverge\n");
  }
  return e;
}

struct RepsComparison {
  int n = 3;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double speedup = 0.0;
};

RepsComparison CompareRepetitions() {
  constexpr SimDuration kDur = 10 * kSecond;
  const workload::Trace trace = bench::MixedTrace(4, 100.0, 8.0, kDur);
  const std::vector<std::uint64_t> seeds{9, 10, 11};
  RepsComparison reps;
  reps.n = static_cast<int>(seeds.size());
  double t = Now();
  const auto serial = bench::RunPairSeeds(
      trace, 4, framework::LcAlgo::kDssLc, framework::BeAlgo::kK8sNative,
      true, kDur + 5 * kSecond, seeds, /*num_threads=*/1);
  reps.serial_s = Now() - t;
  t = Now();
  const auto parallel = bench::RunPairSeeds(
      trace, 4, framework::LcAlgo::kDssLc, framework::BeAlgo::kK8sNative,
      true, kDur + 5 * kSecond, seeds, /*num_threads=*/0);
  reps.parallel_s = Now() - t;
  reps.speedup = reps.parallel_s > 0.0 ? reps.serial_s / reps.parallel_s : 0.0;
  // Same seeds ⇒ same per-run results whichever pool ran them.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (serial[i].summary.qos_satisfaction !=
        parallel[i].summary.qos_satisfaction) {
      std::printf("  [!!] repetition %zu diverges between pools\n", i);
    }
  }
  return reps;
}

void WriteJson(const char* path, int cores,
               const std::vector<SchedComparison>& sched,
               const E2eComparison& e2e,
               const RepsComparison& reps,
               const std::vector<scope::MetricRow>& phases) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"perf_sched\",\n  "
      << bench::ProvenanceJson(cores) << ",\n  \"sched\": {\n";
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto& c = sched[i];
    out << "    \"" << c.label << "\": {\n"
        << "      \"nodes\": " << c.nodes << ",\n"
        << "      \"queue_per_round\": " << c.queue_len << ",\n"
        << "      \"serial_rounds_per_sec\": " << c.serial.rounds_per_sec
        << ",\n"
        << "      \"parallel_rounds_per_sec\": " << c.parallel.rounds_per_sec
        << ",\n"
        << "      \"speedup\": " << c.speedup << ",\n"
        << "      \"identical_assignments\": "
        << (c.identical ? "true" : "false") << ",\n"
        << "      \"assignment_digest\": \"" << Hex(c.digest) << "\",\n"
        << "      \"steady_state_alloc_events_serial\": "
        << c.serial.steady_alloc_events << ",\n"
        << "      \"steady_state_alloc_events_parallel\": "
        << c.parallel.steady_alloc_events << ",\n"
        << "      \"star_solves\": " << c.serial.stats.star_solves
        << "\n    }" << (i + 1 < sched.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"e2e_sim\": {\n"
      << "    \"serial_wall_s\": " << e2e.serial_s << ",\n"
      << "    \"parallel_wall_s\": " << e2e.parallel_s << ",\n"
      << "    \"speedup\": " << e2e.speedup << "\n  },\n"
      << "  \"repetitions\": {\n"
      << "    \"n\": " << reps.n << ",\n"
      << "    \"serial_wall_s\": " << reps.serial_s << ",\n"
      << "    \"parallel_wall_s\": " << reps.parallel_s << ",\n"
      << "    \"speedup\": " << reps.speedup << "\n  },\n"
      << "  \"phase_profile_us\": {\n";
  const PhaseAttribution attribution = Attribute(phases);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    out << "    \"" << p.name << "\": {\"count\": " << p.count
        << ", \"mean\": " << p.value << ", \"p50\": " << p.p50
        << ", \"p95\": " << p.p95 << ", \"p99\": " << p.p99
        << ", \"per_round\": " << attribution.per_round[i] << "},\n";
  }
  out << "    \"other\": {\"per_round\": " << attribution.other_us
      << "}\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int nodes_override = 0;
  int queue_override = 0;
  for (int i = 1; i < argc; ++i) {
    const auto next_int = [&](int fallback) {
      return i + 1 < argc ? std::atoi(argv[++i]) : fallback;
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes_override = next_int(0);
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      queue_override = next_int(0);
    } else {
      std::fprintf(stderr, "usage: perf_sched [--smoke] [--nodes N] "
                           "[--queue Q]\n");
      return 2;
    }
  }
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("perf_sched — DSS-LC scheduling core (host: %d cores)%s\n\n",
              cores, smoke ? "  [smoke]" : "");
  bool ok = true;

  struct Config {
    const char* label;
    int clusters, workers, queue, rounds;
  };
  std::vector<Config> configs;
  const bool custom = !smoke && (nodes_override > 0 || queue_override > 0);
  if (smoke) {
    configs.push_back({"smoke", 2, 4, 128, 10});
  } else if (custom) {
    // ~N workers at 16 per cluster; queue defaults to the large config's.
    const int nodes = nodes_override > 0 ? nodes_override : 256;
    const int queue = queue_override > 0 ? queue_override : 4096;
    configs.push_back({"custom", std::max(1, (nodes + 15) / 16), 16, queue,
                       10});
  } else {
    configs.push_back({"small", 4, 4, 256, 60});
    configs.push_back({"large", 16, 16, 4096, 15});
    configs.push_back({"huge", 64, 16, 16384, 8});
  }

  std::vector<SchedComparison> sched;
  for (const auto& c : configs) {
    sched.push_back(
        CompareSched(c.label, c.clusters, c.workers, c.queue, c.rounds));
  }

  std::vector<std::vector<std::string>> rows;
  for (const auto& c : sched) {
    rows.push_back({c.label, std::to_string(c.nodes),
                    std::to_string(c.queue_len),
                    eval::Fmt(c.serial.rounds_per_sec, 1),
                    eval::Fmt(c.parallel.rounds_per_sec, 1),
                    eval::Fmt(c.speedup, 2) + "x",
                    c.identical ? "yes" : "NO",
                    std::to_string(c.serial.steady_alloc_events) + "/" +
                        std::to_string(c.parallel.steady_alloc_events)});
  }
  eval::PrintTable(
      "DSS-LC rounds/sec, serial vs parallel",
      {"cluster", "nodes", "queue", "serial r/s", "parallel r/s", "speedup",
       "identical", "steady allocs (s/p)"},
      rows);

  for (const auto& c : sched) {
    std::printf("  assignment digest (%s): %s\n", c.label,
                Hex(c.digest).c_str());
  }

  // Per-phase wall-clock breakdown of a round on the large cluster view —
  // where a scheduling round actually spends its time.
  std::vector<scope::MetricRow> phases;
  if (!smoke) {
    phases = ProfilePhases(MakeStorage(16, 16, 77), /*queue_len=*/4096,
                           /*rounds=*/20);
    const PhaseAttribution attribution = Attribute(phases);
    std::vector<std::vector<std::string>> phase_rows;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const auto& p = phases[i];
      phase_rows.push_back({p.name, std::to_string(p.count),
                            eval::Fmt(p.value, 1), eval::Fmt(p.p50, 1),
                            eval::Fmt(p.p95, 1), eval::Fmt(p.p99, 1),
                            eval::Fmt(attribution.per_round[i], 1)});
    }
    phase_rows.push_back({"other (round - phases)", "-", "-", "-", "-", "-",
                          eval::Fmt(attribution.other_us, 1)});
    eval::PrintTable("DSS-LC round phase profile (µs, large cluster)",
                     {"phase", "samples", "mean", "p50", "p95", "p99",
                      "per round"},
                     phase_rows);
  }

  E2eComparison e2e;
  RepsComparison reps;
  if (!smoke) {
    e2e = CompareEndToEnd();
    reps = CompareRepetitions();
    std::printf("\n== end-to-end ==\n");
    std::printf("  sim wall time     serial %.2fs  parallel %.2fs  (%.2fx)\n",
                e2e.serial_s, e2e.parallel_s, e2e.speedup);
    std::printf("  3 reps wall time  serial %.2fs  parallel %.2fs  (%.2fx)\n",
                reps.serial_s, reps.parallel_s, reps.speedup);
  }

  std::printf("\n");
  for (const auto& c : sched) {
    bench::PaperCheck((std::string("parallel == serial (") + c.label + ")")
                          .c_str(),
                      "byte-identical assignments",
                      c.identical ? "identical" : "DIVERGED", c.identical);
    const bool no_alloc = c.serial.steady_alloc_events == 0 &&
                          c.parallel.steady_alloc_events == 0;
    bench::PaperCheck((std::string("steady-state allocations (") + c.label +
                       ")")
                          .c_str(),
                      "0 solver-scratch allocations",
                      std::to_string(c.serial.steady_alloc_events) + "/" +
                          std::to_string(c.parallel.steady_alloc_events),
                      no_alloc);
    ok = ok && c.identical && no_alloc;
  }
  const auto& large = sched.back();
  if (smoke) {
    // Throughput targets are meaningless at smoke scale; only the
    // invariants above gate.
  } else if (cores >= 4) {
    bench::PaperCheck("large-cluster scheduling speedup", ">= 2x on >=4 cores",
                      eval::Fmt(large.speedup, 2) + "x", large.speedup >= 2.0);
  } else {
    std::printf("  [--] speedup target (>=2x) applies to >=4-core hosts; "
                "this host has %d (measured %.2fx)\n",
                cores, large.speedup);
  }

  if (!smoke && bench::ShouldWriteBench("BENCH_sched.json", cores)) {
    WriteJson("BENCH_sched.json", cores, sched, e2e, reps, phases);
    std::printf("\nwrote BENCH_sched.json\n");
  }
  if (!ok) {
    std::printf("\nFAILED: identity or allocation invariant violated\n");
    return 1;
  }
  return 0;
}
