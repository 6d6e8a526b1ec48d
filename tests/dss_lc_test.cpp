// Tests for DSS-LC (Algorithm 2): graph construction, the capacity and
// overload cases, the augmentation factor λ (Eq. 8), and edge capacities.
#include <gtest/gtest.h>

#include <map>

#include "sched/dss_lc.h"

namespace tango::sched {
namespace {

using k8s::Assignment;
using k8s::PendingRequest;
using metrics::NodeSnapshot;
using metrics::StateStorage;
using workload::ServiceCatalog;

struct DssFixture : public ::testing::Test {
  void SetUp() override { catalog = ServiceCatalog::Standard(); }

  /// Add a worker snapshot with given available cpu/mem and cluster RTT.
  void AddWorker(StateStorage& st, int node, int cluster, Millicores cpu_av,
                 MiB mem_av, SimDuration rtt,
                 Millicores cpu_total = 8000, MiB mem_total = 16384) {
    NodeSnapshot s;
    s.node = NodeId{node};
    s.cluster = ClusterId{cluster};
    s.cpu_total = cpu_total;
    s.cpu_available = cpu_av;
    s.mem_total = mem_total;
    s.mem_available = mem_av;
    st.Update(s);
    st.UpdateRtt(ClusterId{cluster}, rtt);
  }

  std::vector<PendingRequest> Queue(int count, int svc = 3) {
    std::vector<PendingRequest> q;
    for (int i = 0; i < count; ++i) {
      PendingRequest p;
      p.request.id = RequestId{i};
      p.request.service = ServiceId{svc};
      p.request.origin = ClusterId{0};
      p.request.arrival = 0;
      q.push_back(p);
    }
    return q;
  }

  static std::map<std::int32_t, int> CountByNode(
      const std::vector<Assignment>& as) {
    std::map<std::int32_t, int> counts;
    for (const auto& a : as) counts[a.target.value] += 1;
    return counts;
  }

  ServiceCatalog catalog;
};

TEST_F(DssFixture, AssignsAllWhenCapacitySuffices) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // svc 3 needs 200 mc / 128 MiB; each worker fits 10 by CPU.
  AddWorker(st, 1, 0, 2000, 4096, kMillisecond);
  AddWorker(st, 2, 0, 2000, 4096, kMillisecond);
  const auto as = dss.Schedule(ClusterId{0}, Queue(8), st, 0);
  EXPECT_EQ(as.size(), 8u);
  // No node receives more than its capacity (10).
  for (const auto& [node, count] : CountByNode(as)) EXPECT_LE(count, 10);
  EXPECT_EQ(dss.overflow_routed(), 0);
}

TEST_F(DssFixture, PrefersLowDelayNodesWhenCapacityAmple) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);          // local, 0.5 ms
  AddWorker(st, 2, 1, 4000, 8192, 80 * kMillisecond);     // far, 40 ms
  const auto as = dss.Schedule(ClusterId{0}, Queue(10), st, 0);
  const auto counts = CountByNode(as);
  // All 10 fit locally (capacity 20); min-cost flow must keep them local.
  EXPECT_EQ(counts.count(2), 0u);
  EXPECT_EQ(counts.at(1), 10);
}

TEST_F(DssFixture, SpillsToRemoteWhenLocalSaturated) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 600, 8192, kMillisecond);        // fits 3
  AddWorker(st, 2, 1, 4000, 8192, 40 * kMillisecond);  // fits 20
  const auto as = dss.Schedule(ClusterId{0}, Queue(10), st, 0);
  const auto counts = CountByNode(as);
  EXPECT_EQ(counts.at(1), 3);
  EXPECT_EQ(counts.at(2), 7);
}

TEST_F(DssFixture, CapacityRespectsMemoryDimension) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // CPU would fit 10, memory only 2 (svc 3 needs 128 MiB).
  AddWorker(st, 1, 0, 2000, 256, kMillisecond);
  const auto as = dss.Schedule(ClusterId{0}, Queue(8), st, 0);
  // Eq. 2: t_i = -min(cpu_av/r_c, mem_av/r_m) = -2 immediate; the other 6
  // go through the overflow graph onto the same node (it is the only one).
  EXPECT_EQ(as.size(), 8u);
  EXPECT_GT(dss.overflow_routed(), 0);
}

TEST_F(DssFixture, OverloadSplitsAndComputesLambda) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // Each worker immediately fits 2 (400 mc avail / 200), totals fit 40.
  AddWorker(st, 1, 0, 400, 4096, kMillisecond, 8000, 16384);
  AddWorker(st, 2, 0, 400, 4096, kMillisecond, 8000, 16384);
  const auto as = dss.Schedule(ClusterId{0}, Queue(12), st, 0);
  // 4 immediate + 8 overflow, all dispatched (Alg. 2 dispatches both sets).
  EXPECT_EQ(as.size(), 12u);
  EXPECT_EQ(dss.overflow_routed(), 8);
  // λ = overflow / Σ total capacities = 8 / (40+40).
  EXPECT_NEAR(dss.last_lambda(), 8.0 / 80.0, 1e-9);
}

TEST_F(DssFixture, OverflowSpreadsByTotalResources) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  // No immediate capacity anywhere; node 2 has 3× the total resources of
  // node 1 and should receive ~3× of the queued overflow (Eq. 7).
  AddWorker(st, 1, 0, 0, 0, kMillisecond, 2000, 4096);
  AddWorker(st, 2, 0, 0, 0, kMillisecond, 6000, 12288);
  const auto as = dss.Schedule(ClusterId{0}, Queue(12), st, 0);
  EXPECT_EQ(as.size(), 12u);
  const auto counts = CountByNode(as);
  EXPECT_GT(counts.at(2), counts.at(1));
  EXPECT_NEAR(static_cast<double>(counts.at(2)) /
                  static_cast<double>(counts.at(1)),
              3.0, 1.2);
}

TEST_F(DssFixture, EdgeCapacityBoundsPerRoundTransfers) {
  DssLcConfig cfg;
  cfg.edge_capacity = 3;  // Eq. 4: at most 3 requests per (master, node) arc
  DssLcScheduler dss(&catalog, cfg);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  AddWorker(st, 2, 0, 4000, 8192, kMillisecond);
  const auto as = dss.Schedule(ClusterId{0}, Queue(10), st, 0);
  const auto counts = CountByNode(as);
  for (const auto& [node, count] : counts) EXPECT_LE(count, 3);
  EXPECT_LE(as.size(), 6u);
}

TEST_F(DssFixture, HandlesMultipleServiceTypesIndependently) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  std::vector<PendingRequest> q;
  for (int i = 0; i < 6; ++i) {
    PendingRequest p;
    p.request.id = RequestId{i};
    p.request.service = ServiceId{i % 3};  // three LC types
    p.request.origin = ClusterId{0};
    q.push_back(p);
  }
  const auto as = dss.Schedule(ClusterId{0}, q, st, 0);
  EXPECT_EQ(as.size(), 6u);
  // All 6 distinct request ids covered exactly once.
  std::set<std::int32_t> seen;
  for (const auto& a : as) seen.insert(a.request.value);
  EXPECT_EQ(seen.size(), 6u);
}

TEST_F(DssFixture, EmptyStorageAssignsNothing) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  const auto as = dss.Schedule(ClusterId{0}, Queue(5), st, 0);
  EXPECT_TRUE(as.empty());
}

TEST_F(DssFixture, EmptyQueueIsANoop) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  EXPECT_TRUE(dss.Schedule(ClusterId{0}, {}, st, 0).empty());
}

TEST_F(DssFixture, RecordsDecisionTiming) {
  DssLcScheduler dss(&catalog);
  StateStorage st;
  AddWorker(st, 1, 0, 4000, 8192, kMillisecond);
  dss.Schedule(ClusterId{0}, Queue(5), st, 0);
  dss.Schedule(ClusterId{0}, Queue(5), st, 0);
  EXPECT_EQ(dss.decisions(), 2);
  EXPECT_GT(dss.decision_seconds(), 0.0);
}

class SplitPolicyTest : public DssFixture,
                        public ::testing::WithParamInterface<SplitPolicy> {};

TEST_P(SplitPolicyTest, OverloadStillDispatchesEverything) {
  DssLcConfig cfg;
  cfg.split_policy = GetParam();
  DssLcScheduler dss(&catalog, cfg);
  StateStorage st;
  AddWorker(st, 1, 0, 400, 4096, kMillisecond, 4000, 8192);
  auto q = Queue(10);
  // Stagger arrivals so the FIFO order is distinct from id order.
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i].request.arrival = static_cast<SimTime>((10 - i) * kMillisecond);
  }
  const auto as = dss.Schedule(ClusterId{0}, q, st, 20 * kMillisecond);
  EXPECT_EQ(as.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SplitPolicyTest,
                         ::testing::Values(SplitPolicy::kRandom,
                                           SplitPolicy::kFifo),
                         [](const auto& param_info) {
                           return std::string(
                               SplitPolicyName(param_info.param));
                         });

// ---- Parallel scheduling core ---------------------------------------------

class ParallelDssFixture : public DssFixture {
 protected:
  /// Mixed-type queue: several LC types, staggered arrivals, enough load to
  /// trigger the overload split on the smaller storages.
  std::vector<PendingRequest> MixedQueue(int count, SimTime base) {
    std::vector<PendingRequest> q;
    for (int i = 0; i < count; ++i) {
      PendingRequest p;
      p.request.id = RequestId{i};
      p.request.service = ServiceId{i % 5};  // five LC types
      p.request.origin = ClusterId{0};
      p.request.arrival = base + (i % 7) * kMillisecond;
      q.push_back(p);
    }
    return q;
  }

  StateStorage MakeStorage(int nodes, std::uint64_t seed) {
    StateStorage st;
    Rng rng(seed);
    for (int i = 0; i < nodes; ++i) {
      AddWorker(st, i + 1, i % 4, rng.UniformInt(200, 4000),
                rng.UniformInt(512, 8192),
                rng.UniformInt(1, 40) * kMillisecond);
    }
    return st;
  }

  static void ExpectSameAssignments(const std::vector<Assignment>& a,
                                    const std::vector<Assignment>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].request.value, b[i].request.value) << "index " << i;
      EXPECT_EQ(a[i].target.value, b[i].target.value) << "index " << i;
    }
  }
};

TEST_F(ParallelDssFixture, ParallelIsByteIdenticalToSerial) {
  // The determinism contract: per-type RNG streams + round-start state view
  // + sorted merge ⇒ identical output for any thread count, across seeds,
  // split policies, and multiple rounds (overloaded and not).
  for (const std::uint64_t seed : {1ull, 97ull, 4242ull}) {
    for (const auto policy : {SplitPolicy::kRandom, SplitPolicy::kFifo}) {
      DssLcConfig serial_cfg;
      serial_cfg.seed = seed;
      serial_cfg.split_policy = policy;
      serial_cfg.num_threads = 1;
      DssLcConfig parallel_cfg = serial_cfg;
      parallel_cfg.num_threads = 4;
      DssLcScheduler serial(&catalog, serial_cfg);
      DssLcScheduler parallel(&catalog, parallel_cfg);
      EXPECT_EQ(serial.concurrency(), 1);
      EXPECT_EQ(parallel.concurrency(), 4);

      StateStorage st = MakeStorage(12, seed + 1);
      for (int round = 0; round < 4; ++round) {
        const SimTime now = round * 100 * kMillisecond;
        const auto q = MixedQueue(round % 2 == 0 ? 60 : 400, now);
        const auto a = serial.Schedule(ClusterId{0}, q, st, now);
        const auto b = parallel.Schedule(ClusterId{0}, q, st, now);
        ExpectSameAssignments(a, b);
      }
      EXPECT_EQ(serial.overflow_routed(), parallel.overflow_routed());
      EXPECT_DOUBLE_EQ(serial.last_lambda(), parallel.last_lambda());
    }
  }
}

TEST_F(ParallelDssFixture, AutoThreadCountAlsoMatchesSerial) {
  DssLcConfig serial_cfg;
  serial_cfg.num_threads = 1;
  DssLcConfig auto_cfg;
  auto_cfg.num_threads = 0;  // hardware concurrency
  DssLcScheduler serial(&catalog, serial_cfg);
  DssLcScheduler parallel(&catalog, auto_cfg);
  EXPECT_GE(parallel.concurrency(), 2);
  StateStorage st = MakeStorage(8, 5);
  const auto q = MixedQueue(120, 0);
  ExpectSameAssignments(serial.Schedule(ClusterId{0}, q, st, 0),
                        parallel.Schedule(ClusterId{0}, q, st, 0));
}

TEST_F(ParallelDssFixture, SteadyStateRoundsAllocateNoGraphStorage) {
  DssLcConfig cfg;
  cfg.num_threads = 4;
  DssLcScheduler dss(&catalog, cfg);
  StateStorage st = MakeStorage(16, 11);
  // Warm-up rounds grow each pool slot's scratch to the working set.
  for (int round = 0; round < 3; ++round) {
    dss.Schedule(ClusterId{0}, MixedQueue(200, round * 100 * kMillisecond),
                 st, round * 100 * kMillisecond);
  }
  const auto warm = dss.solver_pool_stats();
  EXPECT_EQ(warm.solvers, 4);  // one scratch per pool slot
  EXPECT_GT(warm.solves, 0);
  EXPECT_EQ(warm.star_solves, warm.solves);
  for (int round = 3; round < 10; ++round) {
    dss.Schedule(ClusterId{0}, MixedQueue(200, round * 100 * kMillisecond),
                 st, round * 100 * kMillisecond);
  }
  const auto steady = dss.solver_pool_stats();
  EXPECT_GT(steady.solves, warm.solves);
  EXPECT_EQ(steady.alloc_events, warm.alloc_events)
      << "steady-state rounds must reuse solver scratch, not allocate";
}

/// FNV-1a step over the four little-endian bytes of `v`.
std::uint64_t FoldInt(std::uint64_t h, std::int32_t v) {
  auto u = static_cast<std::uint32_t>(v);
  for (int byte = 0; byte < 4; ++byte) {
    h = (h ^ (u & 0xFFu)) * 1099511628211ULL;
    u >>= 8;
  }
  return h;
}

/// FNV-1a over every assignment's (request, target) in emission order.
std::uint64_t FoldAssignments(std::uint64_t h,
                              const std::vector<Assignment>& as) {
  h = FoldInt(h, static_cast<std::int32_t>(as.size()));
  for (const auto& a : as) {
    h = FoldInt(h, a.request.value);
    h = FoldInt(h, a.target.value);
  }
  return h;
}

TEST_F(ParallelDssFixture, DriftingRoundsMatchPinnedDigest) {
  // Twelve rounds whose load, commitments and hence every graph's
  // capacities drift between rounds, oscillating between the underload
  // single-graph case and the overload split. The digest was captured
  // from the generic-graph implementation this kernel replaced; any
  // change to routing, tie-breaking or the overload split moves it.
  DssLcScheduler dss(&catalog);
  StateStorage st = MakeStorage(12, 29);
  std::uint64_t digest = 14695981039346656037ULL;
  for (int round = 0; round < 12; ++round) {
    const SimTime now = round * 100 * kMillisecond;
    const int depth = (round % 3 == 0) ? 500 : 40 + 15 * round;
    digest = FoldAssignments(
        digest, dss.Schedule(ClusterId{0}, MixedQueue(depth, now), st, now));
  }
  EXPECT_EQ(digest, 0xd9b72c0e5a461556ULL)
      << std::hex << "digest 0x" << digest;
  EXPECT_GT(dss.overflow_routed(), 0);
}

TEST_F(ParallelDssFixture, SparseChurnRoundsMatchPinnedDigest) {
  // Commitment bookkeeping under churn. NodeIds start far above zero with
  // gaps; every round one node dies, one drains and one cluster is cut
  // off, and each comes back later; idle gaps of 2.9-10 s decay
  // commitments to erasure before deep queues re-create them and push
  // several types into the overflow graph. The digest folds each round's
  // assignments, the live commitment-entry count (also at every decay
  // probe) and the overflow total; it was captured from the map-based
  // commitment store.
  DssLcScheduler dss(&catalog);
  StateStorage st;
  std::vector<int> ids;
  for (int i = 0; i < 14; ++i) ids.push_back(70000 + 37 * i + 1000 * (i % 3));
  Rng rng(61);
  const auto push = [&](std::size_t i, SimTime now, bool alive,
                        bool draining) {
    NodeSnapshot s;
    s.node = NodeId{ids[i]};
    s.cluster = ClusterId{static_cast<std::int32_t>(i % 4)};
    s.cpu_total = 4000 + 1000 * static_cast<Millicores>(i % 3);
    s.cpu_available = rng.UniformInt(0, s.cpu_total);
    s.mem_total = 8192;
    s.mem_available = rng.UniformInt(256, 8192);
    s.queued = static_cast<int>(rng.UniformInt(0, 3));
    s.alive = alive;
    s.draining = draining;
    s.recorded_at = now;
    st.Update(s);
  };
  NodeSnapshot master;
  master.node = NodeId{69999};
  master.is_master = true;
  master.cpu_total = master.cpu_available = 8000;
  st.Update(master);
  for (int c = 0; c < 4; ++c) {
    st.UpdateRtt(ClusterId{c}, (2 + 9 * c) * kMillisecond);
  }
  constexpr SimDuration kGaps[] = {100 * kMillisecond, 2900 * kMillisecond,
                                   100 * kMillisecond, 3400 * kMillisecond,
                                   100 * kMillisecond, 10 * kSecond};
  std::uint64_t digest = 14695981039346656037ULL;
  bool partly_erased = false;
  bool erased_all = false;
  bool recreated = false;
  SimTime now = 0;
  for (int round = 0; round < 30; ++round) {
    const auto n = ids.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = static_cast<std::size_t>(round);
      push(i, now, /*alive=*/i != r % n, /*draining=*/i == (r + 5) % n);
    }
    st.MarkClusterReachability(ClusterId{round % 4}, false);
    st.MarkClusterReachability(ClusterId{(round + 3) % 4}, true);
    const int depth = (round % 4 == 1) ? 700 : 25 + 11 * (round % 5);
    digest = FoldAssignments(
        digest, dss.Schedule(ClusterId{0}, MixedQueue(depth, now), st, now));
    const auto entries = static_cast<std::int32_t>(dss.committed_entries());
    digest = FoldInt(digest, entries);
    digest = FoldInt(digest, static_cast<std::int32_t>(dss.overflow_routed()));
    recreated = recreated || (erased_all && entries > 0);
    const SimDuration gap = kGaps[round % 6];
    if (gap > kSecond) {
      // Empty rounds step through a long gap. Each runs only the decay
      // pass, so the entry count shows CPU and memory entries crossing the
      // epsilon at different times.
      for (SimDuration t = 25 * kMillisecond; t <= gap;
           t += 25 * kMillisecond) {
        dss.Schedule(ClusterId{0}, {}, st, now + t);
        const auto left = static_cast<std::int32_t>(dss.committed_entries());
        digest = FoldInt(digest, left);
        partly_erased = partly_erased || left % 2 == 1;
        erased_all = erased_all || left == 0;
      }
    }
    now += gap;
  }
  EXPECT_EQ(digest, 0xfdb93b0d3990229cULL) << std::hex << "digest 0x" << digest;
  EXPECT_TRUE(partly_erased);
  EXPECT_TRUE(erased_all);
  EXPECT_TRUE(recreated);
  EXPECT_GT(dss.overflow_routed(), 0);
}

TEST_F(ParallelDssFixture, CommittedMapsAreBoundedByDecayEviction) {
  DssLcScheduler dss(&catalog);
  StateStorage st = MakeStorage(10, 3);
  dss.Schedule(ClusterId{0}, MixedQueue(50, 0), st, 0);
  EXPECT_GT(dss.committed_entries(), 0u);
  // ~80 half-lives later every commitment is far below the epsilon; the
  // decay pass must erase the entries, not keep scaling them forever.
  dss.Schedule(ClusterId{0}, {}, st, 10 * kSecond);
  EXPECT_EQ(dss.committed_entries(), 0u);
}

}  // namespace
}  // namespace tango::sched
