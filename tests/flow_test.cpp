// Unit + property tests for the min-cost max-flow solver (DSS-LC's engine).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flow/mcmf.h"

namespace tango::flow {
namespace {

TEST(Mcmf, SingleArc) {
  MinCostMaxFlow g(2);
  const int a = g.AddArc(0, 1, 5, 3);
  const auto r = g.Solve(0, 1);
  EXPECT_EQ(r.max_flow, 5);
  EXPECT_EQ(r.total_cost, 15);
  EXPECT_EQ(g.Flow(a), 5);
  EXPECT_EQ(g.Residual(a), 0);
}

TEST(Mcmf, PrefersCheaperPath) {
  // Two parallel paths: cost 1 (cap 3) and cost 10 (cap 3); ask for 4 units.
  MinCostMaxFlow g(4);
  const int cheap1 = g.AddArc(0, 1, 3, 1);
  g.AddArc(1, 3, 3, 0);
  const int dear1 = g.AddArc(0, 2, 3, 10);
  g.AddArc(2, 3, 3, 0);
  const auto r = g.Solve(0, 3, 4);
  EXPECT_EQ(r.max_flow, 4);
  EXPECT_EQ(r.total_cost, 3 * 1 + 1 * 10);
  EXPECT_EQ(g.Flow(cheap1), 3);
  EXPECT_EQ(g.Flow(dear1), 1);
  EXPECT_TRUE(r.saturated);
}

TEST(Mcmf, RespectsAmountLimit) {
  MinCostMaxFlow g(2);
  g.AddArc(0, 1, 100, 1);
  const auto r = g.Solve(0, 1, 7);
  EXPECT_EQ(r.max_flow, 7);
  EXPECT_EQ(r.total_cost, 7);
}

TEST(Mcmf, ReportsUnsaturatedWhenCapacityShort) {
  MinCostMaxFlow g(3);
  g.AddArc(0, 1, 2, 1);
  g.AddArc(1, 2, 2, 1);
  const auto r = g.Solve(0, 2, 10);
  EXPECT_EQ(r.max_flow, 2);
  EXPECT_FALSE(r.saturated);
}

TEST(Mcmf, DisconnectedGraphMovesNothing) {
  MinCostMaxFlow g(4);
  g.AddArc(0, 1, 5, 1);
  g.AddArc(2, 3, 5, 1);
  const auto r = g.Solve(0, 3);
  EXPECT_EQ(r.max_flow, 0);
  EXPECT_EQ(r.total_cost, 0);
}

TEST(Mcmf, HandlesNegativeCosts) {
  // Taking the negative-cost detour must be preferred.
  MinCostMaxFlow g(3);
  const int direct = g.AddArc(0, 2, 1, 5);
  const int via_a = g.AddArc(0, 1, 1, -2);
  g.AddArc(1, 2, 1, 1);
  const auto r = g.Solve(0, 2, 1);
  EXPECT_EQ(r.max_flow, 1);
  EXPECT_EQ(r.total_cost, -1);
  EXPECT_EQ(g.Flow(via_a), 1);
  EXPECT_EQ(g.Flow(direct), 0);
}

TEST(Mcmf, BottleneckLimitsThroughput) {
  MinCostMaxFlow g(4);
  g.AddArc(0, 1, 10, 0);
  g.AddArc(1, 2, 3, 0);  // bottleneck
  g.AddArc(2, 3, 10, 0);
  EXPECT_EQ(g.Solve(0, 3).max_flow, 3);
}

TEST(Mcmf, ResetFlowRestoresCapacity) {
  MinCostMaxFlow g(2);
  const int a = g.AddArc(0, 1, 5, 2);
  g.Solve(0, 1);
  EXPECT_EQ(g.Residual(a), 0);
  g.ResetFlow();
  EXPECT_EQ(g.Residual(a), 5);
  const auto r = g.Solve(0, 1, 2);
  EXPECT_EQ(r.max_flow, 2);
  EXPECT_EQ(r.total_cost, 4);
}

TEST(Mcmf, ZeroCapacityArcUnused) {
  MinCostMaxFlow g(2);
  const int a = g.AddArc(0, 1, 0, 1);
  EXPECT_EQ(g.Solve(0, 1).max_flow, 0);
  EXPECT_EQ(g.Flow(a), 0);
}

TEST(Mcmf, TransportationProblemMatchesKnownOptimum) {
  // 2 sources (supply 3, 2) → 3 sinks (demand 2, 2, 1) with a cost matrix;
  // optimum computed by hand: assign greedily by cost with capacities.
  //        d0 d1 d2
  //   s0:   1  4  6     supply 3
  //   s1:   3  2  5     supply 2
  // Optimal: s0→d0:2, s0→d2:1, s1→d1:2 → 2·1 + 1·6 + 2·2 = 12.
  MinCostMaxFlow g(7);  // 0 src, 1-2 sources, 3-5 sinks, 6 sink
  g.AddArc(0, 1, 3, 0);
  g.AddArc(0, 2, 2, 0);
  const int c00 = g.AddArc(1, 3, 5, 1);
  g.AddArc(1, 4, 5, 4);
  const int c02 = g.AddArc(1, 5, 5, 6);
  g.AddArc(2, 3, 5, 3);
  const int c11 = g.AddArc(2, 4, 5, 2);
  g.AddArc(2, 5, 5, 5);
  g.AddArc(3, 6, 2, 0);
  g.AddArc(4, 6, 2, 0);
  g.AddArc(5, 6, 1, 0);
  const auto r = g.Solve(0, 6, 5);
  EXPECT_EQ(r.max_flow, 5);
  EXPECT_EQ(r.total_cost, 12);
  EXPECT_EQ(g.Flow(c00), 2);
  EXPECT_EQ(g.Flow(c02), 1);
  EXPECT_EQ(g.Flow(c11), 2);
}

// ---- Property test: optimal cost on random bipartite instances matches an
// exhaustive assignment search.

struct Instance {
  int workers;
  std::vector<std::int64_t> cap;
  std::vector<std::int64_t> cost;
  std::int64_t amount;
};

std::int64_t BruteForceMinCost(const Instance& in) {
  // Requests are identical units: enumerate worker load vectors recursively.
  std::int64_t best = -1;
  std::vector<std::int64_t> load(static_cast<std::size_t>(in.workers), 0);
  std::function<void(int, std::int64_t, std::int64_t)> rec =
      [&](int w, std::int64_t remaining, std::int64_t cost_so_far) {
        if (w == in.workers) {
          if (remaining == 0 && (best < 0 || cost_so_far < best)) {
            best = cost_so_far;
          }
          return;
        }
        const std::int64_t maxu =
            std::min(remaining, in.cap[static_cast<std::size_t>(w)]);
        for (std::int64_t u = 0; u <= maxu; ++u) {
          rec(w + 1, remaining - u,
              cost_so_far + u * in.cost[static_cast<std::size_t>(w)]);
        }
      };
  rec(0, in.amount, 0);
  return best;
}

TEST(McmfProperty, MatchesBruteForceOnRandomStarInstances) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    Instance in;
    in.workers = static_cast<int>(rng.UniformInt(2, 5));
    std::int64_t total_cap = 0;
    for (int w = 0; w < in.workers; ++w) {
      in.cap.push_back(rng.UniformInt(0, 4));
      in.cost.push_back(rng.UniformInt(1, 20));
      total_cap += in.cap.back();
    }
    if (total_cap == 0) continue;
    in.amount = rng.UniformInt(1, total_cap);

    MinCostMaxFlow g(in.workers + 2);
    const int src = 0, snk = in.workers + 1;
    for (int w = 0; w < in.workers; ++w) {
      g.AddArc(src, 1 + w, in.cap[static_cast<std::size_t>(w)],
               in.cost[static_cast<std::size_t>(w)]);
      g.AddArc(1 + w, snk, in.cap[static_cast<std::size_t>(w)], 0);
    }
    const auto r = g.Solve(src, snk, in.amount);
    ASSERT_EQ(r.max_flow, in.amount) << "trial " << trial;
    EXPECT_EQ(r.total_cost, BruteForceMinCost(in)) << "trial " << trial;
  }
}

TEST(McmfProperty, FlowConservationOnRandomGraphs) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(4, 10));
    MinCostMaxFlow g(n);
    struct ArcRef {
      int id, from, to;
    };
    std::vector<ArcRef> arcs;
    for (int e = 0; e < 3 * n; ++e) {
      const int u = static_cast<int>(rng.UniformInt(0, n - 1));
      const int v = static_cast<int>(rng.UniformInt(0, n - 1));
      if (u == v) continue;
      const int id = g.AddArc(u, v, rng.UniformInt(0, 5),
                              rng.UniformInt(0, 9));
      arcs.push_back({id, u, v});
    }
    const auto r = g.Solve(0, n - 1);
    // Conservation: net flow out of each internal node is zero.
    std::map<int, std::int64_t> net;
    for (const auto& a : arcs) {
      net[a.from] += g.Flow(a.id);
      net[a.to] -= g.Flow(a.id);
    }
    for (int v = 1; v + 1 < n; ++v) {
      EXPECT_EQ(net[v], 0) << "node " << v << " trial " << trial;
    }
    EXPECT_EQ(net[0], r.max_flow);
    EXPECT_EQ(net[n - 1], -r.max_flow);
    // Capacity: flow never exceeds the arc's initial capacity.
    for (const auto& a : arcs) {
      EXPECT_GE(g.Flow(a.id), 0);
    }
  }
}

// ---- Solver reuse (Reset) ---------------------------------------------------

// Build a small two-path instance parameterized by cost so "graph A" and
// "graph B" are genuinely different problems.
struct TwoPath {
  int cheap, dear;
  MinCostMaxFlow::Result result;
};
TwoPath BuildAndSolve(MinCostMaxFlow& g, CostUnit cheap_cost,
                      CostUnit dear_cost, FlowUnit amount) {
  TwoPath t;
  t.cheap = g.AddArc(0, 1, 3, cheap_cost);
  g.AddArc(1, 3, 3, 0);
  t.dear = g.AddArc(0, 2, 3, dear_cost);
  g.AddArc(2, 3, 3, 0);
  t.result = g.Solve(0, 3, amount);
  return t;
}

TEST(McmfReuse, ResetSolvesSecondGraphIdenticallyToFreshSolver) {
  MinCostMaxFlow reused(4);
  BuildAndSolve(reused, 1, 10, 4);  // graph A, discarded
  reused.Reset(4);
  const auto via_reuse = BuildAndSolve(reused, 2, 7, 5);  // graph B

  MinCostMaxFlow fresh(4);
  const auto via_fresh = BuildAndSolve(fresh, 2, 7, 5);

  EXPECT_EQ(via_reuse.result.max_flow, via_fresh.result.max_flow);
  EXPECT_EQ(via_reuse.result.total_cost, via_fresh.result.total_cost);
  EXPECT_EQ(via_reuse.result.saturated, via_fresh.result.saturated);
  EXPECT_EQ(reused.Flow(via_reuse.cheap), fresh.Flow(via_fresh.cheap));
  EXPECT_EQ(reused.Flow(via_reuse.dear), fresh.Flow(via_fresh.dear));
}

TEST(McmfReuse, ResetCanShrinkAndGrowTheNodeCount) {
  MinCostMaxFlow g(8);
  g.AddArc(0, 7, 2, 1);
  g.Solve(0, 7);
  g.Reset(2);  // shrink
  const int a = g.AddArc(0, 1, 5, 3);
  EXPECT_EQ(g.Solve(0, 1).max_flow, 5);
  EXPECT_EQ(g.Flow(a), 5);
  g.Reset(16);  // grow past the original size
  g.AddArc(0, 15, 4, 2);
  EXPECT_EQ(g.Solve(0, 15).max_flow, 4);
}

TEST(McmfReuse, DefaultConstructedSolverWorksAfterReset) {
  MinCostMaxFlow g;
  EXPECT_EQ(g.num_nodes(), 0);
  g.Reset(3);
  g.AddArc(0, 1, 2, 1);
  g.AddArc(1, 2, 2, 1);
  const auto r = g.Solve(0, 2);
  EXPECT_EQ(r.max_flow, 2);
  EXPECT_EQ(r.total_cost, 4);
}

TEST(McmfReuse, RandomGraphsMatchFreshSolverAfterReuse) {
  // Property check: a solver cycled through random graphs returns the same
  // optimum a fresh solver does on every instance.
  Rng rng(1234);
  MinCostMaxFlow reused(1);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 4 + static_cast<int>(rng.UniformInt(0, 6));
    std::vector<std::array<std::int64_t, 4>> arcs;
    for (int e = 0; e < 3 * n; ++e) {
      const auto u = rng.UniformInt(0, n - 1);
      const auto v = rng.UniformInt(0, n - 1);
      if (u == v) continue;
      arcs.push_back({u, v, rng.UniformInt(0, 5), rng.UniformInt(0, 9)});
    }
    reused.Reset(n);
    MinCostMaxFlow fresh(n);
    for (const auto& a : arcs) {
      reused.AddArc(static_cast<int>(a[0]), static_cast<int>(a[1]), a[2],
                    a[3]);
      fresh.AddArc(static_cast<int>(a[0]), static_cast<int>(a[1]), a[2],
                   a[3]);
    }
    const auto r1 = reused.Solve(0, n - 1);
    const auto r2 = fresh.Solve(0, n - 1);
    EXPECT_EQ(r1.max_flow, r2.max_flow) << "trial " << trial;
    EXPECT_EQ(r1.total_cost, r2.total_cost) << "trial " << trial;
  }
}

// ---- Dispatch-star kernel vs the SSP reference ------------------------------

/// A DSS-LC star as the old arc graph described it: per worker a
/// master→worker arc (delay cost, edge capacity c_ij) and a worker→sink arc
/// (processing capacity t_i^k).
struct StarCase {
  std::vector<CostUnit> cost;
  std::vector<FlowUnit> edge_cap;
  std::vector<FlowUnit> worker_cap;
  FlowUnit amount = 0;
};

/// Solve `c` with SolveDispatchStar and with MinCostMaxFlow::Solve on the
/// equivalent graph; require identical per-chain flows, max flow and total
/// cost. Returns the kernel's flows.
std::vector<FlowUnit> ExpectStarMatchesSsp(const StarCase& c,
                                           StarScratch& scratch,
                                           const std::string& ctx) {
  const int n = static_cast<int>(c.cost.size());
  std::vector<StarChain> chains;
  for (std::size_t i = 0; i < c.cost.size(); ++i) {
    chains.push_back({c.cost[i], std::min(c.edge_cap[i], c.worker_cap[i])});
  }
  const auto span = SolveDispatchStar(chains, c.amount, scratch);
  const std::vector<FlowUnit> flows(span.begin(), span.end());
  EXPECT_EQ(flows.size(), chains.size()) << ctx;

  const int source = 0, master = 1, sink = n + 2;
  MinCostMaxFlow ssp(n + 3);
  ssp.AddArc(source, master, c.amount, 0);
  for (int i = 0; i < n; ++i) {
    const auto zi = static_cast<std::size_t>(i);
    ssp.AddArc(master, 2 + i, c.edge_cap[zi], c.cost[zi]);
    ssp.AddArc(2 + i, sink, c.worker_cap[zi], 0);
  }
  const auto ref = ssp.Solve(source, sink, c.amount);

  FlowUnit max_flow = 0;
  CostUnit total_cost = 0;
  for (int i = 0; i < n; ++i) {
    const auto zi = static_cast<std::size_t>(i);
    EXPECT_EQ(flows[zi], ssp.Flow(1 + 2 * i)) << ctx << " chain " << i;
    max_flow += flows[zi];
    total_cost += flows[zi] * c.cost[zi];
  }
  EXPECT_EQ(max_flow, ref.max_flow) << ctx;
  EXPECT_EQ(total_cost, ref.total_cost) << ctx;
  return flows;
}

TEST(DispatchStar, MatchesSspOnRandomTieHeavyStars) {
  // Few distinct costs force many equal-cost chains, so this pins the
  // tie-break (ascending worker index) as well as optimality. Zero worker
  // capacities, edge caps below worker caps and amounts above the total
  // capacity are all drawn.
  Rng rng(20231012);
  StarScratch scratch;
  for (int trial = 0; trial < 3000; ++trial) {
    StarCase c;
    const auto workers = rng.UniformInt(1, 40);
    const auto distinct = rng.UniformInt(1, 6);
    FlowUnit total = 0;
    for (std::int64_t w = 0; w < workers; ++w) {
      const FlowUnit cap = rng.UniformInt(0, 8);
      c.cost.push_back(5 * rng.UniformInt(0, distinct - 1));
      c.worker_cap.push_back(cap);
      c.edge_cap.push_back(rng.UniformInt(0, 3) == 0 ? rng.UniformInt(0, cap)
                                                     : cap);
      total += std::min(c.edge_cap.back(), cap);
    }
    c.amount = rng.UniformInt(0, total + 10);
    ExpectStarMatchesSsp(c, scratch, "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST(DispatchStar, ZeroCapacityChainsCarryNothing) {
  StarScratch scratch;
  const auto flows = ExpectStarMatchesSsp(
      {{1, 1, 2, 0}, {0, 4, 4, 4}, {3, 4, 4, 0}, 6}, scratch, "zero caps");
  EXPECT_EQ(flows, (std::vector<FlowUnit>{0, 4, 2, 0}));
}

TEST(DispatchStar, AmountAboveTotalCapacityFillsEveryChain) {
  StarScratch scratch;
  const auto flows = ExpectStarMatchesSsp(
      {{7, 2, 2}, {3, 5, 1}, {3, 2, 4}, 100}, scratch, "over capacity");
  EXPECT_EQ(flows, (std::vector<FlowUnit>{3, 2, 1}));
}

TEST(DispatchStar, SingleChain) {
  StarScratch scratch;
  EXPECT_EQ(ExpectStarMatchesSsp({{9}, {5}, {5}, 3}, scratch, "partial"),
            (std::vector<FlowUnit>{3}));
  EXPECT_EQ(ExpectStarMatchesSsp({{9}, {5}, {2}, 3}, scratch, "capped"),
            (std::vector<FlowUnit>{2}));
}

TEST(DispatchStar, EmptyChainListRoutesNothing) {
  StarScratch scratch;
  EXPECT_TRUE(ExpectStarMatchesSsp({{}, {}, {}, 5}, scratch, "empty").empty());
}

/// Solve `chains` as given with SolveDispatchStar and the same star with
/// MinCostMaxFlow::Solve, where a capacity or amount <= 0 becomes zero;
/// require identical per-chain flows, max flow and total cost. Returns the
/// kernel's flows.
std::vector<FlowUnit> ExpectChainsMatchSsp(const std::vector<StarChain>& chains,
                                           FlowUnit amount,
                                           StarScratch& scratch,
                                           const std::string& ctx) {
  StarCase c;
  c.amount = std::max<FlowUnit>(0, amount);
  for (const StarChain& chain : chains) {
    c.cost.push_back(chain.cost);
    c.edge_cap.push_back(std::max<FlowUnit>(0, chain.capacity));
    c.worker_cap.push_back(std::max<FlowUnit>(0, chain.capacity));
  }
  const auto reference = ExpectStarMatchesSsp(c, scratch, ctx);
  const auto span = SolveDispatchStar(chains, amount, scratch);
  const std::vector<FlowUnit> flows(span.begin(), span.end());
  EXPECT_EQ(flows, reference) << ctx << ": raw inputs changed the fill";
  return flows;
}

TEST(DispatchStar, UnitAmountOverWideMostlyEmptyStar) {
  // One request over 4,096 chains with three distinct costs, ~95% of them
  // without capacity: the single unit lands on the smallest index among
  // the cheapest chains that can carry it.
  Rng rng(4096);
  StarScratch scratch;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<StarChain> chains(4096);
    for (StarChain& c : chains) {
      c.cost = 5 * rng.UniformInt(0, 2);
      c.capacity = rng.UniformInt(0, 19) == 0 ? rng.UniformInt(1, 3) : 0;
    }
    if (trial == 0) {
      // Every cheapest chain is empty: the unit must move up a cost tier.
      for (StarChain& c : chains) {
        if (c.cost == 0) c.capacity = 0;
      }
    }
    const auto flows = ExpectChainsMatchSsp(chains, 1, scratch,
                                            "trial " + std::to_string(trial));
    std::size_t expected = chains.size();
    for (std::size_t i = 0; i < chains.size(); ++i) {
      if (chains[i].capacity <= 0) continue;
      if (expected == chains.size() ||
          chains[i].cost < chains[expected].cost) {
        expected = i;
      }
    }
    ASSERT_LT(expected, chains.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(flows[i], i == expected ? 1 : 0) << "trial " << trial
                                                 << " chain " << i;
    }
    if (HasFailure()) return;
  }
}

TEST(DispatchStar, NegativeCapacityChainsCarryNothing) {
  StarScratch scratch;
  // The cheapest chains have negative capacity; flow skips them.
  EXPECT_EQ(ExpectChainsMatchSsp({{0, -4}, {1, 2}, {0, -1}, {2, 5}}, 4,
                                 scratch, "fixed"),
            (std::vector<FlowUnit>{0, 2, 0, 2}));
  Rng rng(997);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<StarChain> chains;
    const auto n = rng.UniformInt(1, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      chains.push_back({3 * rng.UniformInt(0, 3), rng.UniformInt(-5, 4)});
    }
    ExpectChainsMatchSsp(chains, rng.UniformInt(-2, 30), scratch,
                         "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST(DispatchStar, AmountEndingAtAChainBoundary) {
  // For every prefix of the fill order, an amount equal to the prefix's
  // capacity saturates exactly those chains and leaves the rest empty.
  Rng rng(77);
  StarScratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<StarChain> chains;
    const auto n = rng.UniformInt(1, 30);
    for (std::int64_t i = 0; i < n; ++i) {
      chains.push_back({2 * rng.UniformInt(0, 4), rng.UniformInt(-1, 5)});
    }
    std::vector<std::size_t> fill;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      if (chains[i].capacity > 0) fill.push_back(i);
    }
    std::stable_sort(fill.begin(), fill.end(),
                     [&](std::size_t a, std::size_t b) {
                       return chains[a].cost < chains[b].cost;
                     });
    FlowUnit boundary = 0;
    for (std::size_t k = 0; k < fill.size(); ++k) {
      boundary += chains[fill[k]].capacity;
      const std::string ctx = "trial " + std::to_string(trial) + " prefix " +
                              std::to_string(k + 1);
      const auto flows = ExpectChainsMatchSsp(chains, boundary, scratch, ctx);
      for (std::size_t j = 0; j < fill.size(); ++j) {
        EXPECT_EQ(flows[fill[j]], j <= k ? chains[fill[j]].capacity : 0)
            << ctx << " chain " << fill[j];
      }
      if (HasFailure()) return;
    }
  }
}

TEST(DispatchStar, ReusedScratchDoesNotGrow) {
  // A scratch reserved once serves every later solve: the heap is built in
  // `order` (at most one entry per chain) and `flow` is rewritten in place,
  // whatever mix of empty, negative and positive chains and amounts comes.
  Rng rng(7);
  StarScratch scratch;
  EXPECT_TRUE(scratch.Reserve(32));
  EXPECT_FALSE(scratch.Reserve(32));
  const auto order_cap = scratch.order.capacity();
  const auto flow_cap = scratch.flow.capacity();
  std::vector<StarChain> chains;
  chains.reserve(32);
  for (int round = 0; round < 200; ++round) {
    chains.clear();
    const auto n = rng.UniformInt(0, 32);
    for (std::int64_t i = 0; i < n; ++i) {
      chains.push_back({rng.UniformInt(0, 4), rng.UniformInt(-2, 6)});
    }
    const auto flows = SolveDispatchStar(chains, rng.UniformInt(-1, 100),
                                         scratch);
    ASSERT_EQ(flows.size(), chains.size());
  }
  EXPECT_EQ(scratch.order.capacity(), order_cap);
  EXPECT_EQ(scratch.flow.capacity(), flow_cap);
}

}  // namespace
}  // namespace tango::flow
