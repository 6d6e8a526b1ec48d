// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace tango::sim {
namespace {

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired = -1;
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAfter(25, [&] { fired = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 75);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  SimTime fired = -1;
  sim.ScheduleAt(10, [&] {
    sim.ScheduleAfter(-5, [&] { fired = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle h = sim.ScheduleAt(10, [&] { ran = true; });
  sim.Cancel(h);
  sim.RunAll();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int count = 0;
  const EventHandle h = sim.ScheduleAt(10, [&] { ++count; });
  sim.RunAll();
  sim.Cancel(h);  // already fired — must be a no-op
  sim.Cancel(h);
  sim.Cancel(kInvalidEvent);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, CancelOneOfManyAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] { order.push_back(0); });
  const EventHandle h = sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.Cancel(h);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(10, [&] { fired.push_back(10); });
  sim.ScheduleAt(20, [&] { fired.push_back(20); });
  sim.ScheduleAt(21, [&] { fired.push_back(21); });
  sim.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.Now(), 20);
  sim.RunUntil(30);
  EXPECT_EQ(fired.back(), 21);
}

TEST(Simulator, RunUntilReturnsExecutedCount) {
  Simulator sim;
  for (SimTime t : {5, 10, 10, 25}) {
    sim.ScheduleAt(t, [] {});
  }
  EXPECT_EQ(sim.RunUntil(10), 3u);  // 5, 10, 10
  EXPECT_EQ(sim.RunUntil(20), 0u);  // empty window still advances the clock
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.RunUntil(30), 1u);
}

TEST(Simulator, NextEventTimeTracksHeapHead) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoEvent);
  const EventHandle h = sim.ScheduleAt(40, [] {});
  sim.ScheduleAt(70, [] {});
  EXPECT_EQ(sim.NextEventTime(), 40);
  sim.Cancel(h);
  EXPECT_EQ(sim.NextEventTime(), 70);
  sim.RunAll();
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoEvent);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(1, [&] { ++count; });
  sim.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 9);
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(Simulator, PeriodicTickFiresUntilStopped) {
  Simulator sim;
  std::vector<SimTime> ticks;
  auto stop = SchedulePeriodic(sim, 100, 50, [&](SimTime t) {
    ticks.push_back(t);
    (void)t;
  });
  sim.RunUntil(300);
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 150, 200, 250, 300}));
  stop();
  sim.RunUntil(1000);
  EXPECT_EQ(ticks.size(), 5u);  // no further ticks after stop
}

TEST(Simulator, PeriodicTickStoppedFromInsideCallback) {
  Simulator sim;
  int count = 0;
  std::function<void()> stop;
  stop = SchedulePeriodic(sim, 10, 10, [&](SimTime) {
    if (++count == 3) stop();
  });
  sim.RunUntil(10'000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, CancelManyInterleavedCompactsTombstones) {
  // Cancel every other event out of a large batch: the lazy tombstone list
  // must skip exactly the cancelled ones and consume each tombstone on pop.
  Simulator sim;
  std::vector<int> ran;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(sim.ScheduleAt(i, [&ran, i] { ran.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) sim.Cancel(handles[i]);
  sim.RunAll();
  ASSERT_EQ(ran.size(), 100u);
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], static_cast<int>(2 * i + 1));
  }
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, DoubleCancelConsumesOnlyOneTombstone) {
  // Cancelling the same handle twice must not leave a stale tombstone that
  // could swallow an unrelated future event.
  Simulator sim;
  bool cancelled_ran = false, later_ran = false;
  const EventHandle h = sim.ScheduleAt(10, [&] { cancelled_ran = true; });
  sim.Cancel(h);
  sim.Cancel(h);
  sim.ScheduleAt(20, [&] { later_ran = true; });
  sim.RunAll();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(later_ran);
}

TEST(Simulator, CancelAfterFireDoesNotAffectLaterEvents) {
  // A tombstone for an already-fired handle must never match a live event,
  // even after the list is re-sorted by subsequent cancels.
  Simulator sim;
  int fired = 0;
  const EventHandle early = sim.ScheduleAt(1, [&] { ++fired; });
  sim.RunAll();
  sim.Cancel(early);  // stale: the event already fired
  const EventHandle doomed = sim.ScheduleAt(5, [&] { ++fired; });
  sim.ScheduleAt(6, [&] { ++fired; });
  sim.Cancel(doomed);  // forces a re-sort with the stale tombstone present
  sim.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelFromCallbackAtSameTimestamp) {
  // An event may cancel a simultaneous event that is still queued behind it.
  Simulator sim;
  bool victim_ran = false;
  EventHandle victim = kInvalidEvent;
  sim.ScheduleAt(10, [&] { sim.Cancel(victim); });
  victim = sim.ScheduleAt(10, [&] { victim_ran = true; });
  sim.RunAll();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, PeriodicStopBeforeFirstTick) {
  Simulator sim;
  int count = 0;
  auto stop = SchedulePeriodic(sim, 100, 50, [&](SimTime) { ++count; });
  stop();  // stopped while the first tick is still pending
  sim.RunUntil(1000);
  EXPECT_EQ(count, 0);
}

TEST(Simulator, PeriodicStopIsIdempotent) {
  Simulator sim;
  int count = 0;
  auto stop = SchedulePeriodic(sim, 10, 10, [&](SimTime) { ++count; });
  sim.RunUntil(35);
  stop();
  stop();  // second call must be a harmless no-op
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, TwoPeriodicsStopIndependently) {
  Simulator sim;
  int a = 0, b = 0;
  auto stop_a = SchedulePeriodic(sim, 10, 10, [&](SimTime) { ++a; });
  auto stop_b = SchedulePeriodic(sim, 10, 10, [&](SimTime) { ++b; });
  sim.RunUntil(30);
  stop_a();
  sim.RunUntil(60);
  stop_b();
  sim.RunUntil(1000);
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 6);
}

TEST(Simulator, PendingEventCountTracksQueue) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.ScheduleAt(5, [] {});
  sim.ScheduleAt(6, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunAll();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---- First-class periodic events -----------------------------------------

TEST(Simulator, StartPeriodicMatchesScheduleAfterChain) {
  // The in-place re-arm must order identically to the old pattern of the
  // callback re-scheduling itself: the next tick's sequence number is drawn
  // at fire time, so a same-timestamp one-shot scheduled earlier runs first
  // and one scheduled later (by a later event) runs after.
  auto run = [](bool first_class) {
    Simulator sim;
    std::vector<std::pair<SimTime, int>> order;
    if (first_class) {
      sim.StartPeriodic(10, 10, [&] { order.push_back({sim.Now(), 0}); });
    } else {
      struct Chain {
        Simulator* s;
        std::vector<std::pair<SimTime, int>>* order;
        void operator()() const {
          order->push_back({s->Now(), 0});
          s->ScheduleAfter(10, Chain{s, order});
        }
      };
      sim.ScheduleAt(10, Chain{&sim, &order});
    }
    // Competing one-shots at the tick timestamps, armed before and after.
    sim.ScheduleAt(20, [&] { order.push_back({sim.Now(), 1}); });
    sim.ScheduleAt(15, [&] {
      sim.ScheduleAt(30, [&] { order.push_back({sim.Now(), 2}); });
    });
    sim.RunUntil(45);
    return order;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Simulator, CancelStopsPeriodicFromOutside) {
  Simulator sim;
  int ticks = 0;
  const EventHandle h = sim.StartPeriodic(10, 10, [&] { ++ticks; });
  sim.RunUntil(35);
  EXPECT_EQ(ticks, 3);
  sim.Cancel(h);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(1000);
  EXPECT_EQ(ticks, 3);
}

TEST(Simulator, PeriodicCanCancelItselfMidTick) {
  Simulator sim;
  int ticks = 0;
  EventHandle h = kInvalidEvent;
  h = sim.StartPeriodic(10, 10, [&] {
    if (++ticks == 2) sim.Cancel(h);
  });
  sim.RunAll();
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, StaleHandleAfterSlotReuseIsNoOp) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventHandle h1 = sim.ScheduleAt(10, [&] { first = true; });
  sim.Cancel(h1);  // frees the slot
  const EventHandle h2 = sim.ScheduleAt(20, [&] { second = true; });
  sim.Cancel(h1);  // stale generation: must NOT cancel the reused slot
  sim.RunAll();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_NE(h1, h2);
}

TEST(Simulator, CancelOfFiredOneShotIsNoOp) {
  Simulator sim;
  EventHandle h = kInvalidEvent;
  bool later = false;
  h = sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [&] { later = true; });
  sim.RunUntil(15);
  sim.Cancel(h);  // already fired; slot may host another event by now
  sim.RunAll();
  EXPECT_TRUE(later);
}

TEST(Simulator, PendingExactAfterHeavyCancelChurn) {
  // Cancellation removes events immediately — no tombstones — so the
  // pending count stays exact through arbitrary cancel/re-schedule churn.
  Simulator sim;
  std::vector<EventHandle> pending;
  for (int i = 0; i < 100; ++i) {
    pending.push_back(sim.ScheduleAt(1000 + i, [] {}));
  }
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; i += 2) {
      sim.Cancel(pending[static_cast<std::size_t>(i)]);
      pending[static_cast<std::size_t>(i)] =
          sim.ScheduleAt(1000 + round, [] {});
    }
    EXPECT_EQ(sim.pending_events(), 100u);
  }
  sim.RunAll();
  EXPECT_EQ(sim.pending_events(), 0u);
  // Only the 100 live events plus what actually fired ran; churn executed
  // nothing extra.
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(Simulator, SteadyStateSchedulingAllocatesNothing) {
  Simulator sim;
  // Warm-up grows the pool to its high-water mark.
  std::vector<EventHandle> pending;
  for (int i = 0; i < 64; ++i) {
    pending.push_back(sim.ScheduleAt(100 + i, [] {}));
  }
  const EventHandle tick = sim.StartPeriodic(50, 100, [] {});
  sim.RunUntil(200);
  const std::int64_t warm = sim.alloc_events();
  // Steady state: schedule/cancel/fire churn at the same concurrency.
  for (int round = 0; round < 200; ++round) {
    for (auto& h : pending) {
      sim.Cancel(h);
      h = sim.ScheduleAfter(100, [] {});
    }
    sim.RunUntil(sim.Now() + 10);
  }
  sim.Cancel(tick);  // a live periodic re-arms forever; RunAll must drain
  sim.RunAll();
  EXPECT_EQ(sim.alloc_events(), warm);
}

TEST(Simulator, OversizedCallbackCountsAsAllocEvent) {
  Simulator sim;
  const std::int64_t before = sim.alloc_events();
  struct Big {
    char payload[256];
  };
  Big big{};
  big.payload[0] = 1;
  bool ran = false;
  sim.ScheduleAt(10, [big, &ran] { ran = big.payload[0] == 1; });
  EXPECT_GE(sim.alloc_events(), before + 1);  // heap fallback is counted
  sim.RunAll();
  EXPECT_TRUE(ran);
}

TEST(Simulator, ReserveEventsPrewarmsPool) {
  Simulator sim;
  sim.ReserveEvents(128);
  const std::int64_t after_reserve = sim.alloc_events();
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(10 + i, [] {});
  }
  EXPECT_EQ(sim.alloc_events(), after_reserve);
  sim.RunAll();
}

// ---- Reserved sequences: streaming a known future ------------------------

/// Shared event body of the differential tests: log the id, then maybe
/// spawn a child `0..2` ticks later — often onto an occupied timestamp.
void Fire(Simulator& sim, std::vector<int>& log, int& next_child, int id) {
  log.push_back(id);
  const std::uint64_t h =
      (static_cast<std::uint64_t>(id) + 1) * 0x9E3779B97F4A7C15ULL;
  if ((h >> 60) % 3 != 0) return;
  const int child = next_child++;
  sim.ScheduleAfter(static_cast<SimDuration>((h >> 40) % 3),
                    [&sim, &log, &next_child, child] {
                      Fire(sim, log, next_child, child);
                    });
}

/// One submission: `times[i]` is arrival i's time in submission order.
struct Submission {
  int first_id = 0;
  std::vector<SimTime> times;
};

/// Feeds a submission lazily, one pending arrival at a time, under a
/// block of reserved sequence numbers taken in cursor order (what
/// EdgeCloudSystem::SubmitTrace does): the k-th arrival by (time, index)
/// gets seq0 + k, not its submission index, and still pops like the
/// up-front schedule because the block orders against other events whole.
struct LazyFeed {
  Simulator* sim;
  std::vector<int>* log;
  int* next_child;
  Submission sub;
  std::vector<std::uint32_t> order;  // submission indices by (time, index)
  std::uint64_t seq0 = 0;
  std::size_t next = 0;

  void Start() {
    order.resize(sub.times.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return sub.times[a] < sub.times[b];
                     });
    seq0 = sim->ReserveSeqs(sub.times.size());
    Arm();
  }
  void Arm() {
    if (next == order.size()) return;
    const std::size_t k = next++;
    const std::uint32_t i = order[k];
    sim->ScheduleAtSeq(sub.times[i], seq0 + k, [this, i] {
      Arm();
      Fire(*sim, *log, *next_child, sub.first_id + static_cast<int>(i));
    });
  }
};

Submission RandomSubmission(Rng& rng, int first_id, SimTime from, int n,
                            bool sorted) {
  Submission sub;
  sub.first_id = first_id;
  for (int i = 0; i < n; ++i) {
    sub.times.push_back(from + rng.UniformInt(0, 24));
  }
  if (sorted) std::sort(sub.times.begin(), sub.times.end());
  return sub;
}

/// Runs two submissions (the second after a partial run, between other
/// events) either all scheduled up front or fed lazily; returns the log.
std::vector<int> RunFeeds(std::uint64_t seed, bool lazy,
                          std::size_t* max_pending) {
  Rng rng(seed);
  Simulator sim;
  std::vector<int> log;
  int next_child = 1000000;
  const Submission a = RandomSubmission(rng, 0, 0, 120, (seed & 1) == 0);
  const Submission b = RandomSubmission(rng, 500, 10, 80, (seed & 2) == 0);
  sim.StartPeriodic(0, 5, [&log] { log.push_back(-1); });
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAt(i * 4, [&sim, &log, &next_child, i] {
      Fire(sim, log, next_child, 900 + i);
    });
  }
  std::vector<LazyFeed> feeds;
  feeds.reserve(2);  // callbacks hold `this`
  const auto submit = [&](const Submission& sub) {
    if (lazy) {
      feeds.push_back(LazyFeed{&sim, &log, &next_child, sub, {}, 0, 0});
      feeds.back().Start();
      return;
    }
    for (std::size_t i = 0; i < sub.times.size(); ++i) {
      const int id = sub.first_id + static_cast<int>(i);
      sim.ScheduleAt(sub.times[i], [&sim, &log, &next_child, id] {
        Fire(sim, log, next_child, id);
      });
    }
  };
  submit(a);
  *max_pending = sim.pending_events();
  sim.RunUntil(9);
  submit(b);
  *max_pending = std::max(*max_pending, sim.pending_events());
  sim.RunUntil(60);
  return log;
}

TEST(Simulator, LazyReservedFeedPopsLikeUpFrontScheduling) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::size_t eager_pending = 0;
    std::size_t lazy_pending = 0;
    const std::vector<int> eager = RunFeeds(seed, false, &eager_pending);
    const std::vector<int> lazy = RunFeeds(seed, true, &lazy_pending);
    ASSERT_EQ(eager, lazy) << "seed " << seed;
    ASSERT_GT(eager.size(), 200u);
    // The lazy feed keeps one arrival per submission pending.
    EXPECT_LT(lazy_pending, eager_pending) << "seed " << seed;
  }
}

TEST(Simulator, ReserveSeqsHandsOutDisjointBlocks) {
  Simulator sim;
  const std::uint64_t a = sim.ReserveSeqs(10);
  const std::uint64_t b = sim.ReserveSeqs(3);
  EXPECT_EQ(b, a + 10);
  // An event scheduled after both blocks sorts after every reserved one
  // at the same time, whenever the reserved ones are queued.
  std::vector<int> order;
  sim.ScheduleAt(5, [&order] { order.push_back(2); });
  sim.ScheduleAtSeq(5, b + 2, [&order] { order.push_back(1); });
  sim.ScheduleAtSeq(5, a, [&order] { order.push_back(0); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorDeathTest, ScheduleAtSeqRejectsUnreservedSeqAndPast) {
  Simulator sim;
  const std::uint64_t seq = sim.ReserveSeqs(2);
  EXPECT_DEATH(sim.ScheduleAtSeq(1, seq + 2, [] {}), "never reserved");
  sim.RunUntil(10);
  EXPECT_DEATH(sim.ScheduleAtSeq(5, seq, [] {}), "into the past");
}

// ---- Reschedule: in-place re-arm ----------------------------------------

/// One side of the Reschedule differential: a simulator, the handle and
/// liveness of each logical event, and the log of fired ids.
struct ChurnSide {
  Simulator sim;
  std::vector<EventHandle> handle;
  std::vector<bool> live;
  std::vector<int> log;

  explicit ChurnSide(std::size_t ids)
      : handle(ids, kInvalidEvent), live(ids, false) {
    sim.StartPeriodic(3, 7, [this] { log.push_back(-1); });
  }
  void Arm(std::size_t id, SimTime when) {
    live[id] = true;
    handle[id] = sim.ScheduleAt(when, [this, id] {
      log.push_back(static_cast<int>(id));
      live[id] = false;
    });
  }
  void Cancel(std::size_t id) {
    sim.Cancel(handle[id]);
    live[id] = false;
  }
};

TEST(Simulator, RescheduleMatchesCancelPlusScheduleUnderChurn) {
  constexpr std::size_t kIds = 48;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    ChurnSide moved(kIds);  // re-arms with Reschedule
    ChurnSide fresh(kIds);  // re-arms with Cancel + ScheduleAt
    for (int op = 0; op < 4000; ++op) {
      const auto id = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(kIds) - 1));
      const SimTime when = moved.sim.Now() + rng.UniformInt(0, 6);
      switch (rng.UniformInt(0, 3)) {
        case 0:  // (re)arm
          if (moved.live[id]) {
            ASSERT_TRUE(moved.sim.Reschedule(moved.handle[id], when));
            fresh.Cancel(id);
            fresh.Arm(id, when);
          } else {
            // A fired or cancelled handle is stale: Reschedule refuses.
            ASSERT_FALSE(moved.sim.Reschedule(moved.handle[id], when));
            moved.Arm(id, when);
            fresh.Arm(id, when);
          }
          break;
        case 1:
          moved.Cancel(id);
          fresh.Cancel(id);
          break;
        default:
          ASSERT_EQ(moved.sim.Step(), fresh.sim.Step());
          break;
      }
      ASSERT_EQ(moved.log, fresh.log) << "seed " << seed << " op " << op;
      ASSERT_EQ(moved.live, fresh.live);
      ASSERT_EQ(moved.sim.Now(), fresh.sim.Now());
      ASSERT_EQ(moved.sim.pending_events(), fresh.sim.pending_events());
    }
    moved.sim.RunUntil(moved.sim.Now() + 50);
    fresh.sim.RunUntil(fresh.sim.Now() + 50);
    EXPECT_EQ(moved.log, fresh.log) << "seed " << seed;
    EXPECT_GT(moved.log.size(), 500u);
  }
}

TEST(Simulator, RescheduleMovesEarlierAndLater) {
  Simulator sim;
  std::vector<int> order;
  const EventHandle a = sim.ScheduleAt(10, [&order] { order.push_back(0); });
  sim.ScheduleAt(20, [&order] { order.push_back(1); });
  const EventHandle c = sim.ScheduleAt(30, [&order] { order.push_back(2); });
  EXPECT_TRUE(sim.Reschedule(a, 40));  // later: now after both others
  EXPECT_TRUE(sim.Reschedule(c, 5));   // earlier: now first
  EXPECT_TRUE(sim.Reschedule(c, 20));  // equal time: fresh seq sorts last
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(Simulator, RescheduleRefusesStaleFiredFiringAndPeriodic) {
  Simulator sim;
  int runs = 0;
  // Stale: cancelled, then the slot reused by another event.
  const EventHandle cancelled = sim.ScheduleAt(10, [&runs] { ++runs; });
  sim.Cancel(cancelled);
  sim.ScheduleAt(10, [&runs] { ++runs; });
  EXPECT_FALSE(sim.Reschedule(cancelled, 50));
  EXPECT_FALSE(sim.Reschedule(kInvalidEvent, 50));
  // Periodic, queued.
  EventHandle tick = kInvalidEvent;
  bool refused_mid_tick = false;
  tick = sim.StartPeriodic(20, 20, [&] {
    // Firing periodic: its own handle cannot be moved either.
    refused_mid_tick = !sim.Reschedule(tick, sim.Now() + 1);
    sim.Cancel(tick);
  });
  EXPECT_FALSE(sim.Reschedule(tick, 50));
  // Firing one-shot: its handle is already stale inside its callback.
  EventHandle self = kInvalidEvent;
  bool refused_self = false;
  self = sim.ScheduleAt(15, [&] { refused_self = !sim.Reschedule(self, 60); });
  // Refusals change nothing.
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.NextEventTime(), 10);
  sim.RunAll();
  EXPECT_TRUE(refused_mid_tick);
  EXPECT_TRUE(refused_self);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.Now(), 20);
  // Fired.
  EXPECT_FALSE(sim.Reschedule(self, 80));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RescheduleKeepsHandleAndAllocatesNothing) {
  Simulator sim;
  std::vector<EventHandle> pending;
  for (int i = 0; i < 64; ++i) {
    pending.push_back(sim.ScheduleAt(100 + i, [] {}));
  }
  const std::int64_t warm = sim.alloc_events();
  for (int round = 0; round < 200; ++round) {
    for (auto& h : pending) {
      ASSERT_TRUE(sim.Reschedule(h, sim.Now() + 100));
    }
    sim.RunUntil(sim.Now() + 10);
  }
  EXPECT_EQ(sim.alloc_events(), warm);
  EXPECT_EQ(sim.pending_events(), 64u);
  EXPECT_EQ(sim.executed_events(), 0u);
  for (const EventHandle h : pending) sim.Cancel(h);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorDeathTest, RescheduleRejectsPast) {
  Simulator sim;
  const EventHandle h = sim.ScheduleAt(50, [] {});
  sim.RunUntil(20);
  EXPECT_DEATH(sim.Reschedule(h, 10), "into the past");
}

}  // namespace
}  // namespace tango::sim
