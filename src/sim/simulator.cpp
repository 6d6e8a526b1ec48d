#include "sim/simulator.h"

#include <utility>

#include "audit/audit.h"
#include "common/logging.h"
#include "common/vet.h"

namespace tango::sim {

std::uint32_t Simulator::AllocSlot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (pool_.size() == pool_.capacity()) ++alloc_events_;
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  pool_.emplace_back();
  // heap_/free_ can never hold more entries than the pool has slots, so
  // growing their capacity in lockstep keeps their push_backs allocation-free.
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  if (heap_.capacity() < pool_.capacity()) heap_.reserve(pool_.capacity());
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  if (free_.capacity() < pool_.capacity()) free_.reserve(pool_.capacity());
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Node& n = pool_[slot];
  ++n.generation;  // invalidate every outstanding handle to this slot
  n.heap_index = -1;
  n.firing = false;
  n.cancelled = false;
  n.period = 0;
  n.cb.Reset();
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  free_.push_back(slot);
}

bool Simulator::Before(std::uint32_t a, std::uint32_t b) const {
  const Node& x = pool_[a];
  const Node& y = pool_[b];
  if (x.when != y.when) return x.when < y.when;
  return x.seq < y.seq;
}

void Simulator::SiftUp(std::size_t index) {
  const std::uint32_t slot = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!Before(slot, heap_[parent])) break;
    heap_[index] = heap_[parent];
    pool_[heap_[index]].heap_index = static_cast<std::int32_t>(index);
    index = parent;
  }
  heap_[index] = slot;
  pool_[slot].heap_index = static_cast<std::int32_t>(index);
}

void Simulator::SiftDown(std::size_t index) {
  const std::uint32_t slot = heap_[index];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t best = index;
    const std::size_t l = 2 * index + 1;
    const std::size_t r = 2 * index + 2;
    std::uint32_t best_slot = slot;
    if (l < n && Before(heap_[l], best_slot)) {
      best = l;
      best_slot = heap_[l];
    }
    if (r < n && Before(heap_[r], best_slot)) {
      best = r;
      best_slot = heap_[r];
    }
    if (best == index) break;
    heap_[index] = heap_[best];
    pool_[heap_[index]].heap_index = static_cast<std::int32_t>(index);
    index = best;
  }
  heap_[index] = slot;
  pool_[slot].heap_index = static_cast<std::int32_t>(index);
}

void Simulator::HeapPush(std::uint32_t slot) {
  // TANGOVET_ALLOW_NEXT(amortized: pooled capacity)
  heap_.push_back(slot);
  pool_[slot].heap_index = static_cast<std::int32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
}

void Simulator::HeapRemoveAt(std::size_t index) {
  pool_[heap_[index]].heap_index = -1;
  const std::uint32_t moved = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;
  heap_[index] = moved;
  pool_[moved].heap_index = static_cast<std::int32_t>(index);
  SiftDown(index);
  SiftUp(index);
}

EventHandle Simulator::Push(SimTime when, std::uint64_t seq,
                            SimDuration period, Callback&& cb) {
  if (cb.on_heap()) ++alloc_events_;
  const std::uint32_t slot = AllocSlot();
  Node& n = pool_[slot];
  n.when = when;
  n.seq = seq;
  n.period = period;
  n.cb = std::move(cb);
  HeapPush(slot);
  if constexpr (audit::kEnabled) AuditHeapThrottled();
  return MakeHandle(slot, n.generation);
}

EventHandle Simulator::ScheduleAt(SimTime when, Callback cb) {
  TANGO_CHECK(when >= now_, "scheduling into the past: %lld < %lld",
              static_cast<long long>(when), static_cast<long long>(now_));
  return Push(when, next_seq_++, 0, std::move(cb));
}

TANGO_HOT EventHandle Simulator::ScheduleAtSeq(SimTime when,
                                               std::uint64_t seq,
                                               Callback cb) {
  TANGO_CHECK(when >= now_, "scheduling into the past: %lld < %lld",
              static_cast<long long>(when), static_cast<long long>(now_));
  TANGO_CHECK(seq < next_seq_, "sequence %llu was never reserved (next %llu)",
              static_cast<unsigned long long>(seq),
              static_cast<unsigned long long>(next_seq_));
  return Push(when, seq, 0, std::move(cb));
}

EventHandle Simulator::StartPeriodic(SimTime first, SimDuration period,
                                     Callback cb) {
  TANGO_CHECK(period > 0, "periodic event needs a positive period");
  TANGO_CHECK(first >= now_, "periodic start in the past: %lld < %lld",
              static_cast<long long>(first), static_cast<long long>(now_));
  return Push(first, next_seq_++, period, std::move(cb));
}

std::int64_t Simulator::SlotOf(EventHandle handle) const {
  const std::uint64_t low = handle & 0xffffffffULL;
  if (low == 0 || low > pool_.size()) return -1;
  const auto slot = static_cast<std::size_t>(low - 1);
  if (pool_[slot].generation != static_cast<std::uint32_t>(handle >> 32)) {
    return -1;
  }
  return static_cast<std::int64_t>(slot);
}

void Simulator::Cancel(EventHandle handle) {
  const std::int64_t slot = SlotOf(handle);
  if (slot < 0) return;
  Node& n = pool_[static_cast<std::size_t>(slot)];
  if (n.firing) {
    // A periodic cancelling itself (or being cancelled) mid-tick: the fire
    // loop frees the slot instead of re-arming.
    n.cancelled = true;
    return;
  }
  if (n.heap_index < 0) return;
  HeapRemoveAt(static_cast<std::size_t>(n.heap_index));
  FreeSlot(static_cast<std::uint32_t>(slot));
  if constexpr (audit::kEnabled) AuditHeapThrottled();
}

TANGO_HOT bool Simulator::Reschedule(EventHandle handle, SimTime when) {
  const std::int64_t slot = SlotOf(handle);
  if (slot < 0) return false;
  Node& n = pool_[static_cast<std::size_t>(slot)];
  if (n.firing || n.heap_index < 0 || n.period > 0) return false;
  TANGO_CHECK(when >= now_, "rescheduling into the past: %lld < %lld",
              static_cast<long long>(when), static_cast<long long>(now_));
  // The fresh seq is larger than every queued one, so the key only moves
  // up unless the time moves down: one sift in the matching direction.
  const bool earlier = when < n.when;
  n.when = when;
  n.seq = next_seq_++;
  const auto index = static_cast<std::size_t>(n.heap_index);
  if (earlier) {
    SiftUp(index);
  } else {
    SiftDown(index);
  }
  if constexpr (audit::kEnabled) AuditHeapThrottled();
  return true;
}

bool Simulator::PopAndRun() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_.front();
  HeapRemoveAt(0);
  Node& n = pool_[slot];
  now_ = n.when;
  ++executed_;
  if (n.period > 0) {
    // Periodic: run the tick from a local (the pool may grow while the
    // callback schedules other events), then re-arm the same slot in place.
    n.firing = true;
    Callback cb = std::move(n.cb);
    cb();
    Node& after = pool_[slot];  // re-fetch: pool_ may have reallocated
    after.firing = false;
    if (after.cancelled) {
      FreeSlot(slot);
    } else {
      after.cb = std::move(cb);
      after.when = now_ + after.period;
      after.seq = next_seq_++;
      HeapPush(slot);
    }
  } else {
    // One-shot: release the slot before invoking so a callback scheduling
    // new work can reuse it, and so Cancel on the fired handle is stale.
    Callback cb = std::move(n.cb);
    FreeSlot(slot);
    cb();
  }
  if constexpr (audit::kEnabled) AuditHeapThrottled();
  return true;
}

bool Simulator::Step() { return PopAndRun(); }

void Simulator::AuditHeapThrottled() const {
  // Full sweep every 64th mutation: O(pool) per sweep, so per-event
  // auditing would turn large simulations quadratic. Deterministic, so
  // audit runs stay reproducible.
  if ((++audit_tick_ & 63) == 0) AuditHeap();
}

void Simulator::AuditHeap() const {
  std::size_t firing = 0;
  for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
    const Node& n = pool_[slot];
    if (n.firing) ++firing;
    if (n.heap_index < 0) continue;
    const auto index = static_cast<std::size_t>(n.heap_index);
    AUDIT_CHECK(index < heap_.size() && heap_[index] == slot,
                .subsystem = "sim", .invariant = "sim.heap_index_coherence",
                .sim_time = now_,
                .detail = audit::Detail(
                    "slot %zu claims heap index %zu (heap size %zu, entry "
                    "%u)",
                    slot, index, heap_.size(),
                    index < heap_.size() ? heap_[index] : 0));
  }
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t slot = heap_[i];
    AUDIT_CHECK(slot < pool_.size() &&
                    pool_[slot].heap_index == static_cast<std::int32_t>(i),
                .subsystem = "sim", .invariant = "sim.heap_back_index",
                .sim_time = now_,
                .detail = audit::Detail("heap[%zu] = slot %u whose back "
                                        "index is %d",
                                        i, slot,
                                        slot < pool_.size()
                                            ? pool_[slot].heap_index
                                            : -2));
    AUDIT_CHECK(pool_[slot].when >= now_, .subsystem = "sim",
                .invariant = "sim.no_past_event", .sim_time = now_,
                .detail = audit::Detail("heap[%zu] scheduled at %lld, now "
                                        "%lld",
                                        i,
                                        static_cast<long long>(
                                            pool_[slot].when),
                                        static_cast<long long>(now_)));
    if (i > 0) {
      const std::uint32_t parent = heap_[(i - 1) / 2];
      AUDIT_CHECK(!Before(slot, parent), .subsystem = "sim",
                  .invariant = "sim.heap_order", .sim_time = now_,
                  .detail = audit::Detail(
                      "heap[%zu] (when %lld seq %llu) precedes its parent "
                      "(when %lld seq %llu)",
                      i, static_cast<long long>(pool_[slot].when),
                      static_cast<unsigned long long>(pool_[slot].seq),
                      static_cast<long long>(pool_[parent].when),
                      static_cast<unsigned long long>(pool_[parent].seq)));
    }
  }
  for (const std::uint32_t slot : free_) {
    AUDIT_CHECK(slot < pool_.size() && pool_[slot].heap_index == -1 &&
                    !pool_[slot].firing,
                .subsystem = "sim", .invariant = "sim.freelist_detached",
                .sim_time = now_,
                .detail = audit::Detail("free slot %u still queued or "
                                        "firing",
                                        slot));
  }
  // Every slot is exactly one of queued, free, or firing; pending_events()
  // stays exact because cancelled events leave the heap immediately.
  AUDIT_CHECK(heap_.size() + free_.size() + firing == pool_.size(),
              .subsystem = "sim", .invariant = "sim.slot_accounting",
              .sim_time = now_,
              .detail = audit::Detail("%zu queued + %zu free + %zu firing "
                                      "!= %zu pool slots",
                                      heap_.size(), free_.size(), firing,
                                      pool_.size()));
}

TANGO_HOT std::uint64_t Simulator::RunUntil(SimTime until) {
  const std::uint64_t before = executed_;
  while (!heap_.empty() && pool_[heap_.front()].when <= until) {
    if (!PopAndRun()) break;
  }
  if (now_ < until) now_ = until;
  return executed_ - before;
}

void Simulator::RunAll() {
  while (PopAndRun()) {
  }
}

void Simulator::ReserveEvents(std::size_t n) {
  pool_.reserve(n);
  heap_.reserve(n);
  free_.reserve(n);
}

std::function<void()> SchedulePeriodic(Simulator& sim, SimTime start,
                                       SimDuration period,
                                       std::function<void(SimTime)> tick) {
  TANGO_CHECK(period > 0, "periodic tick needs a positive period");
  Simulator* s = &sim;
  const EventHandle handle = sim.StartPeriodic(
      start, period, [s, t = std::move(tick)]() mutable { t(s->Now()); });
  // Cancel is generation-checked, so calling the stopper twice (or after the
  // slot was recycled) is a safe no-op.
  return [s, handle]() { s->Cancel(handle); };
}

}  // namespace tango::sim
