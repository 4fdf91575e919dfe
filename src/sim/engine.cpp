#include "sim/engine.hpp"

#include <cassert>
#include <utility>

namespace integrade::sim {

// ---------------------------------------------------------------------------
// EventHandle
// ---------------------------------------------------------------------------

void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel_slot(slot_, generation_);
}

bool EventHandle::active() const {
  return engine_ != nullptr && engine_->slot_active(slot_, generation_);
}

// ---------------------------------------------------------------------------
// Slot slab
// ---------------------------------------------------------------------------

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  // Bumping the generation invalidates every outstanding handle to this
  // slot's previous tenant before the slot is handed to a new event.
  ++slots_[slot].generation;
  slots_[slot].cancelled = false;
  free_slots_.push_back(slot);
}

void Engine::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation || s.cancelled) return;
  s.cancelled = true;
  ++cancelled_pending_;
  // Lazy compaction: a queue that is mostly tombstones wastes heap work and
  // memory, so rebuild once cancellations outnumber live events.
  if (cancelled_pending_ * 2 > heap_.size() && heap_.size() >= 64) compact();
}

bool Engine::slot_active(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slots_.size() && slots_[slot].generation == generation &&
         !slots_[slot].cancelled;
}

void Engine::compact() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t slot = heap_[i].slot;
    if (slots_[slot].cancelled) {
      slots_[slot].fn.reset();
      release_slot(slot);
      continue;
    }
    heap_[out++] = heap_[i];
  }
  heap_.resize(out);
  cancelled_pending_ = 0;
  // Floyd heapify: O(n), and pop order is governed solely by the total
  // (when, seq) order, so the rebuild cannot perturb replay determinism.
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

// ---------------------------------------------------------------------------
// Binary heap of keys (min on (when, seq)); sifts move a hole
// ---------------------------------------------------------------------------

void Engine::sift_up(std::size_t i) {
  const Key moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key moving = heap_[i];
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t least = left;
    if (right < n && earlier(heap_[right], heap_[left])) least = right;
    if (!earlier(heap_[least], moving)) break;
    heap_[i] = heap_[least];
    i = least;
  }
  heap_[i] = moving;
}

void Engine::pop_root() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

// ---------------------------------------------------------------------------
// Scheduling and dispatch
// ---------------------------------------------------------------------------

EventHandle Engine::schedule_at(SimTime when, EventFn fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Key{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventHandle(this, slot, slots_[slot].generation);
}

EventHandle Engine::schedule_after(SimDuration delay, EventFn fn) {
  assert(delay >= 0);
  // Saturating add: a delay near the SimDuration max must clamp to
  // kTimeNever, not wrap.
  const SimTime when = (now_ > 0 && delay > kTimeNever - now_) ? kTimeNever
                                                               : now_ + delay;
  return schedule_at(when, std::move(fn));
}

bool Engine::step(SimTime deadline) {
  while (!heap_.empty()) {
    const Key top = heap_.front();
    Slot& slot = slots_[top.slot];
    if (slot.cancelled) {
      --cancelled_pending_;
      // Retire the event before its closure dies: a destructor then sees a
      // consistent engine.
      EventFn dead = std::move(slot.fn);
      release_slot(top.slot);
      pop_root();
      continue;
    }
    if (top.when > deadline) return false;
    now_ = top.when;
    ++fired_;
    // Move the closure out and retire the event *before* running it: the
    // callback may schedule, cancel, or compact freely.
    EventFn fn = std::move(slot.fn);
    release_slot(top.slot);
    pop_root();
    fn();
    return true;
  }
  return false;
}

std::int64_t Engine::run_until(SimTime deadline) {
  std::int64_t n = 0;
  while (step(deadline)) ++n;
  if (deadline != kTimeNever && deadline > now_) now_ = deadline;
  return n;
}

// ---------------------------------------------------------------------------
// PeriodicTimer
// ---------------------------------------------------------------------------

void PeriodicTimer::start(Engine& engine, SimDuration period,
                          std::function<void()> fn, SimDuration initial_delay) {
  stop();
  assert(period > 0);
  engine_ = &engine;
  period_ = period;
  fn_ = std::move(fn);
  running_ = true;
  pending_ = engine_->schedule_after(initial_delay >= 0 ? initial_delay : period_,
                                     [this] { arm(); });
}

void PeriodicTimer::arm() {
  if (!running_) return;
  // Re-arm before firing so fn_ may call stop() and win.
  pending_ = engine_->schedule_after(period_, [this] { arm(); });
  fn_();
}

void PeriodicTimer::stop() {
  running_ = false;
  pending_.cancel();
}

}  // namespace integrade::sim
