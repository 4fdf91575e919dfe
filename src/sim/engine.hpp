// Deterministic discrete-event simulation kernel.
//
// The whole InteGrade grid — nodes, owners, managers, the network — runs as
// callbacks scheduled on one of these engines. Events at equal timestamps
// fire in scheduling order (a monotonic sequence number breaks ties), which
// together with the seeded Rng makes every experiment bit-reproducible.
//
// The event core is an indirect heap. The heap orders 24-byte (when, seq,
// slot) keys, and its sifts move a hole instead of swapping, so a sift never
// touches a callable. Each callable lives in its slot of a slab of
// generation-counted slots reused across events, as an EventFn: a move-only
// callable whose inline storage holds closures of up to
// EventFn::kInlineBytes (a network delivery with its frame fits), so most
// events allocate nothing. Handles are a (slot, generation) pair that a
// reused slot automatically invalidates. Cancelled events normally drain
// lazily when they reach the top of the heap; if they ever outnumber half
// the queue the heap is compacted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace integrade::sim {

class Engine;

/// A move-only `void()` callable. A closure of up to kInlineBytes that
/// moves without throwing lives inside the EventFn; a larger one costs one
/// heap allocation. Moving an EventFn moves (or, for a heap closure,
/// re-points) its closure, and the closure is destroyed exactly once.
class EventFn {
 public:
  /// Sized for the network's delivery event: the network, both endpoints,
  /// the transport and the frame.
  static constexpr std::size_t kInlineBytes = 56;

  EventFn() = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& f) {  // NOLINT: implicit, like std::function
    using D = std::decay_t<F>;
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroy the closure, leaving the EventFn empty.
  void reset() {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(storage_);
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move the closure from `from` to `to` and end its life at `from`.
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* to, void* from) noexcept {
        ::new (to) D(std::move(*static_cast<D*>(from)));
        static_cast<D*>(from)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* to, void* from) noexcept {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); }};

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Handles are trivially copyable (slot + generation);
/// one whose event already fired — or whose slot was since reused — is a
/// safe no-op. A handle must not outlive its Engine.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel();

  [[nodiscard]] bool active() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (>= now).
  EventHandle schedule_at(SimTime when, EventFn fn);

  /// Schedule `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(SimDuration delay, EventFn fn);

  /// Run events until the queue drains or `deadline` passes. The clock ends
  /// at min(deadline, last event time). Returns the number of events fired.
  std::int64_t run_until(SimTime deadline);

  /// Run until the queue is empty.
  std::int64_t run() { return run_until(kTimeNever); }

  /// Fire exactly one event if any is due at or before `deadline`. Returns
  /// false when nothing fired. Callers polling state between events
  /// (Grid::run_until_app_done) use this.
  bool step(SimTime deadline = kTimeNever);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::int64_t events_fired() const { return fired_; }

  /// Cancellation slots currently allocated (live events + free list); the
  /// slab's high-water mark, for allocation-regression tests.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

 private:
  friend class EventHandle;

  /// A heap entry. The callable stays in its slot while the key moves.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    bool cancelled = false;
  };

  [[nodiscard]] static bool earlier(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_root();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_active(std::uint32_t slot,
                                 std::uint32_t generation) const;
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::int64_t fired_ = 0;
  std::vector<Key> heap_;  // min-heap ordered by (when, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_pending_ = 0;  // cancelled events still in heap_
};

/// Repeating timer built on Engine: fires `fn` every `period` starting at
/// `start`, until stopped or the owner is destroyed.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start(Engine& engine, SimDuration period, std::function<void()> fn,
             SimDuration initial_delay = -1);
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm();

  Engine* engine_ = nullptr;
  SimDuration period_ = 0;
  std::function<void()> fn_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace integrade::sim
