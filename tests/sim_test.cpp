// Discrete-event engine and network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace integrade::sim {
namespace {

TEST(EngineTest, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(EngineTest, EqualTimestampsFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, CancelledEventDoesNotFire) {
  Engine engine;
  bool fired = false;
  auto handle = engine.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(100, [&] { ++fired; });
  engine.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 50);  // clock moves to the deadline
  engine.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, EventsScheduledDuringRunFire) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) engine.schedule_after(10, chain);
  };
  engine.schedule_after(10, chain);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), 50);
}

TEST(EngineTest, StepFiresExactlyOne) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1, [&] { ++fired; });
  engine.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.step());
}

// Payload whose copies/moves are observable: the event core must never copy
// a scheduled closure after the initial schedule (Event is move-only; a copy
// inside the heap machinery would show up here as copies > 0).
struct CountingPayload {
  int* copies;
  int* moves;
  CountingPayload(int* c, int* m) : copies(c), moves(m) {}
  CountingPayload(const CountingPayload& o) : copies(o.copies), moves(o.moves) {
    ++*copies;
  }
  CountingPayload(CountingPayload&& o) noexcept
      : copies(o.copies), moves(o.moves) {
    ++*moves;
  }
  void operator()() const {}
};

TEST(EngineTest, SchedulingAndSteppingNeverCopiesEvents) {
  Engine engine;
  int copies = 0;
  int moves = 0;
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i) {
    // Constructed in place: every transfer from here on must be a move.
    engine.schedule_at(i, std::function<void()>(
                              CountingPayload(&copies, &moves)));
  }
  EXPECT_EQ(copies, 0);
  int fired = 0;
  while (engine.step()) ++fired;
  EXPECT_EQ(fired, kEvents);
  EXPECT_EQ(copies, 0) << "heap machinery copied a closure";
}

TEST(EngineTest, SlotSlabIsReusedAcrossWaves) {
  Engine engine;
  constexpr int kWave = 64;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < kWave; ++i) {
      engine.schedule_after(1 + i, [] {});
    }
    engine.run();
  }
  // 20 waves of 64 events must not grow the slab past one wave's worth:
  // released slots are recycled through the free list.
  EXPECT_LE(engine.slot_capacity(), static_cast<std::size_t>(kWave));
}

TEST(EngineTest, MassCancellationCompactsTheHeap) {
  Engine engine;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 1000;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(engine.schedule_at(10 + i, [&] { ++fired; }));
  }
  // Cancel all but every 10th event: cancelled entries exceed half the
  // queue, so the engine compacts instead of carrying them to the top.
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i % 10 != 0) handles[i].cancel();
  }
  EXPECT_LT(engine.pending(), static_cast<std::size_t>(kEvents) / 2);
  engine.run();
  EXPECT_EQ(fired, kEvents / 10);
}

TEST(EngineTest, HandleOutlivingFireIsInertEvenAfterSlotReuse) {
  Engine engine;
  int first_fired = 0;
  auto stale = engine.schedule_at(1, [&] { ++first_fired; });
  engine.run();
  EXPECT_EQ(first_fired, 1);
  EXPECT_FALSE(stale.active());

  // The fired event's slot is recycled for the next schedule; the stale
  // handle's generation no longer matches, so cancel() must not touch it.
  bool second_fired = false;
  engine.schedule_at(2, [&] { second_fired = true; });
  stale.cancel();
  engine.run();
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(first_fired, 1);
}

TEST(EngineTest, CancelledEventsPastDeadlineStillDrain) {
  Engine engine;
  auto h = engine.schedule_at(100, [] {});
  h.cancel();
  engine.schedule_at(5, [] {});
  engine.run_until(50);
  // The cancelled event at t=100 is unreachable garbage; it must not keep
  // the queue artificially non-empty forever.
  engine.run();
  EXPECT_TRUE(engine.empty());
}

// A closure of `kBytes` that counts the live copies of itself and its
// calls, and records where it ran: inside its EventFn or on the heap.
template <std::size_t kBytes>
struct Tracked {
  int* live;
  int* calls;
  const void** ran_at;
  std::array<unsigned char, kBytes - 3 * sizeof(void*)> pad{};

  Tracked(int* l, int* c, const void** at) : live(l), calls(c), ran_at(at) {
    ++*live;
  }
  Tracked(const Tracked& o) : live(o.live), calls(o.calls), ran_at(o.ran_at) {
    ++*live;
  }
  Tracked(Tracked&& o) noexcept : live(o.live), calls(o.calls), ran_at(o.ran_at) {
    ++*live;
  }
  ~Tracked() { --*live; }
  void operator()() {
    ++*calls;
    *ran_at = this;
  }
};

bool ran_inside(const EventFn& fn, const void* at) {
  const auto* begin = reinterpret_cast<const unsigned char*>(&fn);
  const auto* p = static_cast<const unsigned char*>(at);
  return p >= begin && p < begin + sizeof(EventFn);
}

TEST(EventFnTest, SmallClosuresLiveInlineAndLargeOnesOnTheHeap) {
  int live = 0;
  int calls = 0;
  const void* at = nullptr;
  {
    EventFn small = Tracked<EventFn::kInlineBytes>(&live, &calls, &at);
    small();
    EXPECT_TRUE(ran_inside(small, at));
    EventFn moved = std::move(small);
    EXPECT_FALSE(small);
    moved();
    EXPECT_TRUE(ran_inside(moved, at));

    EventFn large = Tracked<EventFn::kInlineBytes + 8>(&live, &calls, &at);
    large();
    const void* heap_at = at;
    EXPECT_FALSE(ran_inside(large, heap_at));
    EventFn moved_large = std::move(large);
    moved_large();
    EXPECT_EQ(at, heap_at) << "moving a heap closure must not move the closure";
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(live, 0);
}

// Every closure is destroyed exactly once, however its event ends: fired,
// cancelled and then popped, compacted away, or left in the queue when the
// engine dies. A double destruction drives `live` below zero; a leak
// leaves it above.
template <std::size_t kBytes>
void expect_each_closure_destroyed_once() {
  int live = 0;
  int calls = 0;
  const void* at = nullptr;
  {
    Engine engine;
    engine.schedule_at(1, Tracked<kBytes>(&live, &calls, &at));  // fires
    EventHandle popped = engine.schedule_at(2, Tracked<kBytes>(&live, &calls, &at));
    popped.cancel();  // cancelled, then popped at the top of the heap
    engine.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 0);

    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i) {
      handles.push_back(
          engine.schedule_at(10 + i, Tracked<kBytes>(&live, &calls, &at)));
    }
    for (int i = 0; i < 80; ++i) handles[static_cast<std::size_t>(i)].cancel();
    // The first 51 cancellations compacted the heap; the rest pop.
    EXPECT_EQ(engine.pending(), 49u);
    EXPECT_EQ(live, 49);
    engine.run();
    EXPECT_EQ(calls, 21);
    EXPECT_EQ(live, 0);

    engine.schedule_at(200, Tracked<kBytes>(&live, &calls, &at));  // never fires
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(calls, 21);
  EXPECT_EQ(live, 0);
}

TEST(EventFnTest, InlineClosuresAreDestroyedExactlyOnce) {
  expect_each_closure_destroyed_once<EventFn::kInlineBytes>();
}

TEST(EventFnTest, HeapClosuresAreDestroyedExactlyOnce) {
  expect_each_closure_destroyed_once<EventFn::kInlineBytes + 8>();
}

// Random schedules, cancellations (enough to compact) and events that
// schedule more fire in exactly (when, seq) order: the order of a sorted
// reference of every event that was not cancelled.
TEST(EngineOrderTest, RandomRunsFireInWhenSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Engine engine;
    struct Scheduled {
      SimTime when;
      int seq;
      EventHandle handle;
      bool cancelled = false;
    };
    std::vector<Scheduled> scheduled;
    std::vector<std::pair<SimTime, int>> fired;
    std::function<void(SimTime)> schedule = [&](SimTime when) {
      const int seq = static_cast<int>(scheduled.size());
      const bool spawns = rng.bernoulli(0.2);
      EventHandle handle = engine.schedule_at(when, [&, when, seq, spawns] {
        fired.emplace_back(when, seq);
        if (spawns) schedule(engine.now() + rng.uniform_int(0, 50));
      });
      scheduled.push_back({when, seq, handle});
    };
    for (int round = 0; round < 5; ++round) {
      const SimTime base = engine.now();
      for (int i = 0; i < 300; ++i) schedule(base + rng.uniform_int(0, 1000));
      for (int i = 0; i < 250; ++i) {
        Scheduled& victim = scheduled[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(scheduled.size()) - 1))];
        if (!victim.handle.active()) continue;
        victim.handle.cancel();
        victim.cancelled = true;
      }
      engine.run_until(base + 500);
    }
    engine.run();

    std::vector<std::pair<SimTime, int>> expected;
    for (const Scheduled& s : scheduled) {
      if (!s.cancelled) expected.emplace_back(s.when, s.seq);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected) << "seed " << seed;
  }
}

TEST(PeriodicTimerTest, FiresAtPeriodUntilStopped) {
  Engine engine;
  PeriodicTimer timer;
  int fires = 0;
  timer.start(engine, 10, [&] {
    if (++fires == 3) timer.stop();
  });
  engine.run_until(1000);
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimerTest, InitialDelayOverride) {
  Engine engine;
  PeriodicTimer timer;
  std::vector<SimTime> at;
  timer.start(engine, 100, [&] { at.push_back(engine.now()); }, 5);
  engine.run_until(310);
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], 5);
  EXPECT_EQ(at[1], 105);
}

TEST(PeriodicTimerTest, DestructionCancels) {
  Engine engine;
  int fires = 0;
  {
    PeriodicTimer timer;
    timer.start(engine, 10, [&] { ++fires; });
  }
  engine.run_until(100);
  EXPECT_EQ(fires, 0);
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : network(engine, Rng(1)) {
    network.set_jitter(0.0);  // deterministic timing for assertions
    SegmentSpec lan;
    lan.bandwidth = 100.0 * 1000 * 1000 / 8;  // 100 Mbps
    lan.latency = 100;                        // 100 us
    lan.uplink_bandwidth = 10.0 * 1000 * 1000 / 8;
    lan.uplink_latency = 1000;
    seg_a = network.add_segment(lan);
    seg_b = network.add_segment(lan);
    network.attach(1, seg_a);
    network.attach(2, seg_a);
    network.attach(3, seg_b);
  }

  Engine engine;
  Network network;
  SegmentId seg_a{};
  SegmentId seg_b{};
};

TEST_F(NetworkFixture, IntraSegmentDeliveryTime) {
  SimTime delivered = -1;
  // 12.5 MB at 12.5 MB/s = 1 s, plus 100us latency.
  network.send(1, 2, 12'500'000, [&] { delivered = engine.now(); });
  engine.run();
  EXPECT_EQ(delivered, kSecond + 100);
}

TEST_F(NetworkFixture, InterSegmentUsesMinBandwidthAndSummedLatency) {
  SimTime delivered = -1;
  // Path bandwidth = min(lan, uplink, uplink, lan) = 1.25 MB/s.
  // 1.25 MB takes 1s. Latency = 100 + 1000 + 1000 + 100 us.
  network.send(1, 3, 1'250'000, [&] { delivered = engine.now(); });
  engine.run();
  EXPECT_EQ(delivered, kSecond + 2200);
}

TEST_F(NetworkFixture, PathQueries) {
  EXPECT_DOUBLE_EQ(network.path_bandwidth(1, 2), 100.0 * 1000 * 1000 / 8);
  EXPECT_DOUBLE_EQ(network.path_bandwidth(1, 3), 10.0 * 1000 * 1000 / 8);
  EXPECT_EQ(network.path_latency(1, 2), 100);
  EXPECT_EQ(network.path_latency(1, 3), 2200);
}

TEST_F(NetworkFixture, DetachedDestinationDropsInFlight) {
  bool delivered = false;
  network.send(1, 3, 1'250'000, [&] { delivered = true; });
  network.detach(3);
  engine.run();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkFixture, DetachedSourceDropsInFlight) {
  // Regression: a message already in flight must die when its *sender*
  // detaches, just as it does when the destination detaches — a crashed
  // machine's frames never arrive.
  bool delivered = false;
  network.send(1, 3, 1'250'000, [&] { delivered = true; });
  network.detach(1);
  engine.run();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkFixture, UnknownDestinationDropsImmediately) {
  bool delivered = false;
  network.send(1, 99, 10, [&] { delivered = true; });
  engine.run();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkFixture, StatsAccumulate) {
  network.send(1, 2, 1000, [] {});
  network.send(1, 3, 500, [] {});
  engine.run();
  EXPECT_EQ(network.stats().messages, 2);
  EXPECT_EQ(network.stats().bytes, 1500);
  EXPECT_EQ(network.bytes_on_segment(seg_a), 1500);  // both leave seg_a
  EXPECT_EQ(network.bytes_on_segment(seg_b), 500);
  EXPECT_EQ(network.backbone_bytes(), 500);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RngTest, UniformIntBoundsAndCoverage) {
  Rng rng(7);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++seen[static_cast<std::size_t>(v - 10)];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

}  // namespace
}  // namespace integrade::sim
