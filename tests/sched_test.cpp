// Scheduling economy unit tests: TenantRegistry quota/share math and the
// FairQueue weighted-stride dispatcher that replaced the GRM's FIFO deque.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"
#include "sched/sched.hpp"

namespace integrade::sched {
namespace {

TaskId task(std::uint64_t n) { return TaskId(n); }

SchedOptions economy_options() {
  SchedOptions options;
  options.enabled = true;
  options.tenants = {
      {"fast", 4.0, 0, 0},
      {"slow", 1.0, 0, 0},
  };
  return options;
}

// --- TenantRegistry ---

TEST(TenantRegistry, FallsBackToDefaultsForUnknownTenants) {
  SchedOptions options;
  options.tenants = {{"vip", 5.0, 1, 2}};
  TenantRegistry registry;
  registry.configure(options);

  EXPECT_DOUBLE_EQ(registry.spec("vip").weight, 5.0);
  EXPECT_EQ(registry.spec("vip").max_queued, 2);
  EXPECT_DOUBLE_EQ(registry.spec("stranger").weight, 1.0);
  EXPECT_EQ(registry.spec("stranger").max_running, 0);
  EXPECT_EQ(registry.spec("stranger").max_queued, 0);
}

TEST(TenantRegistry, ClampsDegenerateWeights) {
  SchedOptions options;
  options.tenants = {
      {"zero", 0.0, 0, 0},
      {"negative", -3.0, 0, 0},
      {"nan", std::nan(""), 0, 0},
  };
  TenantRegistry registry;
  registry.configure(options);
  EXPECT_DOUBLE_EQ(registry.weight("zero"), 1.0);
  EXPECT_DOUBLE_EQ(registry.weight("negative"), 1.0);
  EXPECT_DOUBLE_EQ(registry.weight("nan"), 1.0);
}

TEST(TenantRegistry, EntitledSlotsFollowWeightRatio) {
  SchedOptions options;
  options.tenants = {{"a", 3.0, 0, 0}, {"b", 1.0, 0, 0}};
  TenantRegistry registry;
  registry.configure(options);
  const TenantCounts running = {{"b", 1}};
  // a and b share 8 slots 3:1 — a is entitled to 6 of them.
  EXPECT_DOUBLE_EQ(registry.entitled_slots("a", 8, running), 6.0);
  // Idle tenants don't dilute the share: with only b running, b owns it all.
  EXPECT_DOUBLE_EQ(registry.entitled_slots("b", 8, running), 8.0);
}

TEST(TenantRegistry, QueuedRequesterDilutesEntitlementViaAlsoActive) {
  SchedOptions options;
  options.tenants = {{"a", 3.0, 0, 0}, {"b", 1.0, 0, 0}};
  TenantRegistry registry;
  registry.configure(options);
  TenantCounts running = {{"a", 1}};
  // b has nothing running, so by default it does not dilute a's share —
  // the monopolist is exactly at-entitlement and preemption could never
  // fire. Naming b as also_active counts its queued demand in.
  EXPECT_DOUBLE_EQ(registry.entitled_slots("a", 8, running), 8.0);
  EXPECT_DOUBLE_EQ(registry.entitled_slots("a", 8, running, "b"), 6.0);
  // The requester's own weight is always counted: also_active naming the
  // tenant itself or an already-running tenant must not double-count.
  EXPECT_DOUBLE_EQ(registry.entitled_slots("b", 8, running, "b"), 2.0);
  EXPECT_DOUBLE_EQ(registry.entitled_slots("a", 8, running, "a"), 8.0);
  running["b"] = 1;
  EXPECT_DOUBLE_EQ(registry.entitled_slots("a", 8, running, "b"), 6.0);
}

// --- FairQueue, one anonymous tenant (how the GRM queues with the economy
// off), plus dedup ---

TEST(FairQueue, OneTenantWithoutDeadlinesPopsFifo) {
  FairQueue queue;
  queue.configure(SchedOptions{});
  EXPECT_TRUE(queue.push(task(3), "", 0));
  EXPECT_TRUE(queue.push(task(1), "", 0));
  EXPECT_TRUE(queue.push(task(2), "", 0));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.fifo_order(), (std::vector<TaskId>{task(3), task(1), task(2)}));
  // Charging the only tenant at dispatch never reorders it.
  for (const TaskId expected : {task(3), task(1), task(2)}) {
    EXPECT_EQ(queue.pop(), expected);
    queue.account_dispatch("", 5000.0);
  }
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairQueue, PushDeduplicatesInBothModes) {
  // The requeue double-enqueue bug: an eviction report racing a node-death
  // sweep used to enqueue the same task twice. Membership is now exactly
  // once, whatever tenant or deadline the duplicate names.
  FairQueue queue;
  queue.configure(SchedOptions{});
  EXPECT_TRUE(queue.push(task(7), "t", 0));
  EXPECT_FALSE(queue.push(task(7), "t", 0));
  EXPECT_FALSE(queue.push(task(7), "other", 99));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop(), task(7));
  EXPECT_EQ(queue.pop(), std::nullopt);
  // Once popped it may be pushed again (legitimate requeue).
  EXPECT_TRUE(queue.push(task(7), "t", 0));
}

TEST(FairQueue, EraseRemovesMembership) {
  FairQueue queue;
  queue.configure(SchedOptions{});
  queue.push(task(1), "", 0);
  queue.push(task(2), "", 0);
  EXPECT_TRUE(queue.erase(task(1)));
  EXPECT_FALSE(queue.erase(task(1)));
  EXPECT_FALSE(queue.contains(task(1)));
  EXPECT_EQ(queue.pop(), task(2));
  EXPECT_TRUE(queue.empty());
}

// --- FairQueue, economy mode ---

TEST(FairQueue, StrideDispatchFollowsWeights) {
  FairQueue queue;
  queue.configure(economy_options());
  std::map<TaskId, std::string> owner;
  for (std::uint64_t i = 1; i <= 25; ++i) {
    queue.push(task(i), "fast", 0);
    owner[task(i)] = "fast";
    queue.push(task(100 + i), "slow", 0);
    owner[task(100 + i)] = "slow";
  }
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 25; ++i) {
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    const std::string& tenant = owner.at(*popped);
    ++dispatched[tenant];
    queue.account_dispatch(tenant, 1000);  // one work unit
  }
  // Weight 4 vs 1: the stride pattern is exactly 4 fast : 1 slow per period.
  EXPECT_EQ(dispatched["fast"], 20);
  EXPECT_EQ(dispatched["slow"], 5);
}

TEST(FairQueue, BigTasksChargeProportionallyMore) {
  FairQueue queue;
  queue.configure(economy_options());
  queue.push(task(1), "fast", 0);
  queue.account_dispatch("fast", 1000);   // 1 unit
  const std::uint64_t one_unit = queue.pass_of("fast");
  queue.account_dispatch("fast", 5000);   // 5 units
  EXPECT_EQ(queue.pass_of("fast"), 6 * one_unit);
  queue.account_dispatch("fast", 0);      // floor: still charges one unit
  EXPECT_EQ(queue.pass_of("fast"), 7 * one_unit);
}

TEST(FairQueue, HugeWorkSaturatesThePassInsteadOfWrapping) {
  // Work is user input: 1e300 MInstr is finite, but its units do not fit
  // 64 bits, and a wrapped pass would send the tenant to the queue's front.
  FairQueue queue;
  queue.configure(economy_options());
  queue.push(task(1), "fast", 0);
  queue.account_dispatch("fast", 1e300);
  EXPECT_EQ(queue.pass_of("fast"), std::numeric_limits<std::uint64_t>::max());
  queue.account_dispatch("fast", 1000);
  EXPECT_EQ(queue.pass_of("fast"), std::numeric_limits<std::uint64_t>::max());
}

TEST(FairQueue, EdfWithinTenantThenFifo) {
  SchedOptions options;
  options.enabled = true;
  FairQueue queue;
  queue.configure(options);
  queue.push(task(1), "t", 300);
  queue.push(task(2), "t", 100);
  queue.push(task(3), "t", 0);    // no deadline sorts last
  queue.push(task(4), "t", 100);  // deadline tie: FIFO by arrival
  EXPECT_EQ(queue.pop(), task(2));
  EXPECT_EQ(queue.pop(), task(4));
  EXPECT_EQ(queue.pop(), task(1));
  EXPECT_EQ(queue.pop(), task(3));
}

TEST(FairQueue, BlockedTenantsAreSkipped) {
  SchedOptions options;
  options.enabled = true;
  FairQueue queue;
  queue.configure(options);
  queue.push(task(1), "a", 0);
  queue.push(task(2), "b", 0);
  // a is at its running quota: only b's work is dispatchable.
  auto block_a = [](const std::string& tenant) { return tenant == "a"; };
  EXPECT_EQ(queue.pop(block_a), task(2));
  EXPECT_EQ(queue.pop(block_a), std::nullopt);
  EXPECT_TRUE(queue.contains(task(1)));  // still queued, not dropped
  EXPECT_EQ(queue.pop(), task(1));
}

TEST(FairQueue, LateJoinerStartsAtCurrentVirtualTime) {
  SchedOptions options;
  options.enabled = true;
  FairQueue queue;
  queue.configure(options);
  for (std::uint64_t i = 1; i <= 3; ++i) queue.push(task(i), "a", 0);
  queue.pop();
  queue.account_dispatch("a", 1000);
  queue.pop();
  queue.account_dispatch("a", 1000);
  ASSERT_GT(queue.pass_of("a"), 0u);
  // b joins late; it inherits a's pass instead of monopolising dispatch
  // from virtual time zero.
  queue.push(task(10), "b", 0);
  EXPECT_EQ(queue.pass_of("b"), queue.pass_of("a"));
}

TEST(FairQueue, SaveLoadRoundTripPreservesOrderAndPasses) {
  FairQueue queue;
  queue.configure(economy_options());
  queue.push(task(1), "slow", 0);
  queue.push(task(2), "fast", 500);
  queue.push(task(3), "fast", 200);
  queue.push(task(4), "slow", 0);
  queue.account_dispatch("slow", 3000);
  queue.account_dispatch("fast", 1000);

  const std::vector<TaskId> ids = queue.fifo_order();
  const auto bytes = cdr::encode_message(queue.save());

  FairQueue restored;
  restored.configure(economy_options());
  const auto image = cdr::decode_message<QueueImage>(bytes);
  ASSERT_TRUE(image.is_ok());
  ASSERT_TRUE(restored.load(image.value()).is_ok());
  EXPECT_EQ(cdr::encode_message(restored.save()), bytes);

  EXPECT_EQ(restored.fifo_order(), ids);
  EXPECT_EQ(restored.pass_of("slow"), queue.pass_of("slow"));
  EXPECT_EQ(restored.pass_of("fast"), queue.pass_of("fast"));
  EXPECT_EQ(restored.tenant_of(task(1)), "slow");
  EXPECT_EQ(restored.tenant_of(task(3)), "fast");
  // The two queues must dispatch identically from here on.
  while (!queue.empty()) {
    auto expect = queue.pop();
    auto got = restored.pop();
    ASSERT_EQ(got, expect);
    const std::string tenant = *expect == task(1) || *expect == task(4)
                                   ? "slow"
                                   : "fast";
    queue.account_dispatch(tenant, 1000);
    restored.account_dispatch(tenant, 1000);
  }
  EXPECT_TRUE(restored.empty());
}

TEST(FairQueue, QueuedHeadsReportEdfHeadPerTenant) {
  FairQueue queue;
  queue.configure(economy_options());
  // fast: task 1 (no deadline) arrives before task 2 (deadline 50) — EDF
  // puts 2 at the head. slow: single task 3. Tenants report in name order.
  EXPECT_TRUE(queue.push(task(1), "fast", 0));
  EXPECT_TRUE(queue.push(task(2), "fast", 50));
  EXPECT_TRUE(queue.push(task(3), "slow", 0));
  const auto heads = queue.queued_heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0].first, "fast");
  EXPECT_EQ(heads[0].second, task(2));
  EXPECT_EQ(heads[1].first, "slow");
  EXPECT_EQ(heads[1].second, task(3));
  // Draining a tenant drops it from the report entirely.
  EXPECT_TRUE(queue.erase(task(3)));
  const auto remaining = queue.queued_heads();
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].first, "fast");
}

TEST(FairQueue, LoadRejectsImagesSaveCannotWrite) {
  FairQueue queue;
  queue.configure(economy_options());
  queue.push(task(1), "slow", 0);
  queue.push(task(2), "fast", 500);
  const QueueImage good = queue.save();

  auto expect_rejected = [&](const QueueImage& bad) {
    FairQueue target;
    target.configure(economy_options());
    target.push(task(9), "", 0);
    EXPECT_FALSE(target.load(bad).is_ok());
    EXPECT_EQ(target.fifo_order(), std::vector<TaskId>{task(9)});  // untouched
  };

  QueueImage short_meta = good;
  short_meta.entries.pop_back();
  expect_rejected(short_meta);

  QueueImage twice = good;
  twice.ids[1] = twice.ids[0];
  expect_rejected(twice);

  QueueImage unsorted = good;
  std::swap(unsorted.passes[0], unsorted.passes[1]);
  expect_rejected(unsorted);

  QueueImage passless = good;
  passless.passes.pop_back();
  expect_rejected(passless);

  FairQueue restored;
  restored.configure(economy_options());
  ASSERT_TRUE(restored.load(good).is_ok());
  EXPECT_EQ(restored.fifo_order(), queue.fifo_order());
}

}  // namespace
}  // namespace integrade::sched
