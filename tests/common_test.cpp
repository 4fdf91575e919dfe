// Foundation types: ids, Result/Status, metrics, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <list>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/lru.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace integrade {
namespace {

TEST(Ids, StrongTypingAndValidity) {
  NodeId a(1);
  NodeId b(1);
  NodeId c(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(NodeId().valid());
  EXPECT_EQ(to_string(a), "1");
  EXPECT_EQ(to_string(NodeId()), "<invalid>");

  std::unordered_set<NodeId> set{a, b, c};
  EXPECT_EQ(set.size(), 2u);
}

TEST(TimeUnits, ConversionsAndConstants) {
  EXPECT_EQ(kSecond, 1'000'000);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_EQ(kWeek, 7 * kDay);
  EXPECT_DOUBLE_EQ(to_seconds(90 * kSecond), 90.0);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
}

TEST(TimeUnits, FromSecondsClampsWhatDoesNotFit) {
  // Seconds come from outside input (task work over a node's MIPS); the
  // float-to-integer cast is undefined out of range, so the clamp decides.
  EXPECT_EQ(from_seconds(1e300), kTimeNever);
  EXPECT_EQ(from_seconds(-1e300), -kTimeNever);
  EXPECT_EQ(from_seconds(std::numeric_limits<double>::infinity()), kTimeNever);
  EXPECT_EQ(from_seconds(std::nan("")), kTimeNever);
  EXPECT_EQ(from_seconds(9.2e12), 9'200'000'000'000'000'000);  // still fits
  EXPECT_EQ(from_seconds(-2.5), -2'500'000);
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_EQ(Status::ok().to_string(), "OK");
  Status err(ErrorCode::kNotFound, "missing thing");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), ErrorCode::kNotFound);
  EXPECT_EQ(err.to_string(), "NOT_FOUND: missing thing");
  // Status equality compares codes (used by tests comparing outcomes).
  EXPECT_EQ(err, Status(ErrorCode::kNotFound, "different text"));
  EXPECT_NE(err, Status(ErrorCode::kInternal, "missing thing"));
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or(7), 42);

  Result<int> bad(ErrorCode::kUnavailable, "down");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(bad.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(bad.value_or(7), 7);

  // Move-out path.
  Result<std::string> s = std::string("hello");
  std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "hello");
}

TEST(CounterTest, AddAndReset) {
  Counter counter;
  counter.add();
  counter.add(4);
  EXPECT_EQ(counter.value(), 5);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(SummaryTest, MomentsAndPercentiles) {
  Summary summary;
  EXPECT_EQ(summary.count(), 0);
  EXPECT_DOUBLE_EQ(summary.mean(), 0.0);
  EXPECT_DOUBLE_EQ(summary.percentile(0.5), 0.0);

  for (int i = 1; i <= 100; ++i) summary.observe(i);
  EXPECT_EQ(summary.count(), 100);
  EXPECT_DOUBLE_EQ(summary.mean(), 50.5);
  EXPECT_DOUBLE_EQ(summary.min(), 1.0);
  EXPECT_DOUBLE_EQ(summary.max(), 100.0);
  EXPECT_DOUBLE_EQ(summary.sum(), 5050.0);
  // Population variance of 1..100 = (n^2-1)/12 = 833.25.
  EXPECT_NEAR(summary.variance(), 833.25, 1e-9);
  EXPECT_NEAR(summary.stddev(), std::sqrt(833.25), 1e-9);
  EXPECT_NEAR(summary.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(summary.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(summary.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(summary.percentile(0.99), 99.01, 0.1);

  summary.reset();
  EXPECT_EQ(summary.count(), 0);
}

TEST(SummaryTest, PercentileClampsQuantile) {
  Summary summary;
  summary.observe(5);
  EXPECT_DOUBLE_EQ(summary.percentile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(summary.percentile(2.0), 5.0);
}

TEST(SummaryTest, ReservoirBoundsMemoryOnTenMillionObservations) {
  // Regression: observe() used to retain every sample (and re-sort the whole
  // vector per percentile call), so a week-long chaos run grew without
  // bound. The reservoir must hold memory flat and keep percentiles of a
  // uniform ramp within a small tolerance.
  Summary summary;
  constexpr std::int64_t kN = 10'000'000;
  for (std::int64_t i = 0; i < kN; ++i) {
    summary.observe(static_cast<double>(i));
  }
  EXPECT_EQ(summary.count(), kN);
  EXPECT_LE(summary.retained_bytes(), 64u * 1024u);  // fixed byte budget
  EXPECT_LE(summary.retained_count(), 4096u);
  // Streaming moments stay exact regardless of the reservoir.
  EXPECT_DOUBLE_EQ(summary.min(), 0.0);
  EXPECT_DOUBLE_EQ(summary.max(), static_cast<double>(kN - 1));
  EXPECT_NEAR(summary.mean(), static_cast<double>(kN - 1) / 2.0, 1.0);
  // Quantiles are estimates above the cap: a 4096-sample reservoir puts the
  // standard error of a quantile near sqrt(q(1-q)/4096) ~ 0.8% of the range.
  EXPECT_NEAR(summary.percentile(0.50), 0.50 * kN, 0.05 * kN);
  EXPECT_NEAR(summary.percentile(0.99), 0.99 * kN, 0.05 * kN);
}

TEST(SummaryTest, ReservoirIsDeterministic) {
  // Metrics must never perturb reproducibility: identical observation
  // streams retain identical reservoirs (the sampler is seeded, not random).
  Summary a;
  Summary b;
  for (int i = 0; i < 50'000; ++i) {
    a.observe(i * 7 % 1000);
    b.observe(i * 7 % 1000);
  }
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), b.percentile(q)) << "q=" << q;
  }
}

TEST(SummaryTest, PercentilesExactBelowReservoirCap) {
  Summary summary;
  for (int i = 1; i <= 4000; ++i) summary.observe(i);  // below the 4096 cap
  EXPECT_EQ(summary.retained_count(), 4000u);
  EXPECT_DOUBLE_EQ(summary.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(summary.percentile(1.0), 4000.0);
  EXPECT_NEAR(summary.percentile(0.5), 2000.5, 1e-9);
}

TEST(MetricRegistryTest, NamedMetricsAndReset) {
  MetricRegistry registry;
  registry.counter("a").add(3);
  registry.summary("b").observe(1.5);
  EXPECT_EQ(registry.counter_value("a"), 3);
  EXPECT_EQ(registry.counter_value("nope"), 0);
  EXPECT_EQ(registry.summaries().at("b").count(), 1);
  registry.reset();
  EXPECT_EQ(registry.counter_value("a"), 0);
  EXPECT_EQ(registry.summaries().at("b").count(), 0);
}

TEST(MetricRegistryTest, CounterRefAddsTheNameOnItsFirstBump) {
  MetricRegistry registry;
  CounterRef frames(registry, "frames_received_total");
  EXPECT_TRUE(registry.counters().empty()) << "an unbumped ref adds no key";
  frames.add();
  frames.add(4);
  EXPECT_EQ(registry.counter_value("frames_received_total"), 5);
  registry.reset();  // keeps the counter the ref points at
  frames.add();
  EXPECT_EQ(registry.counter_value("frames_received_total"), 1);
  EXPECT_EQ(registry.counters().size(), 1u);
}

// A full LruCache recycles the evicted entry's nodes for the new one. Its
// recency order must stay that of the plain erase-and-insert model.
TEST(LruCacheTest, RecyclingKeepsTheRecencyOrderOfFreshInserts) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 16));
    LruCache<int, int> cache(capacity);
    std::list<std::pair<int, int>> model;  // front = most recent
    const auto find = [&](int key) {
      return std::find_if(model.begin(), model.end(),
                          [key](const auto& e) { return e.first == key; });
    };
    for (int op = 0; op < 2000; ++op) {
      const int key = static_cast<int>(rng.uniform_int(0, 40));
      if (rng.bernoulli(0.4)) {
        const int* got = cache.get(key);
        const auto it = find(key);
        ASSERT_EQ(got != nullptr, it != model.end());
        if (it != model.end()) {
          EXPECT_EQ(*got, it->second);
          model.splice(model.begin(), model, it);
        }
      } else {
        cache.put(key, op);
        if (const auto it = find(key); it != model.end()) model.erase(it);
        if (model.size() >= capacity) model.pop_back();
        model.emplace_front(key, op);
      }
      ASSERT_TRUE(std::equal(cache.entries().begin(), cache.entries().end(),
                             model.begin(), model.end()))
          << "seed " << seed << ", op " << op;
      for (const auto& [k, v] : model) ASSERT_TRUE(cache.contains(k));
    }
  }
}

TEST(LogTest, SinkAndThreshold) {
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel, const std::string& message) {
    captured.push_back(message);
  });
  const LogLevel previous = log_level();
  set_log_level(LogLevel::kWarn);

  log_debug("test", "dropped");
  log_info("test", "dropped too");
  log_warn("test", "kept");
  log_error("test", "kept too");
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_NE(captured[0].find("[test] kept"), std::string::npos);

  set_log_level(LogLevel::kOff);
  log_error("test", "silenced");
  EXPECT_EQ(captured.size(), 2u);

  set_log_level(previous);
  set_log_sink(nullptr);
}

}  // namespace
}  // namespace integrade
