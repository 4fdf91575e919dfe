// Lightweight metrics used by every subsystem and printed by the benches.
//
// Counter: monotonically increasing event count.
// Summary: streaming mean/variance (Welford) + min/max + a bounded sample
//          reservoir for percentiles: exact below the cap, deterministic
//          (fixed-seed) reservoir sampling above it, so week-long chaos runs
//          stay within a fixed byte budget.
// MetricRegistry: named metrics, so a component can expose its counters
//          without the caller knowing its internals.
// CounterRef: a registry counter bound on its first bump, for hot paths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace integrade {

class Counter {
 public:
  void add(std::int64_t n = 1) { value_ += n; }
  [[nodiscard]] std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

class Summary {
 public:
  void observe(double x);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Percentile over retained samples, q in [0, 1]. Exact while count() is
  /// below the reservoir cap; an unbiased estimate beyond it. Returns 0 if
  /// empty.
  [[nodiscard]] double percentile(double q) const;

  /// Bytes held for percentile estimation — bounded by the reservoir cap
  /// regardless of how many samples were observed.
  [[nodiscard]] std::size_t retained_bytes() const {
    return samples_.capacity() * sizeof(double);
  }
  [[nodiscard]] std::size_t retained_count() const { return samples_.size(); }

  void reset();

 private:
  /// Reservoir cap: 4096 doubles = 32 KiB per summary, enough for percentile
  /// estimates within a fraction of a percent on smooth distributions.
  static constexpr std::size_t kReservoirCap = 4096;
  /// Fixed seed so identical observation streams always retain identical
  /// reservoirs (metrics must never perturb reproducibility).
  static constexpr std::uint64_t kReservoirSeed = 0x9e3779b97f4a7c15ULL;

  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t rng_state_ = kReservoirSeed;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

class MetricRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Summary& summary(const std::string& name) { return summaries_[name]; }

  [[nodiscard]] std::int64_t counter_value(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Summary>& summaries() const { return summaries_; }

  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Summary> summaries_;
};

/// One counter of a registry, looked up by name on its first bump and
/// cached: the registry gains the name exactly when counter(name).add()
/// would have added it, and later bumps skip the string-keyed lookup. The
/// registry must outlive the handle and keep its counters (reset() keeps
/// them).
class CounterRef {
 public:
  CounterRef(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  void add(std::int64_t n = 1) {
    if (counter_ == nullptr) counter_ = &registry_->counter(name_);
    counter_->add(n);
  }

 private:
  MetricRegistry* registry_;
  const char* name_;
  Counter* counter_ = nullptr;
};

}  // namespace integrade
