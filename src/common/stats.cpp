#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace integrade {

void Summary::observe(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  if (samples_.size() < kReservoirCap) {
    samples_.push_back(x);
    sorted_ = false;
  } else {
    // Vitter's algorithm R with a splitmix64 stream off a fixed seed: slot
    // j uniform in [0, count); keep the sample only if it falls inside the
    // reservoir. Memory stays capped and the retained set is deterministic
    // for a given observation sequence.
    std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const std::uint64_t j = z % static_cast<std::uint64_t>(count_);
    if (j < kReservoirCap) {
      samples_[static_cast<std::size_t>(j)] = x;
      sorted_ = false;
    }
  }
}

double Summary::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Summary::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void Summary::reset() {
  count_ = 0;
  sum_ = mean_ = m2_ = min_ = max_ = 0.0;
  rng_state_ = kReservoirSeed;
  samples_.clear();
  sorted_ = true;
}

std::int64_t MetricRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

void MetricRegistry::reset() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, s] : summaries_) s.reset();
}

}  // namespace integrade
