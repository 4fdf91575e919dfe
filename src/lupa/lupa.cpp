#include "lupa/lupa.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace integrade::lupa {

using node::kSlotsPerDay;

namespace {

constexpr SimDuration kSampleInterval = 5 * kMinute;
/// An owner-CPU sample above this counts as "busy" (mirrors the NCC's
/// default idleness definition).
constexpr double kBusyCpuThreshold = 0.15;
/// Upper bound for category discovery; actual k is selected by BIC.
constexpr std::size_t kMaxCategories = 6;
constexpr double kBicPenalty = 2.0;

/// Mixture busy probability of `categories` under `weights` at a day-slot.
double mixture_busy_prob(const std::vector<protocol::UsageCategory>& categories,
                         const std::vector<double>& weights, int slot) {
  double p = 0.0;
  for (std::size_t c = 0; c < categories.size(); ++c) {
    const auto& centroid = categories[c].centroid;
    if (centroid.empty()) continue;
    p += weights[c] *
         centroid[static_cast<std::size_t>(slot) % centroid.size()];
  }
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace

Lupa::Lupa(sim::Engine& engine, const node::Machine& machine, Rng rng,
           LupaOptions options)
    : engine_(engine),
      machine_(machine),
      rng_(rng),
      options_(options),
      slot_samples_(kSlotsPerDay, 0),
      slot_busy_(kSlotsPerDay, 0) {}

void Lupa::start() {
  current_day_index_ = static_cast<int>(engine_.now() / kDay);
  timer_.start(engine_, kSampleInterval, [this] { sample(); });
}

void Lupa::stop() { timer_.stop(); }

void Lupa::sample() {
  const SimTime now = engine_.now();
  const int day_index = static_cast<int>(now / kDay);
  if (day_index != current_day_index_) {
    // Day rolled over: Monday-indexed weekday flag of the *finished* day.
    const int finished_dow = static_cast<int>((day_index - 1) % 7);
    finalize_day(/*weekday=*/finished_dow < 5);
    current_day_index_ = day_index;
  }

  const int slot = node::slot_of_day(now);
  const auto& load = machine_.owner_load();
  const bool busy =
      load.present || load.cpu_fraction > kBusyCpuThreshold;
  ++slot_samples_[static_cast<std::size_t>(slot)];
  if (busy) ++slot_busy_[static_cast<std::size_t>(slot)];
}

void Lupa::finalize_day(bool weekday) {
  DayRecord day;
  day.weekday = weekday;
  day.busy_fraction.resize(kSlotsPerDay);
  for (int s = 0; s < kSlotsPerDay; ++s) {
    const int samples = slot_samples_[static_cast<std::size_t>(s)];
    day.busy_fraction[static_cast<std::size_t>(s)] =
        samples == 0
            ? 0.0
            : static_cast<double>(slot_busy_[static_cast<std::size_t>(s)]) /
                  samples;
  }
  std::fill(slot_samples_.begin(), slot_samples_.end(), 0);
  std::fill(slot_busy_.begin(), slot_busy_.end(), 0);

  ingest_day(std::move(day));

  if (++days_since_recluster_ >= options_.recluster_every_days) {
    days_since_recluster_ = 0;
    recluster();
  }
}

void Lupa::ingest_day(DayRecord day) {
  assert(day.busy_fraction.size() == static_cast<std::size_t>(kSlotsPerDay));
  history_.push_back(std::move(day));
  if (history_.size() > options_.max_history_days) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(history_.size() -
                                                   options_.max_history_days));
  }
}

void Lupa::recluster() {
  if (history_.size() < 2) return;

  std::vector<Vector> points;
  points.reserve(history_.size());
  for (const auto& day : history_) points.push_back(day.busy_fraction);

  const std::size_t max_k = std::min(kMaxCategories, points.size());
  const Clustering clustering =
      kmeans_select_k(points, max_k, rng_, kBicPenalty);

  categories_.clear();
  const std::vector<double> weights = clustering.weights();
  for (std::size_t c = 0; c < clustering.k(); ++c) {
    if (weights[c] <= 0.0) continue;  // empty category: dropped ("disappear")
    protocol::UsageCategory cat;
    cat.centroid = clustering.centroids[c];
    cat.weight = weights[c];
    int members = 0;
    int weekdays = 0;
    for (std::size_t i = 0; i < history_.size(); ++i) {
      if (clustering.assignment[i] != c) continue;
      ++members;
      if (history_[i].weekday) ++weekdays;
    }
    cat.weekday_fraction =
        members == 0 ? 0.0 : static_cast<double>(weekdays) / members;
    categories_.push_back(std::move(cat));
  }

  if (on_model_update_) on_model_update_();
}

protocol::UsagePatternUpload Lupa::build_upload() const {
  protocol::UsagePatternUpload upload;
  upload.node = machine_.id();
  upload.categories = categories_;
  upload.days_observed = days_observed();
  return upload;
}

std::vector<double> Lupa::category_posterior(SimTime at) const {
  std::vector<double> weights(categories_.size(), 0.0);
  if (categories_.empty()) return weights;

  // Today's partial day vector: completed slots only.
  const int slot_now = node::slot_of_day(at);
  Vector partial(static_cast<std::size_t>(slot_now), 0.0);
  for (int s = 0; s < slot_now; ++s) {
    const int samples = slot_samples_[static_cast<std::size_t>(s)];
    partial[static_cast<std::size_t>(s)] =
        samples == 0
            ? 0.0
            : static_cast<double>(slot_busy_[static_cast<std::size_t>(s)]) /
                  samples;
  }

  // Posterior ∝ prior · P(today's weekday-ness | category) · evidence,
  // where evidence = exp(-d² / (2σ²·m)) over the m observed slots. The
  // day-of-week term matters most in the early morning, when the partial
  // day cannot yet distinguish "quiet weekday morning" from "weekend".
  const bool weekday_today = node::day_of_week(at) < 5;
  const double sigma2 = 0.08;
  double total = 0.0;
  for (std::size_t c = 0; c < categories_.size(); ++c) {
    double d2 = 0.0;
    const std::size_t m =
        std::min(partial.size(), categories_[c].centroid.size());
    for (std::size_t i = 0; i < m; ++i) {
      const double diff = partial[i] - categories_[c].centroid[i];
      d2 += diff * diff;
    }
    const double evidence =
        m == 0 ? 1.0 : std::exp(-d2 / (2.0 * sigma2 * static_cast<double>(m)));
    const double dow_like = std::clamp(
        weekday_today ? categories_[c].weekday_fraction
                      : 1.0 - categories_[c].weekday_fraction,
        0.05, 0.95);
    weights[c] = categories_[c].weight * dow_like * evidence;
    total += weights[c];
  }
  if (total <= 0.0) {
    for (std::size_t c = 0; c < categories_.size(); ++c) {
      weights[c] = categories_[c].weight;
    }
    return weights;
  }
  for (double& w : weights) w /= total;
  return weights;
}

double Lupa::p_idle_through(SimTime at, SimDuration horizon) const {
  if (!has_model()) return 0.0;
  if (horizon <= 0) return 1.0;
  return mixture_p_idle_through(categories_, category_posterior(at), at,
                                horizon);
}

SimDuration Lupa::expected_idle_remaining(SimTime at) const {
  if (!has_model()) return 0;
  return mixture_expected_idle(categories_, category_posterior(at), at);
}

double mixture_p_idle_through(
    const std::vector<protocol::UsageCategory>& categories,
    const std::vector<double>& weights, SimTime at, SimDuration horizon) {
  // Owner sessions are block-structured (work mornings, lunch dips,
  // nights), so within a category the day's busy-fraction curve traces the
  // blocks. Conditioned on "idle now", the owner arrives inside the window
  // roughly when the curve *rises* above its current level — so
  //   P(arrival) ≈ clamp(max_{slot in window} c[slot] − c[now], 0, 1)
  // which, unlike an independent-slots survival product, does not manufacture
  // arrivals out of a flat low-busy night. Mixture-weighted over categories.
  const double baseline =
      mixture_busy_prob(categories, weights, node::slot_of_day(at));
  // The curve repeats daily, so a day's window already reaches every slot;
  // capping there also keeps a horizon near kTimeNever from overflowing.
  const SimTime end = at + std::min(horizon, kDay);
  double peak = baseline;
  SimTime cursor = (at / node::kSlotDuration + 1) * node::kSlotDuration;
  while (cursor < end) {
    peak = std::max(peak, mixture_busy_prob(categories, weights,
                                            node::slot_of_day(cursor)));
    cursor += node::kSlotDuration;
  }
  return 1.0 - std::clamp(peak - baseline, 0.0, 1.0);
}

SimDuration mixture_expected_idle(
    const std::vector<protocol::UsageCategory>& categories,
    const std::vector<double>& weights, SimTime at) {
  // E[idle] = Σ_k S_k · slot with the same rising-curve hazard:
  // S_k = 1 − clamp(max_{j ≤ k} c_j − c_now, 0, 1), monotone in k.
  const double baseline =
      mixture_busy_prob(categories, weights, node::slot_of_day(at));
  double peak = baseline;
  SimTime cursor = (at / node::kSlotDuration + 1) * node::kSlotDuration;
  // Idle runs that survive a whole day are rare enough (and irrelevant to
  // scheduling) that the expectation scan stops there.
  const SimTime cap = at + kDay;
  double expected_us = static_cast<double>(cursor - at);  // rest of this slot
  while (cursor < cap) {
    peak = std::max(peak, mixture_busy_prob(categories, weights,
                                            node::slot_of_day(cursor)));
    const double survival = 1.0 - std::clamp(peak - baseline, 0.0, 1.0);
    if (survival <= 1e-4) break;
    expected_us += survival * static_cast<double>(node::kSlotDuration);
    cursor += node::kSlotDuration;
  }
  return static_cast<SimDuration>(expected_us);
}

}  // namespace integrade::lupa
