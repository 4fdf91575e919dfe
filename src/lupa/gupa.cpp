#include "lupa/gupa.hpp"

#include <algorithm>

namespace integrade::lupa {

void Gupa::upload(const protocol::UsagePatternUpload& upload) {
  patterns_[upload.node] = upload;
}

void Gupa::forget(NodeId node) { patterns_.erase(node); }

const protocol::UsagePatternUpload* Gupa::pattern(NodeId node) const {
  auto it = patterns_.find(node);
  return it == patterns_.end() ? nullptr : &it->second;
}

std::vector<double> Gupa::dow_weights(
    const protocol::UsagePatternUpload& pattern, SimTime at) {
  // Category prior reweighted by P(today's weekday-ness | category), the
  // same calendar conditioning Lupa applies (minus partial-day evidence,
  // which never leaves the node).
  const bool weekday = node::day_of_week(at) < 5;
  std::vector<double> weights(pattern.categories.size(), 0.0);
  double total = 0.0;
  for (std::size_t c = 0; c < pattern.categories.size(); ++c) {
    const auto& cat = pattern.categories[c];
    const double dow_like = std::clamp(
        weekday ? cat.weekday_fraction : 1.0 - cat.weekday_fraction, 0.05,
        0.95);
    weights[c] = cat.weight * dow_like;
    total += weights[c];
  }
  if (total > 0.0) {
    for (double& w : weights) w /= total;
  }
  return weights;
}

double Gupa::busy_prob(const protocol::UsagePatternUpload& pattern,
                       const std::vector<double>& weights, int slot) {
  double p = 0.0;
  for (std::size_t c = 0; c < pattern.categories.size(); ++c) {
    const auto& centroid = pattern.categories[c].centroid;
    if (centroid.empty()) continue;
    p += weights[c] *
         centroid[static_cast<std::size_t>(slot) % centroid.size()];
  }
  return std::clamp(p, 0.0, 1.0);
}

protocol::ForecastReply Gupa::forecast(
    const protocol::ForecastRequest& request) const {
  protocol::ForecastReply reply;
  reply.node = request.node;
  auto it = patterns_.find(request.node);
  if (it == patterns_.end() || it->second.categories.empty()) {
    reply.known = false;
    return reply;
  }
  const auto& pattern = it->second;
  reply.known = true;
  const std::vector<double> weights = dow_weights(pattern, request.at);

  // Rising-curve hazard, mirroring Lupa::p_idle_through (see the comment
  // there): conditioned on idle-now, the owner arrives when the category
  // busy curve climbs above its current level.
  const double baseline = busy_prob(pattern, weights, node::slot_of_day(request.at));
  double peak = baseline;
  const SimTime end = request.at + request.horizon;
  SimTime cursor = (request.at / node::kSlotDuration + 1) * node::kSlotDuration;
  while (cursor < end) {
    peak = std::max(peak, busy_prob(pattern, weights, node::slot_of_day(cursor)));
    cursor += node::kSlotDuration;
  }
  reply.p_idle_through = 1.0 - std::clamp(peak - baseline, 0.0, 1.0);

  double expected_us = static_cast<double>(
      (request.at / node::kSlotDuration + 1) * node::kSlotDuration - request.at);
  SimTime scan = (request.at / node::kSlotDuration + 1) * node::kSlotDuration;
  const SimTime cap = request.at + kDay;
  double running_peak = baseline;
  while (scan < cap) {
    running_peak = std::max(running_peak, busy_prob(pattern, weights, node::slot_of_day(scan)));
    const double survival = 1.0 - std::clamp(running_peak - baseline, 0.0, 1.0);
    if (survival <= 1e-4) break;
    expected_us += survival * static_cast<double>(node::kSlotDuration);
    scan += node::kSlotDuration;
  }
  reply.expected_idle_remaining = static_cast<SimDuration>(expected_us);
  return reply;
}

}  // namespace integrade::lupa
