#include "lupa/gupa.hpp"

#include <algorithm>

#include "lupa/lupa.hpp"

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

protocol::ForecastReply Gupa::forecast(
    const protocol::ForecastRequest& request) const {
  protocol::ForecastReply reply;
  reply.node = request.node;
  auto it = patterns_.find(request.node);
  if (it == patterns_.end() || it->second.categories.empty()) {
    reply.known = false;
    return reply;
  }
  const auto& categories = it->second.categories;
  reply.known = true;
  const std::vector<double> weights = dow_weights(it->second, request.at);
  reply.p_idle_through =
      mixture_p_idle_through(categories, weights, request.at, request.horizon);
  reply.expected_idle_remaining =
      mixture_expected_idle(categories, weights, request.at);
  return reply;
}

}  // namespace integrade::lupa
