// GUPA — Global Usage Pattern Analyzer (paper §4).
//
// Cluster-level aggregation point for per-node usage patterns. LUPA
// instances upload their behavioural categories here; the GRM asks for
// idleness forecasts when ranking candidate nodes. The GUPA only ever sees
// category centroids — never raw samples — so a node's minute-by-minute
// history stays on the node.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "node/usage_profile.hpp"
#include "protocol/messages.hpp"

namespace integrade::lupa {

class Gupa {
 public:
  void upload(const protocol::UsagePatternUpload& upload);
  void forget(NodeId node);

  [[nodiscard]] bool has(NodeId node) const { return patterns_.contains(node); }
  [[nodiscard]] std::size_t node_count() const { return patterns_.size(); }
  [[nodiscard]] const protocol::UsagePatternUpload* pattern(NodeId node) const;

  /// Forecast from priors alone (the GUPA lacks today's partial-day
  /// evidence; that conditioning lives in the node-local LUPA — the
  /// accuracy gap is measured by bench_lupa's centroid-only ablation).
  [[nodiscard]] protocol::ForecastReply forecast(
      const protocol::ForecastRequest& request) const;

 private:
  [[nodiscard]] static std::vector<double> dow_weights(
      const protocol::UsagePatternUpload& pattern, SimTime at);

  std::unordered_map<NodeId, protocol::UsagePatternUpload> patterns_;
};

}  // namespace integrade::lupa
