// LUPA — Local Usage Pattern Analyzer (paper §4).
//
// Runs on every shared workstation. Samples the owner's activity every five
// minutes, folds samples into per-day vectors of 48 half-hour busy
// fractions ("Node usage information for short time intervals is grouped in
// larger intervals called periods", §3), and periodically re-clusters the
// day history with k-means to extract behavioural categories. Categories —
// not raw samples — are uploaded to the cluster's GUPA.
//
// The model answers the question the GRM cares about: *given what I know of
// this node's habits and what today looks like so far, what is the chance
// it stays idle for the next H minutes?*
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "lupa/kmeans.hpp"
#include "node/machine.hpp"
#include "node/usage_profile.hpp"
#include "protocol/messages.hpp"
#include "sim/engine.hpp"

namespace integrade::lupa {

struct LupaOptions {
  /// Re-cluster cadence, in completed days.
  int recluster_every_days = 1;
  /// Sliding window of retained day vectors (8 weeks by default).
  std::size_t max_history_days = 56;
};

// The idleness forecast over a category mixture, shared by the node-local
// LUPA and the cluster's GUPA. Only the category weights differ: the LUPA's
// posterior also conditions on today's partial day, which never leaves the
// node.

/// P(owner stays away from `at` through `at + horizon`), conditioned on the
/// node being idle at `at` (the rising-curve hazard; see lupa.cpp).
[[nodiscard]] double mixture_p_idle_through(
    const std::vector<protocol::UsageCategory>& categories,
    const std::vector<double>& weights, SimTime at, SimDuration horizon);

/// Expected remaining idle time from `at` under the same hazard, scanned at
/// most one day ahead.
[[nodiscard]] SimDuration mixture_expected_idle(
    const std::vector<protocol::UsageCategory>& categories,
    const std::vector<double>& weights, SimTime at);

/// A finished day of observation.
struct DayRecord {
  Vector busy_fraction;  // 48 slots
  bool weekday = true;
};

class Lupa {
 public:
  Lupa(sim::Engine& engine, const node::Machine& machine, Rng rng,
       LupaOptions options = {});

  void start();
  void stop();

  /// Fires after every re-clustering; the LRM hooks this to upload the new
  /// model to the GUPA.
  void set_on_model_update(std::function<void()> callback) {
    on_model_update_ = std::move(callback);
  }

  [[nodiscard]] bool has_model() const { return !categories_.empty(); }
  [[nodiscard]] const std::vector<protocol::UsageCategory>& categories() const {
    return categories_;
  }
  [[nodiscard]] int days_observed() const {
    return static_cast<int>(history_.size());
  }
  [[nodiscard]] const std::vector<DayRecord>& history() const { return history_; }

  /// Build the wire upload for the GUPA.
  [[nodiscard]] protocol::UsagePatternUpload build_upload() const;

  /// P(owner stays away from `at` through `at + horizon`), conditioning on
  /// the node being idle now and on today's partial observation. Returns
  /// a pessimistic 0 when no model exists yet.
  [[nodiscard]] double p_idle_through(SimTime at, SimDuration horizon) const;

  /// Expected remaining idle time starting at `at` (scanned at most one day
  /// ahead).
  [[nodiscard]] SimDuration expected_idle_remaining(SimTime at) const;

  /// Posterior category weights given today's partial observation; priors
  /// when the day has barely started. Exposed for tests and benches.
  [[nodiscard]] std::vector<double> category_posterior(SimTime at) const;

  /// Force ingestion of a pre-recorded day (offline training in benches).
  void ingest_day(DayRecord day);
  /// Re-cluster immediately from current history.
  void recluster();

 private:
  void sample();
  void finalize_day(bool weekday);

  sim::Engine& engine_;
  const node::Machine& machine_;
  Rng rng_;
  LupaOptions options_;
  sim::PeriodicTimer timer_;
  std::function<void()> on_model_update_;

  // Current-day accumulation.
  std::vector<int> slot_samples_;
  std::vector<int> slot_busy_;
  int current_day_index_ = 0;
  int days_since_recluster_ = 0;

  std::vector<DayRecord> history_;
  std::vector<protocol::UsageCategory> categories_;
};

}  // namespace integrade::lupa
