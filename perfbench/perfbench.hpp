// Shared types of the repository benchmark (one repetition per process).
//
// A workload builds a grid from its seed (set-up), then runs a fixed
// measured phase through a Runner. The Runner advances the simulation with
// exactly the primitives core::Grid uses; in traced mode it fires one event
// per Engine::step() and records the host time of each step, which is the
// only difference between a traced and an untraced repetition. Everything
// the probes measure afterwards runs after the output digest is taken.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/grid.hpp"

namespace perfbench {

namespace ig = integrade;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-spaced histogram of host nanoseconds (buckets 2% wide), for per-event
/// step times: millions of samples in a fixed 8 KiB.
class NsHistogram {
 public:
  void observe(std::int64_t ns);
  [[nodiscard]] std::int64_t count() const { return count_; }
  /// Lower edge of the bucket holding quantile q (0 when empty).
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 1024;
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
};

class Runner {
 public:
  Runner(ig::core::Grid& grid, bool traced) : grid_(grid), traced_(traced) {}

  /// Same semantics as Grid::run_until / run_for / run_until_app_done.
  void run_until(ig::SimTime t);
  void run_for(ig::SimDuration d);
  bool run_until_app_done(ig::core::Cluster& cluster, ig::AppId app,
                          ig::SimTime deadline);

  [[nodiscard]] const NsHistogram& step_ns() const { return step_ns_; }
  [[nodiscard]] std::size_t queue_depth_max() const { return depth_max_; }
  [[nodiscard]] double queue_depth_mean() const {
    return depth_samples_ > 0 ? depth_sum_ / static_cast<double>(depth_samples_)
                              : 0.0;
  }

 private:
  /// One traced Engine::step(); false when nothing was due.
  bool traced_step(ig::SimTime deadline);

  ig::core::Grid& grid_;
  bool traced_;
  NsHistogram step_ns_;
  std::size_t depth_max_ = 0;
  double depth_sum_ = 0.0;
  std::int64_t depth_samples_ = 0;
};

struct Submission {
  ig::AppId app;
  ig::SimTime at = 0;
  bool bsp = false;
  ig::SimDuration deadline = 0;  // bid deadline relative to `at`; 0 = none
};

/// A built grid plus what the workload submitted into it.
struct WorkloadRun {
  std::uint64_t seed = 0;
  std::unique_ptr<ig::core::Grid> grid;
  ig::core::Cluster* cluster = nullptr;
  std::vector<Submission> apps;
  ig::SimTime phase_start = 0;  // sim time the measured phase began
  ig::SimTime phase_end = 0;
  std::int64_t net_bytes_before = 0;  // network traffic at phase start
  std::int64_t net_messages_before = 0;
  /// Every hub registry at phase start: layer counts are phase deltas.
  std::map<std::string, ig::MetricRegistry> hub_before;
  /// Checkpoint image size of the workload (probes render chunk inputs from
  /// the same image model); workloads without checkpoints use this default.
  ig::Bytes image_bytes = 4 * ig::kMiB;
  /// Scheduling-economy options the workload ran with (sched probe).
  ig::sched::SchedOptions sched;
};

struct Workload {
  const char* name;
  /// Config generation, grid construction and warm-up.
  WorkloadRun (*setup)(std::uint64_t seed);
  /// The measured phase.
  void (*measure)(WorkloadRun& run, Runner& runner);
};

const std::vector<Workload>& workloads();

/// One named measurement, printed with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Layer probes: time each layer's public calls on inputs taken from the
/// finished run (see README.md, "Traced run") and read the layer counts.
void run_probes(WorkloadRun& run, const Runner& runner, double traced_wall_s,
                std::vector<Metric>& out);

}  // namespace perfbench
