// BOINC-like master-worker harvester (baseline for E5/E11).
//
// Models the SETI@home/BOINC architecture as the paper contrasts it (§2):
//   * a central master holds a queue of independent work units;
//   * workers PULL: each volunteer machine periodically asks for work when
//     its owner policy says it is idle (client-initiated, the opposite of
//     InteGrade's push scheduling);
//   * no inter-node communication — "lack of support for parallel
//     applications that demand communication between computing nodes":
//     BSP submissions are refused;
//   * an evicted unit goes back in the queue and restarts from zero
//     (real BOINC clients checkpoint locally; the local state is lost when
//     the unit moves to a different machine, which is the common case in a
//     lab setting — we model the move).
#pragma once

#include <deque>
#include <map>

#include "common/stats.hpp"
#include "lrm/lrm.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "sim/engine.hpp"

namespace integrade::baselines {

struct BoincOptions {
  /// Worker poll period (BOINC clients poll on the order of minutes).
  SimDuration poll_period = 60 * kSecond;
};

class BoincMaster {
 public:
  BoincMaster(sim::Engine& engine, orb::Orb& orb);
  ~BoincMaster();
  BoincMaster(const BoincMaster&) = delete;
  BoincMaster& operator=(const BoincMaster&) = delete;

  void start();
  void stop();

  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

  /// Enqueue an application's tasks as work units. Returns false for BSP
  /// apps (unsupported by this architecture — the point of E11).
  bool enqueue(const protocol::ApplicationSpec& spec);

  [[nodiscard]] bool app_done(AppId app) const;
  [[nodiscard]] int units_completed() const { return completed_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  // ---- protocol entry points ----
  protocol::WorkReply handle_request_work();
  void handle_report(const protocol::TaskReport& report);

 private:
  sim::Engine& engine_;
  orb::Orb& orb_;
  orb::ObjectRef self_ref_;
  std::deque<protocol::TaskDescriptor> queue_;
  std::map<TaskId, protocol::TaskDescriptor> in_flight_;
  std::map<AppId, int> outstanding_;
  int completed_ = 0;
  bool started_ = false;
  MetricRegistry metrics_;
};

/// The per-node volunteer client: polls the master for work whenever its
/// node is idle per the owner's policy and runs at most one unit at a time
/// through the node's LRM in direct-execute mode.
class BoincWorker {
 public:
  BoincWorker(sim::Engine& engine, orb::Orb& orb, lrm::Lrm& lrm,
              BoincOptions options = {});

  void start(const orb::ObjectRef& master);
  void stop();

 private:
  void poll();

  sim::Engine& engine_;
  orb::Orb& orb_;
  lrm::Lrm& lrm_;
  BoincOptions options_;
  orb::ObjectRef master_;
  sim::PeriodicTimer timer_;
  bool fetching_ = false;
};

}  // namespace integrade::baselines
