// Condor-like matchmaking scheduler (baseline for E3/E5/E11).
//
// Models the scheduling style of Condor [LLM88] as the paper contrasts it:
//   * matchmaking over periodically advertised machine ClassAds — here the
//     same NodeStatus stream the GRM consumes, matched with the same
//     constraint language (ClassAds and the Trader constraint language are
//     close cousins);
//   * the scheduler TRUSTS its (possibly stale) view: no reservation
//     negotiation — it claims the machine by sending Execute directly and
//     discovers staleness only through the rejection;
//   * no usage-pattern forecasting;
//   * evicted jobs restart from scratch unless the app opted into
//     checkpointing by "re-linking" (checkpoint_period set), which Condor
//     supports for sequential jobs only.
//
// What it deliberately lacks versus the InteGrade GRM is exactly what E3/E5
// measure: negotiation that corrects stale hints, and LUPA forecasts that
// avoid soon-to-be-busy nodes.
#pragma once

#include <deque>
#include <map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "services/constraint.hpp"
#include "sim/engine.hpp"

namespace integrade::baselines {

class CondorScheduler {
 public:
  CondorScheduler(sim::Engine& engine, orb::Orb& orb, Rng rng);
  ~CondorScheduler();
  CondorScheduler(const CondorScheduler&) = delete;
  CondorScheduler& operator=(const CondorScheduler&) = delete;

  void start();
  void stop();

  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

  // ---- protocol entry points ----
  void handle_update_status(const protocol::NodeStatus& status);
  protocol::SubmitReply handle_submit(const protocol::ApplicationSpec& spec);
  void handle_report(const protocol::TaskReport& report);

  [[nodiscard]] int completed_tasks() const { return completed_tasks_; }
  [[nodiscard]] bool app_done(AppId app) const;

 private:
  struct Job {
    protocol::TaskDescriptor desc;
    AppId app;
    bool running = false;
    bool done = false;
    int restarts = 0;
    SimTime eligible_at = 0;
  };

  struct Ad {
    protocol::NodeStatus status;
    SimTime last_update = 0;
    bool claimed = false;  // scheduler-side view of "I put a job there"
  };

  void kick(SimDuration delay = 0);
  void pass();
  void try_run(Job& job, int tries_left);

  sim::Engine& engine_;
  orb::Orb& orb_;
  Rng rng_;

  orb::ObjectRef self_ref_;
  std::map<NodeId, Ad> ads_;
  std::map<TaskId, Job> jobs_;
  std::map<AppId, int> app_outstanding_;
  std::map<AppId, orb::ObjectRef> app_notify_;
  std::deque<TaskId> queue_;
  bool pass_scheduled_ = false;
  bool started_ = false;
  int completed_tasks_ = 0;

  MetricRegistry metrics_;
};

}  // namespace integrade::baselines
