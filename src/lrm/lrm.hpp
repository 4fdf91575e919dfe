// LRM — Local Resource Manager (paper §4).
//
// Runs on every cluster node. Four jobs:
//
//  1. Information Update Protocol: collect node status (CPU/RAM/disk/net,
//     owner activity, NCC verdict), push its dynamic half (NodeLoad) to the
//     GRM periodically, and answer the GRM's get_status pull with the full
//     NodeStatus when the GRM does not know this node.
//  2. Resource Reservation & Execution Protocol, provider side: grant or
//     refuse reservations against *current* truth (the GRM's view is only a
//     hint), hold them briefly, then accept Execute requests.
//  3. User-level scheduling: grid tasks run strictly in the owner's
//     leftover CPU under the NCC cap; when the owner returns, grid work is
//     throttled (partial-share mode) or evicted (strict mode) immediately.
//     The owner never waits for the grid.
//  4. LUPA hosting: the usage-pattern analyzer samples the machine and its
//     models are uploaded to the GUPA after every re-clustering.
//
// Task execution is simulated by integrating work at `share × MIPS` between
// reallocation points (owner load changes, task arrivals/departures), which
// is exact for piecewise-constant rates.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ckpt/repository.hpp"
#include "lupa/lupa.hpp"
#include "ncc/ncc.hpp"
#include "security/sandbox.hpp"
#include "node/machine.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace integrade::ckpt {
class CkptAgent;
}

namespace integrade::lrm {

struct LrmOptions {
  /// Information Update Protocol period (paper: "LRMs send this information
  /// periodically to the GRM").
  SimDuration update_period = 30 * kSecond;
  /// Also push an immediate update when the NCC verdict flips — keeps the
  /// GRM's hint fresh at the moments that matter most.
  bool push_on_state_change = true;
  bool run_lupa = true;
  /// Owner's task-admission sandbox (paper §3 security requirement);
  /// tasks exceeding its limits are refused at Execute time.
  security::Sandbox sandbox;
};

class Lrm {
 public:
  Lrm(sim::Engine& engine, orb::Orb& orb, node::Machine& machine, ncc::Ncc ncc,
      Rng rng, LrmOptions options = {});
  ~Lrm();
  Lrm(const Lrm&) = delete;
  Lrm& operator=(const Lrm&) = delete;

  /// Activate the servant and begin protocols. `network` (optional) is used
  /// for bulk data movement (input staging, checkpoint shipping);
  /// `checkpoint_service` receives sequential-task checkpoints.
  void start(const orb::ObjectRef& grm, const orb::ObjectRef& gupa,
             const orb::ObjectRef& checkpoint_service = {},
             sim::Network* network = nullptr);
  void stop();

  /// Sudden death: all volatile state (running tasks, reservations, timers)
  /// is lost and nothing is reported on the way out — the manager only
  /// learns via its stale sweep or the kNodeFailed reports sent after
  /// restart(). Idempotent while crashed.
  void crash();
  /// Come back after crash(): re-activate under the same object key (held
  /// refs stay valid), report orphaned tasks as kNodeFailed so checkpoint
  /// resume replaces them, and re-announce to the GRM.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// How long an outgoing TaskReport stays in the failover journal.
  static constexpr SimDuration kReportJournalWindow = 5 * kMinute;

  /// Warm-standby Cluster Manager. With one set, status updates are two-way
  /// calls that double as a liveness probe: after three consecutive misses
  /// the LRM fails over to the standby, declares its running tasks there
  /// (TaskResync) and replays its journal of the last kReportJournalWindow
  /// of reports, so terminal outcomes the dead primary swallowed are
  /// re-delivered; the GRM's duplicate/stale report guards make the replay
  /// idempotent. Without one, updates are oneway and nothing is journaled.
  void set_standby_grm(const orb::ObjectRef& standby) { standby_grm_ = standby; }

  /// Attach this node's checkpoint data-plane agent. Sequential checkpoints
  /// then ship as deduped, compressed chunks instead of a whole-image
  /// network bill; crash()/restart() take the agent down and up with the
  /// node (its chunk store, modeling disk, survives the outage).
  void set_ckpt_agent(ckpt::CkptAgent* agent) { ckpt_agent_ = agent; }
  [[nodiscard]] const orb::ObjectRef& grm() const { return grm_; }

  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }
  [[nodiscard]] NodeId node_id() const { return machine_.id(); }
  [[nodiscard]] node::Machine& machine() { return machine_; }
  [[nodiscard]] ncc::Ncc& ncc() { return ncc_; }
  [[nodiscard]] lupa::Lupa* lupa() { return lupa_.get(); }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

  /// Current node status (what get_status returns; push_update sends its
  /// NodeLoad), refreshed on every call. Returns a reference to an
  /// internal scratch record: the static identity fields (hostname, OS,
  /// platform list) are filled once and only the dynamic load fields are
  /// rewritten per call, so a refresh allocates nothing. Copy the result to
  /// keep it past the next call.
  [[nodiscard]] const protocol::NodeStatus& current_status() const;
  [[nodiscard]] int running_task_count() const {
    return static_cast<int>(tasks_.size());
  }
  /// Total grid work completed on this node (MInstr), including work by
  /// tasks later evicted.
  [[nodiscard]] MInstr total_work_done() const { return total_work_done_; }

  /// Idle-harvest duty cycle: fraction of this node's lifetime (since
  /// start()) during which at least one grid task was resident. The paper's
  /// idle-harvesting claim in one number; exported via the metrics hub.
  [[nodiscard]] double harvest_duty_cycle() const;

  // --- protocol entry points (called by the servant; public for tests) ---
  protocol::ReservationReply handle_reserve(const protocol::ReservationRequest& req);
  protocol::ExecuteReply handle_execute(const protocol::ExecuteRequest& req);
  void handle_cancel(TaskId task);
  /// Vacate a task by checkpoint migration (scheduling economy): settle,
  /// save a final checkpoint replicated to `req.peers`, report kEvicted
  /// ("preempted") so the GRM requeues it with its progress intact.
  void handle_preempt(const protocol::PreemptRequest& req);
  void handle_bsp_compute(const protocol::BspComputeRequest& req);

  /// Send a NodeLoad update now (the periodic timer, NCC verdict flips,
  /// restart() and failover; public for tests).
  void push_update();

 private:
  struct RunningTask {
    protocol::TaskDescriptor desc;
    orb::ObjectRef report_to;
    double requested_cpu = 1.0;
    double share = 0.0;  // current fraction of the machine's CPU
    MInstr done = 0;
    SimTime last_settle = 0;
    sim::EventHandle completion;
    // BSP chunk state: a resident BSP task computes only when a chunk is
    // active; between chunks it holds resources but accrues no work.
    bool bsp_resident = false;
    bool chunk_active = false;
    std::int64_t chunk_superstep = -1;
    MInstr chunk_work = 0;
    MInstr chunk_done = 0;
    orb::ObjectRef chunk_notify;
    // Sequential checkpointing.
    sim::PeriodicTimer checkpoint_timer;
    std::int64_t checkpoint_version = 0;
    /// "lrm.run" span: opened at Execute admission, closed when the task
    /// completes, is evicted, or is cancelled. Lost on crash() — a crashed
    /// process cannot flush its spans. Inactive when tracing is off.
    obs::Tracer::ActiveSpan run_span;
  };

  struct HeldReservation {
    protocol::ReservationRequest request;
    sim::EventHandle expiry;
  };

  /// A task that died in a crash; its failure report is deferred to the
  /// restart (a crashed process cannot say goodbye).
  struct Orphan {
    TaskId task;
    orb::ObjectRef report_to;
  };

  void on_machine_change();
  void settle_all();
  void settle(RunningTask& task);
  void reallocate();
  void schedule_completion(RunningTask& task);
  void finish_task(TaskId id);
  void finish_chunk(RunningTask& task);
  void evict_all(protocol::TaskOutcome outcome, const std::string& detail);
  void report(const RunningTask& task, protocol::TaskOutcome outcome,
              const std::string& detail);
  /// Remember an outgoing report for failover replay (no-op without a
  /// standby) and drop entries older than the window.
  void journal_report(const protocol::TaskReport& report);
  void prune_journal();
  /// Post-adoption resync: declare running tasks to the new GRM, rewrite
  /// their report routing away from `old_grm`, and replay the journal.
  void resync_with_grm(const orb::ObjectRef& old_grm);
  void checkpoint_task(RunningTask& task,
                       const std::vector<orb::ObjectRef>& ckpt_peers = {});
  void update_quiet_tracking();
  /// Fold the elapsed interval into the duty-cycle accumulators; call at
  /// every point where tasks_ flips between empty and non-empty.
  void mark_duty();
  [[nodiscard]] double grid_cpu_in_use() const;
  [[nodiscard]] double reserved_cpu() const;
  [[nodiscard]] Bytes ram_committed() const;
  [[nodiscard]] MInstr effective_work(const RunningTask& task) const;
  [[nodiscard]] bool task_computing(const RunningTask& task) const;

  sim::Engine& engine_;
  orb::Orb& orb_;
  node::Machine& machine_;
  ncc::Ncc ncc_;
  Rng rng_;
  LrmOptions options_;

  orb::ObjectRef self_ref_;
  orb::ObjectRef grm_;
  orb::ObjectRef standby_grm_;
  orb::ObjectRef gupa_;
  orb::ObjectRef checkpoint_service_;
  ckpt::CkptAgent* ckpt_agent_ = nullptr;  // null = legacy whole-image path
  sim::Network* network_ = nullptr;

  std::unique_ptr<lupa::Lupa> lupa_;
  sim::PeriodicTimer update_timer_;

  std::map<TaskId, std::unique_ptr<RunningTask>> tasks_;
  std::map<ReservationId, HeldReservation> reservations_;

  std::optional<SimTime> owner_quiet_since_;
  bool last_owner_present_ = false;
  bool last_shareable_ = false;
  bool started_ = false;
  bool crashed_ = false;
  int grm_misses_ = 0;  // consecutive unanswered two-way updates
  std::vector<Orphan> orphans_;

  /// Recent outgoing TaskReports (with a standby only), oldest first;
  /// replayed to a newly adopted GRM so terminal outcomes lost with the old
  /// primary are re-delivered.
  struct JournalEntry {
    SimTime at = 0;
    protocol::TaskReport report;
  };
  std::deque<JournalEntry> report_journal_;

  MInstr total_work_done_ = 0;

  // Idle-harvest duty-cycle accounting (see harvest_duty_cycle()).
  SimTime duty_mark_ = 0;
  bool duty_busy_ = false;
  SimDuration duty_busy_time_ = 0;
  SimDuration duty_idle_time_ = 0;

  /// Scratch record returned by current_status(); static fields are filled
  /// on first use, dynamic fields on every call.
  mutable protocol::NodeStatus status_scratch_;
  mutable bool status_scratch_primed_ = false;
  /// The load push_update() sends, refilled in place every period.
  protocol::NodeLoad load_scratch_;

  MetricRegistry metrics_;
  CounterRef status_updates_sent_{metrics_, "status_updates_sent"};
};

}  // namespace integrade::lrm
