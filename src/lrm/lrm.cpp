#include "lrm/lrm.hpp"

#include <algorithm>
#include <cassert>

#include "ckpt/agent.hpp"
#include "common/log.hpp"
#include "protocol/properties.hpp"
#include "protocol/trace_names.hpp"
#include "services/constraint.hpp"

namespace integrade::lrm {

using protocol::TaskOutcome;

namespace {

/// IDL operation names of the LRM interface.
constexpr const char* kOpReserve = "reserve";
constexpr const char* kOpExecute = "execute";
constexpr const char* kOpCancel = "cancel";
constexpr const char* kOpPreempt = "preempt";
constexpr const char* kOpBspCompute = "bsp_compute";
constexpr const char* kOpGetStatus = "get_status";

class LrmServant final : public orb::SkeletonBase {
 public:
  explicit LrmServant(Lrm& lrm) {
    register_op<protocol::ReservationRequest, protocol::ReservationReply>(
        kOpReserve, [&lrm](const protocol::ReservationRequest& req)
                        -> Result<protocol::ReservationReply> {
          return lrm.handle_reserve(req);
        });
    register_op<protocol::ExecuteRequest, protocol::ExecuteReply>(
        kOpExecute, [&lrm](const protocol::ExecuteRequest& req)
                        -> Result<protocol::ExecuteReply> {
          return lrm.handle_execute(req);
        });
    register_op<protocol::CancelTask, cdr::Empty>(
        kOpCancel,
        [&lrm](const protocol::CancelTask& req) -> Result<cdr::Empty> {
          lrm.handle_cancel(req.task);
          return cdr::Empty{};
        });
    register_op<protocol::PreemptRequest, cdr::Empty>(
        kOpPreempt,
        [&lrm](const protocol::PreemptRequest& req) -> Result<cdr::Empty> {
          lrm.handle_preempt(req);
          return cdr::Empty{};
        });
    register_op<protocol::BspComputeRequest, cdr::Empty>(
        kOpBspCompute,
        [&lrm](const protocol::BspComputeRequest& req) -> Result<cdr::Empty> {
          lrm.handle_bsp_compute(req);
          return cdr::Empty{};
        });
    register_op<cdr::Empty, protocol::NodeStatus>(
        kOpGetStatus,
        [&lrm](const cdr::Empty&) -> Result<protocol::NodeStatus> {
          return lrm.current_status();
        });
  }

  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/Lrm:1.0";
  }
};

}  // namespace

Lrm::Lrm(sim::Engine& engine, orb::Orb& orb, node::Machine& machine,
         ncc::Ncc ncc, Rng rng, LrmOptions options)
    : engine_(engine),
      orb_(orb),
      machine_(machine),
      ncc_(std::move(ncc)),
      rng_(rng),
      options_(options) {}

Lrm::~Lrm() { stop(); }

void Lrm::start(const orb::ObjectRef& grm, const orb::ObjectRef& gupa,
                const orb::ObjectRef& checkpoint_service, sim::Network* network) {
  assert(!started_);
  started_ = true;
  grm_ = grm;
  gupa_ = gupa;
  checkpoint_service_ = checkpoint_service;
  network_ = network;

  self_ref_ = orb_.activate(std::make_shared<LrmServant>(*this));
  duty_mark_ = engine_.now();
  duty_busy_ = false;

  // Initialize owner tracking from the machine's *actual* state: a machine
  // whose owner is mid-session at LRM boot must not be advertised as quiet.
  // If the owner is already away, the grace clock starts now.
  update_quiet_tracking();
  last_owner_present_ = machine_.owner_load().present;
  machine_.subscribe([this] { on_machine_change(); });

  if (options_.run_lupa) {
    lupa_ = std::make_unique<lupa::Lupa>(engine_, machine_, rng_.fork());
    lupa_->set_on_model_update([this] {
      if (gupa_.valid()) {
        orb::oneway(orb_, gupa_, "upload_pattern", lupa_->build_upload());
      }
    });
    lupa_->start();
  }

  // Information Update Protocol: stagger the first update uniformly within
  // one period so a 100-node cluster does not stampede the GRM in lockstep.
  const SimDuration stagger = static_cast<SimDuration>(
      rng_.uniform(0.0, static_cast<double>(options_.update_period)));
  update_timer_.start(engine_, options_.update_period, [this] { push_update(); },
                      stagger);
}

void Lrm::stop() {
  if (!started_) return;
  started_ = false;
  update_timer_.stop();
  if (lupa_) lupa_->stop();
  evict_all(TaskOutcome::kNodeFailed, "LRM stopped");
  orb_.deactivate(self_ref_.key);
  crashed_ = false;
  orphans_.clear();
}

void Lrm::crash() {
  if (!started_ || crashed_) return;
  crashed_ = true;
  metrics_.counter("crashes").add();
  update_timer_.stop();
  if (lupa_) lupa_->stop();

  // Everything volatile dies with the process. Unlike stop(), nothing is
  // reported on the way out — a crashed node cannot say goodbye; the
  // orphaned tasks' failure reports wait for restart().
  for (auto& [_, held] : reservations_) held.expiry.cancel();
  reservations_.clear();
  auto victims = std::move(tasks_);
  tasks_.clear();
  mark_duty();
  // Running tasks' "lrm.run" spans die unflushed with the process — a
  // crashed node cannot say goodbye in the trace either.
  for (auto& [id, task] : victims) {
    task->completion.cancel();
    task->checkpoint_timer.stop();
    orphans_.push_back(Orphan{id, task->report_to});
  }
  if (ckpt_agent_ != nullptr) ckpt_agent_->stop();
  orb_.deactivate(self_ref_.key);
}

void Lrm::restart() {
  if (!started_ || !crashed_) return;
  crashed_ = false;
  metrics_.counter("restarts").add();

  // Same object key: the LRM references held by the GRM's offers and any
  // BSP coordinator survive the outage.
  self_ref_ = orb_.activate(std::make_shared<LrmServant>(*this), self_ref_.key);
  if (ckpt_agent_ != nullptr) ckpt_agent_->start();  // same key too

  update_quiet_tracking();
  last_owner_present_ = machine_.owner_load().present;
  if (lupa_) lupa_->start();

  // Deferred failure reports: the manager requeues these tasks, restoring
  // from their last checkpoint where one exists.
  for (const Orphan& orphan : orphans_) {
    if (!orphan.report_to.valid()) continue;
    protocol::TaskReport report;
    report.task = orphan.task;
    report.node = machine_.id();
    report.outcome = TaskOutcome::kNodeFailed;
    report.detail = "node crashed and restarted";
    journal_report(report);
    orb::reliable_oneway(orb_, orphan.report_to, "report", report);
  }
  orphans_.clear();

  // Re-announce immediately (the information update protocol makes GRM
  // state soft — re-registration IS recovery: a GRM that swept this node
  // pulls its NodeStatus again), then resume the periodic heartbeat with a
  // fresh stagger so mass restarts don't re-synchronise.
  push_update();
  const SimDuration stagger = static_cast<SimDuration>(
      rng_.uniform(0.0, static_cast<double>(options_.update_period)));
  update_timer_.start(engine_, options_.update_period, [this] { push_update(); },
                      stagger);
}

// ---------------------------------------------------------------------------
// Status & information updates
// ---------------------------------------------------------------------------

const protocol::NodeStatus& Lrm::current_status() const {
  const SimTime now = engine_.now();

  protocol::NodeStatus& status = status_scratch_;
  if (!status_scratch_primed_) {
    // Identity fields never change after start; fill them once so the
    // per-heartbeat refresh below stays allocation-free.
    const auto& spec = machine_.spec();
    status.node = machine_.id();
    status.hostname = spec.hostname;
    status.cpu_mips = spec.cpu_mips;
    status.ram_total = spec.ram;
    status.disk_total = spec.disk;
    status.os = spec.os;
    status.arch = spec.arch;
    status.platforms = spec.platforms;
    status_scratch_primed_ = true;
  }
  status.segment = network_ != nullptr && network_->attached(orb_.address())
                       ? network_->segment_of(orb_.address())
                       : 0;
  status.lrm = self_ref_;
  status.dedicated = !options_.run_lupa && !ncc_.policy().require_owner_away;

  status.owner_cpu = machine_.owner_load().cpu_fraction;
  status.owner_present = machine_.owner_load().present;
  status.grid_cpu = grid_cpu_in_use();

  const double exportable =
      ncc_.exportable_cpu(machine_, now, owner_quiet_since_);
  const double committed = reserved_cpu();
  status.exportable_cpu = std::max(0.0, exportable - committed);
  status.free_ram = std::max<Bytes>(0, ncc_.exportable_ram(machine_) - ram_committed());
  status.shareable = ncc_.shareable(machine_, now, owner_quiet_since_) &&
                     status.exportable_cpu >= protocol::kMinUsefulCpu;
  status.running_tasks = static_cast<std::int32_t>(tasks_.size());
  status.timestamp = now;
  return status;
}

void Lrm::push_update() {
  if (!grm_.valid() || crashed_) return;
  status_updates_sent_.add();
  // Only the dynamic record travels each period; the GRM pulls the full
  // NodeStatus (get_status) once, when a load names a node it does not know.
  protocol::NodeLoad& load = load_scratch_;
  protocol::fill_load(current_status(), load);
  if (!standby_grm_.valid()) {
    orb::oneway(orb_, grm_, "update_status", load);
    return;
  }
  // With a standby, a two-way update doubles as a liveness probe of the
  // Cluster Manager. After kGrmFailureThreshold consecutive misses the
  // primary is presumed dead and the standby takes its place; the old
  // primary becomes the standby, so a later flip-back works the same way.
  constexpr int kGrmFailureThreshold = 3;
  orb::call<protocol::NodeLoad, cdr::Empty>(
      orb_, grm_, "update_status", load,
      [this](Result<cdr::Empty> reply) {
        if (crashed_) return;
        if (reply.is_ok()) {
          grm_misses_ = 0;
          return;
        }
        if (++grm_misses_ < kGrmFailureThreshold) return;
        grm_misses_ = 0;
        const orb::ObjectRef old_grm = grm_;
        std::swap(grm_, standby_grm_);
        metrics_.counter("grm_failovers").add();
        resync_with_grm(old_grm);
        // Re-announce at once: a standby without a snapshot of this node
        // answers the load by pulling its NodeStatus and registering it
        // (soft-state recovery).
        push_update();
      });
}

void Lrm::resync_with_grm(const orb::ObjectRef& old_grm) {
  // Declare the tasks still running here so a snapshot-restored GRM marks
  // them running instead of re-placing them, and route their completion
  // reports to the live manager.
  protocol::TaskResync resync;
  resync.node = machine_.id();
  resync.lrm = self_ref_;
  for (auto& [id, task] : tasks_) {
    if (task->report_to == old_grm) task->report_to = grm_;
    resync.running.push_back(id);
  }
  metrics_.counter("task_resyncs_sent").add();
  orb::reliable_oneway(orb_, grm_, "task_resync", resync);

  // Replay recent terminal outcomes the dead primary may have swallowed.
  // The GRM's duplicate-completion and stale-report guards (plus the ORB's
  // at-most-once window for duplicated frames) make this idempotent.
  prune_journal();
  if (report_journal_.empty()) return;
  metrics_.counter("journal_reports_replayed")
      .add(static_cast<std::int64_t>(report_journal_.size()));
  for (const JournalEntry& entry : report_journal_) {
    orb::reliable_oneway(orb_, grm_, "report", entry.report);
  }
}

void Lrm::journal_report(const protocol::TaskReport& report) {
  if (!standby_grm_.valid()) return;
  report_journal_.push_back(JournalEntry{engine_.now(), report});
  prune_journal();
}

void Lrm::prune_journal() {
  const SimTime cutoff = engine_.now() - kReportJournalWindow;
  while (!report_journal_.empty() && report_journal_.front().at < cutoff) {
    report_journal_.pop_front();
  }
}

void Lrm::update_quiet_tracking() {
  const auto& owner = machine_.owner_load();
  const bool active =
      owner.present || owner.cpu_fraction > ncc_.policy().idle_cpu_threshold;
  if (active) {
    owner_quiet_since_.reset();
  } else if (!owner_quiet_since_.has_value()) {
    owner_quiet_since_ = engine_.now();
  }
}

void Lrm::on_machine_change() {
  if (crashed_) return;  // a dead process observes nothing
  update_quiet_tracking();

  if (!tasks_.empty() && ncc_.must_evict(machine_, engine_.now())) {
    metrics_.counter("owner_reclaims").add();
    evict_all(machine_.up() ? TaskOutcome::kEvicted : TaskOutcome::kNodeFailed,
              machine_.up() ? "owner reclaimed the machine" : "machine down");
  } else {
    reallocate();
  }

  if (options_.push_on_state_change) {
    const bool shareable =
        ncc_.shareable(machine_, engine_.now(), owner_quiet_since_);
    if (shareable != last_shareable_) {
      last_shareable_ = shareable;
      push_update();
    }
  }
  last_owner_present_ = machine_.owner_load().present;
}

// ---------------------------------------------------------------------------
// Reservation protocol (provider side)
// ---------------------------------------------------------------------------

double Lrm::grid_cpu_in_use() const {
  double total = 0.0;
  for (const auto& [_, task] : tasks_) total += task->share;
  return total;
}

double Lrm::reserved_cpu() const {
  double total = 0.0;
  for (const auto& [_, task] : tasks_) total += task->requested_cpu;
  for (const auto& [_, held] : reservations_) total += held.request.cpu_fraction;
  return total;
}

Bytes Lrm::ram_committed() const {
  Bytes total = 0;
  for (const auto& [_, task] : tasks_) total += task->desc.ram_needed;
  for (const auto& [_, held] : reservations_) total += held.request.ram;
  return total;
}

protocol::ReservationReply Lrm::handle_reserve(
    const protocol::ReservationRequest& req) {
  const SimTime now = engine_.now();
  metrics_.counter("reservations_requested").add();

  protocol::ReservationReply reply;
  reply.id = req.id;

  // "lrm.reserve" span: child of the GRM's "grm.reserve" span (carried in
  // on the request's trace slot). Closed on every exit with the verdict.
  obs::Tracer* tr = orb_.tracer();
  obs::Tracer::ActiveSpan rspan;
  if (tr != nullptr && tr->enabled()) {
    rspan = tr->start(protocol::kSpanLrmReserve, orb_.current_trace(), now);
    rspan.task = req.task.value;
    rspan.node = machine_.id().value;
  }
  struct SpanCloser {
    Lrm& lrm;
    obs::Tracer* tr;
    obs::Tracer::ActiveSpan& span;
    protocol::ReservationReply& reply;
    ~SpanCloser() {
      if (tr != nullptr && span.valid()) {
        tr->finish(span, lrm.engine_.now(),
                   reply.granted ? "granted" : reply.reason);
      }
    }
  } span_closer{*this, tr, rspan, reply};
  const double exportable = ncc_.exportable_cpu(machine_, now, owner_quiet_since_);
  const Bytes exportable_ram = ncc_.exportable_ram(machine_);
  reply.exportable_cpu = std::max(0.0, exportable - reserved_cpu());
  reply.free_ram = std::max<Bytes>(0, exportable_ram - ram_committed());

  if (!ncc_.shareable(machine_, now, owner_quiet_since_)) {
    reply.granted = false;
    reply.reason = "node not shareable (owner active or policy)";
    metrics_.counter("reservations_refused").add();
    return reply;
  }
  // Owner's economic terms: a Trader-language filter over the bid riding the
  // reservation. A bid-less request leaves the properties absent, so under
  // three-valued semantics a non-empty filter refuses it; a malformed filter
  // refuses everything (fail closed — the owner asked for *some* screen).
  if (const std::string& filter = ncc_.policy().bid_filter; !filter.empty()) {
    auto compiled = services::Constraint::parse(filter);
    services::PropertySet bid;
    if (req.has_bid()) {
      bid.set("tenant", req.tenant);
      bid.set("bid_budget", req.bid_budget);
      bid.set("bid_deadline_s", to_seconds(req.bid_deadline));
    }
    if (!compiled.is_ok() || !compiled.value().matches(bid)) {
      reply.granted = false;
      reply.reason = "bid rejected by node policy";
      metrics_.counter("reservations_bid_refused").add();
      metrics_.counter("reservations_refused").add();
      return reply;
    }
  }
  // Grant the clamped fraction rather than all-or-nothing: the owner's
  // background load means "1.0 of the CPU" is never strictly available, and
  // a 0.95-share grant is what a real nice-19 scheduler would deliver.
  const double grantable = exportable - reserved_cpu();
  if (grantable < protocol::kMinUsefulCpu) {
    reply.granted = false;
    reply.reason = "insufficient CPU";
    metrics_.counter("reservations_refused").add();
    return reply;
  }
  // The request's RAM comes off the wire: refuse a negative one, which would
  // corrupt every later sum of committed RAM, and compare without a sum.
  if (req.ram < 0 || req.ram > exportable_ram - ram_committed()) {
    reply.granted = false;
    reply.reason = req.ram < 0 ? "negative RAM request" : "insufficient RAM";
    metrics_.counter("reservations_refused").add();
    return reply;
  }

  HeldReservation held;
  held.request = req;
  held.request.cpu_fraction = std::min(req.cpu_fraction, grantable);
  held.expiry = engine_.schedule_after(req.hold, [this, id = req.id] {
    if (reservations_.erase(id) > 0) {
      metrics_.counter("reservations_expired").add();
    }
  });
  reservations_[req.id] = std::move(held);

  reply.granted = true;
  metrics_.counter("reservations_granted").add();
  return reply;
}

protocol::ExecuteReply Lrm::handle_execute(const protocol::ExecuteRequest& req) {
  protocol::ExecuteReply reply;
  reply.reservation = req.reservation;

  // "lrm.execute" span: child of the GRM's "grm.execute" span.
  obs::Tracer* tr = orb_.tracer();
  obs::Tracer::ActiveSpan espan;
  if (tr != nullptr && tr->enabled()) {
    espan = tr->start(protocol::kSpanLrmExecute, orb_.current_trace(),
                      engine_.now());
    espan.task = req.task.id.value;
    espan.node = machine_.id().value;
  }
  struct SpanCloser {
    Lrm& lrm;
    obs::Tracer* tr;
    obs::Tracer::ActiveSpan& span;
    protocol::ExecuteReply& reply;
    ~SpanCloser() {
      if (tr != nullptr && span.valid()) {
        tr->finish(span, lrm.engine_.now(),
                   reply.accepted ? "accepted" : reply.reason);
      }
    }
  } span_closer{*this, tr, espan, reply};

  const char* refusal = req.task.ram_needed < 0 ? "negative RAM request"
                                                : protocol::task_refusal(req.task);
  if (refusal != nullptr) {
    reply.accepted = false;
    reply.reason = refusal;
    metrics_.counter("executes_rejected").add();
    return reply;
  }
  protocol::ReservationRequest reservation;
  auto it = reservations_.find(req.reservation);
  if (it == reservations_.end()) {
    if (req.reservation.valid()) {
      reply.accepted = false;
      reply.reason = "no such reservation (expired?)";
      metrics_.counter("executes_rejected").add();
      return reply;
    }
    // Reservation-free direct execution (how the Condor/BOINC-style
    // baselines claim nodes): run the admission check inline.
    reservation.id = req.reservation;
    reservation.task = req.task.id;
    reservation.ram = req.task.ram_needed;
    const SimTime now = engine_.now();
    const double grantable =
        ncc_.exportable_cpu(machine_, now, owner_quiet_since_) - reserved_cpu();
    reservation.cpu_fraction = std::min(1.0, grantable);
    if (!ncc_.shareable(machine_, now, owner_quiet_since_) ||
        grantable < protocol::kMinUsefulCpu ||
        reservation.ram > ncc_.exportable_ram(machine_) - ram_committed()) {
      reply.accepted = false;
      reply.reason = "node busy (direct execute refused)";
      metrics_.counter("executes_rejected").add();
      return reply;
    }
  } else {
    reservation = it->second.request;
    it->second.expiry.cancel();
    reservations_.erase(it);
  }

  if (ncc_.must_evict(machine_, engine_.now())) {
    reply.accepted = false;
    reply.reason = "owner returned between reserve and execute";
    metrics_.counter("executes_rejected").add();
    return reply;
  }

  // Owner's sandbox policy: the last word on what this node will host.
  if (const Status admitted = options_.sandbox.admit(req.task);
      !admitted.is_ok()) {
    reply.accepted = false;
    reply.reason = admitted.message();
    metrics_.counter("executes_sandboxed").add();
    return reply;
  }

  auto task = std::make_unique<RunningTask>();
  task->desc = req.task;
  task->report_to = req.report_to;
  task->requested_cpu = reservation.cpu_fraction;
  task->last_settle = engine_.now();
  task->bsp_resident = req.task.kind == protocol::AppKind::kBsp;

  // Resume from a checkpoint when the manager supplied one: progress is
  // absolute, so the checkpointed prefix of the work is never re-executed.
  if (!task->bsp_resident && !req.restore_state.empty()) {
    auto restored =
        cdr::decode_message<ckpt::SequentialState>(req.restore_state);
    if (restored.is_ok()) {
      task->done = std::clamp(restored.value().work_done, 0.0, task->desc.work);
      metrics_.counter("tasks_restored").add();
    }
  }

  const TaskId id = req.task.id;
  auto [task_it, inserted] = tasks_.emplace(id, std::move(task));
  if (!inserted) {
    reply.accepted = false;
    reply.reason = "task already running here";
    return reply;
  }
  metrics_.counter("tasks_accepted").add();
  mark_duty();

  // Sequential-task checkpointing: periodic portable state capture.
  RunningTask& t = *task_it->second;
  if (espan.valid()) {
    t.run_span = tr->start(protocol::kSpanLrmRun, espan.context(), engine_.now());
    t.run_span.app = t.desc.app.value;
    t.run_span.task = t.desc.id.value;
    t.run_span.node = machine_.id().value;
  }
  if (!t.bsp_resident && t.desc.checkpoint_period > 0 &&
      checkpoint_service_.valid()) {
    t.checkpoint_timer.start(engine_, t.desc.checkpoint_period,
                             [this, id] {
                               auto it2 = tasks_.find(id);
                               if (it2 != tasks_.end()) checkpoint_task(*it2->second);
                             });
  }

  // A preempted task's successor placement names the peers holding its
  // final checkpoint chunks: prefetch the image into the local store so the
  // restore (and any later save's dedup) starts warm.
  if (!req.ckpt_peers.empty() && ckpt_agent_ != nullptr) {
    ckpt_agent_->warm_restore(t.desc.app, std::max(0, t.desc.bsp_rank),
                              req.ckpt_peers);
  }

  // Input staging: bill the transfer from the submitting manager's node to
  // this node before compute begins (the reallocate() that grants CPU
  // happens either way; a staging task simply has work pending).
  if (t.desc.input_bytes > 0 && network_ != nullptr &&
      network_->attached(req.report_to.host) &&
      network_->attached(orb_.address())) {
    network_->send(req.report_to.host, orb_.address(), t.desc.input_bytes,
                   [] { /* arrival already delays nothing further */ });
  }

  reallocate();
  reply.accepted = true;
  return reply;
}

void Lrm::handle_cancel(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  settle_all();
  it->second->completion.cancel();
  it->second->checkpoint_timer.stop();
  if (obs::Tracer* tr = orb_.tracer(); tr != nullptr) {
    tr->finish(it->second->run_span, engine_.now(), "cancelled");
  }
  tasks_.erase(it);
  mark_duty();
  metrics_.counter("tasks_cancelled").add();
  reallocate();
}

void Lrm::handle_preempt(const protocol::PreemptRequest& req) {
  auto it = tasks_.find(req.task);
  if (it == tasks_.end()) return;
  RunningTask& task = *it->second;
  settle_all();
  // Final checkpoint before the slot is surrendered: the portable progress
  // blob lands in the repository either way, and when the data plane is on
  // the image chunks replicate to the GRM-chosen peers so the successor
  // node's restore pulls from warm stores.
  checkpoint_task(task, req.peers);
  task.completion.cancel();
  task.checkpoint_timer.stop();
  if (obs::Tracer* tr = orb_.tracer(); tr != nullptr) {
    tr->finish(task.run_span, engine_.now(), "preempted");
  }
  metrics_.counter("tasks_preempted").add();
  report(task, TaskOutcome::kEvicted, "preempted");
  tasks_.erase(it);
  mark_duty();
  reallocate();
}

void Lrm::handle_bsp_compute(const protocol::BspComputeRequest& req) {
  auto it = tasks_.find(req.task);
  if (it == tasks_.end()) {
    // Task is gone (evicted and the coordinator's message raced the report);
    // the coordinator learns via the eviction report, so drop silently.
    return;
  }
  RunningTask& task = *it->second;
  settle_all();
  task.chunk_active = true;
  task.chunk_superstep = req.superstep;
  task.chunk_work = req.work;
  task.chunk_done = 0;
  task.chunk_notify = req.notify;
  reallocate();
}

// ---------------------------------------------------------------------------
// Execution engine: piecewise-constant-rate work integration
// ---------------------------------------------------------------------------

bool Lrm::task_computing(const RunningTask& task) const {
  return task.bsp_resident ? task.chunk_active : true;
}

MInstr Lrm::effective_work(const RunningTask& task) const {
  return task.bsp_resident ? task.chunk_work : task.desc.work;
}

void Lrm::settle(RunningTask& task) {
  const SimTime now = engine_.now();
  const SimDuration elapsed = now - task.last_settle;
  task.last_settle = now;
  if (elapsed <= 0 || !task_computing(task) || task.share <= 0.0) return;

  const MInstr progressed =
      task.share * machine_.spec().cpu_mips * to_seconds(elapsed);
  total_work_done_ += progressed;
  if (task.bsp_resident) {
    task.chunk_done += progressed;
  } else {
    task.done += progressed;
  }
}

void Lrm::settle_all() {
  for (auto& [_, task] : tasks_) settle(*task);
}

void Lrm::reallocate() {
  settle_all();
  const SimTime now = engine_.now();

  // Capacity available to grid tasks right now. Running tasks keep their
  // claim even inside the NCC grace window (eviction is handled separately);
  // what shrinks under owner load is the leftover itself.
  double available = 0.0;
  if (!ncc_.must_evict(machine_, now)) {
    available = std::min(ncc_.policy().cpu_export_cap,
                         machine_.free_cpu_fraction());
    available = std::max(0.0, available);
  }

  // Equal split among computing tasks, capped by each task's request;
  // leftover water-fills to the uncapped ones.
  std::vector<RunningTask*> computing;
  for (auto& [_, task] : tasks_) {
    if (task_computing(*task)) {
      computing.push_back(task.get());
    } else {
      task->share = 0.0;
      task->completion.cancel();
    }
  }
  if (!computing.empty()) {
    double remaining = available;
    std::vector<bool> capped(computing.size(), false);
    std::size_t uncapped = computing.size();
    for (auto* t : computing) t->share = 0.0;
    // At most N rounds: each round caps at least one task or distributes all.
    while (remaining > 1e-12 && uncapped > 0) {
      const double slice = remaining / static_cast<double>(uncapped);
      double distributed = 0.0;
      for (std::size_t i = 0; i < computing.size(); ++i) {
        if (capped[i]) continue;
        const double headroom = computing[i]->requested_cpu - computing[i]->share;
        const double take = std::min(slice, headroom);
        computing[i]->share += take;
        distributed += take;
        if (computing[i]->share >= computing[i]->requested_cpu - 1e-12) {
          capped[i] = true;
          --uncapped;
        }
      }
      remaining -= distributed;
      if (distributed <= 1e-12) break;
    }
  }

  for (auto& [_, task] : tasks_) {
    if (task_computing(*task)) schedule_completion(*task);
  }
}

void Lrm::schedule_completion(RunningTask& task) {
  task.completion.cancel();
  const double rate = task.share * machine_.spec().cpu_mips;  // MInstr/s
  if (rate <= 0.0) return;  // stalled: waits for the next reallocation

  const MInstr remaining =
      effective_work(task) - (task.bsp_resident ? task.chunk_done : task.done);
  if (remaining <= 0.0) {
    // Already done (zero-work chunk): complete on the next event boundary.
    const TaskId id = task.desc.id;
    task.completion = engine_.schedule_after(0, [this, id] { finish_task(id); });
    return;
  }
  const SimDuration eta = from_seconds(remaining / rate);
  const TaskId id = task.desc.id;
  task.completion =
      engine_.schedule_after(std::max<SimDuration>(eta, 1), [this, id] {
        finish_task(id);
      });
}

void Lrm::finish_task(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  RunningTask& task = *it->second;
  settle(task);

  if (task.bsp_resident) {
    if (task.chunk_active && task.chunk_done >= task.chunk_work - 1e-6) {
      finish_chunk(task);
    } else {
      schedule_completion(task);  // numeric slack: not quite there yet
    }
    return;
  }

  if (task.done < task.desc.work - 1e-6) {
    schedule_completion(task);
    return;
  }

  // Completed: ship output back to the manager, then report.
  metrics_.counter("tasks_completed").add();
  if (task.desc.output_bytes > 0 && network_ != nullptr &&
      network_->attached(orb_.address()) &&
      network_->attached(task.report_to.host)) {
    network_->send(orb_.address(), task.report_to.host, task.desc.output_bytes,
                   [] {});
  }
  if (obs::Tracer* tr = orb_.tracer(); tr != nullptr) {
    tr->finish(task.run_span, engine_.now(), "completed");
  }
  report(task, TaskOutcome::kCompleted, "");
  task.checkpoint_timer.stop();
  tasks_.erase(it);
  mark_duty();
  reallocate();
}

void Lrm::finish_chunk(RunningTask& task) {
  task.chunk_active = false;
  task.share = 0.0;
  metrics_.counter("bsp_chunks_completed").add();
  protocol::BspChunkDone done;
  done.task = task.desc.id;
  done.rank = task.desc.bsp_rank;
  done.superstep = task.chunk_superstep;
  done.node = machine_.id();
  if (task.chunk_notify.valid()) {
    orb::oneway(orb_, task.chunk_notify, "chunk_done", done);
  }
  reallocate();
}

void Lrm::evict_all(TaskOutcome outcome, const std::string& detail) {
  if (tasks_.empty()) return;
  settle_all();
  // Reservations die with the eviction: the machine is no longer donating.
  for (auto& [_, held] : reservations_) held.expiry.cancel();
  reservations_.clear();

  auto victims = std::move(tasks_);
  tasks_.clear();
  mark_duty();
  for (auto& [_, task] : victims) {
    task->completion.cancel();
    task->checkpoint_timer.stop();
    if (obs::Tracer* tr = orb_.tracer(); tr != nullptr) {
      tr->finish(task->run_span, engine_.now(),
                 protocol::task_outcome_name(outcome));
    }
    metrics_.counter("tasks_evicted").add();
    report(*task, outcome, detail);
  }
}

void Lrm::report(const RunningTask& task, TaskOutcome outcome,
                 const std::string& detail) {
  if (!task.report_to.valid()) return;
  protocol::TaskReport report;
  report.task = task.desc.id;
  report.node = machine_.id();
  report.outcome = outcome;
  report.work_done = task.done;
  report.detail = detail;
  journal_report(report);
  // Carry the run span's context so the GRM's "grm.report" span links under
  // this task's subtree.
  orb::TraceScope trace_scope(orb_, task.run_span.context());
  orb::reliable_oneway(orb_, task.report_to, "report", report);
}

void Lrm::checkpoint_task(RunningTask& task,
                          const std::vector<orb::ObjectRef>& ckpt_peers) {
  settle(task);
  ckpt::Checkpoint checkpoint;
  checkpoint.app = task.desc.app;
  checkpoint.rank = std::max(0, task.desc.bsp_rank);
  // Time-based versions stay monotonic across evict/restart cycles, which
  // keeps the repository's version-regression guard effective.
  checkpoint.version = engine_.now();
  checkpoint.created_at = engine_.now();
  checkpoint.state = cdr::encode_message(ckpt::SequentialState{task.done});
  metrics_.counter("checkpoints_taken").add();

  if (ckpt_agent_ != nullptr) {
    // Data plane: the image ships as content-addressed chunks — only what
    // the repository's store is missing crosses the wire, LZ-compressed.
    // A preemption passes the successor node's peers so its restore starts
    // warm. The version is in seconds, monotonic across evict/restart
    // cycles, so the stores' regression guard holds; the synthetic image's
    // content step is the agent's per-line save ordinal, not this version.
    ckpt_agent_->save_sequential(checkpoint.app, checkpoint.rank,
                                 engine_.now() / kSecond,
                                 task.desc.checkpoint_bytes, ckpt_peers);
  } else if (task.desc.checkpoint_bytes > 0 && network_ != nullptr &&
             network_->attached(orb_.address()) &&
             network_->attached(checkpoint_service_.host)) {
    // Legacy: bill the whole-image transfer separately from the control
    // message.
    network_->send(orb_.address(), checkpoint_service_.host,
                   task.desc.checkpoint_bytes, [] {});
  }
  // The portable progress blob always lands in the repository — it is what
  // the GRM's restore path reads on requeue.
  orb::oneway(orb_, checkpoint_service_, "store_checkpoint", checkpoint);
}

void Lrm::mark_duty() {
  const SimTime now = engine_.now();
  (duty_busy_ ? duty_busy_time_ : duty_idle_time_) += now - duty_mark_;
  duty_mark_ = now;
  duty_busy_ = !tasks_.empty();
}

double Lrm::harvest_duty_cycle() const {
  SimDuration busy = duty_busy_time_;
  SimDuration idle = duty_idle_time_;
  (duty_busy_ ? busy : idle) += engine_.now() - duty_mark_;
  const SimDuration total = busy + idle;
  return total > 0 ? static_cast<double>(busy) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace integrade::lrm
