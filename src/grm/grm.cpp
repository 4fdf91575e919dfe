#include "grm/grm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>

#include "common/log.hpp"
#include "protocol/trace_names.hpp"
#include "snapshot/state_codecs.hpp"

namespace integrade::grm {

using protocol::AppEventKind;
using protocol::AppKind;
using protocol::TaskOutcome;

namespace {

constexpr const char* kOpUpdateStatus = "update_status";
constexpr const char* kOpSubmit = "submit";
constexpr const char* kOpReport = "report";
constexpr const char* kOpRemoteSubmit = "remote_submit";
constexpr const char* kOpRemoteAdopted = "remote_adopted";
constexpr const char* kOpClusterSummary = "cluster_summary";

/// Period of the stale-offer sweep.
constexpr SimDuration kStaleSweepPeriod = 30 * kSecond;
/// Summary push cadence toward the parent cluster.
constexpr SimDuration kSummaryPeriod = 60 * kSecond;
/// Hold the GRM asks LRMs to keep on granted reservations.
constexpr SimDuration kReservationHold = 30 * kSecond;
/// Timeout of every call the GRM makes to an LRM.
constexpr SimDuration kCallTimeout = 5 * kSecond;
/// Candidates tried per negotiation wave before the task is requeued.
constexpr std::size_t kMaxCandidatesPerWave = 8;
/// After this many fruitless waves, try the cluster hierarchy.
constexpr int kForwardAfterWaves = 2;
/// CPU fraction requested per task reservation.
constexpr double kCpuRequest = 1.0;

class GrmServant final : public orb::SkeletonBase {
 public:
  explicit GrmServant(Grm& grm) {
    register_op<protocol::NodeLoad, cdr::Empty>(
        kOpUpdateStatus,
        [&grm](const protocol::NodeLoad& load) -> Result<cdr::Empty> {
          grm.handle_node_load(load);
          return cdr::Empty{};
        });
    register_op<protocol::ApplicationSpec, protocol::SubmitReply>(
        kOpSubmit, [&grm](const protocol::ApplicationSpec& spec)
                       -> Result<protocol::SubmitReply> {
          return grm.handle_submit(spec);
        });
    register_op<protocol::TaskReport, cdr::Empty>(
        kOpReport, [&grm](const protocol::TaskReport& report) -> Result<cdr::Empty> {
          grm.handle_report(report);
          return cdr::Empty{};
        });
    register_op<protocol::RemoteSubmit, cdr::Empty>(
        kOpRemoteSubmit,
        [&grm](const protocol::RemoteSubmit& req) -> Result<cdr::Empty> {
          grm.handle_remote_submit(req);
          return cdr::Empty{};
        });
    register_op<protocol::RemoteAdopted, cdr::Empty>(
        kOpRemoteAdopted,
        [&grm](const protocol::RemoteAdopted& ack) -> Result<cdr::Empty> {
          grm.handle_remote_adopted(ack);
          return cdr::Empty{};
        });
    register_op<protocol::CancelApp, cdr::Empty>(
        "cancel_app",
        [&grm](const protocol::CancelApp& req) -> Result<cdr::Empty> {
          grm.handle_cancel_app(req.app);
          return cdr::Empty{};
        });
    register_op<protocol::ClusterSummary, cdr::Empty>(
        kOpClusterSummary,
        [&grm](const protocol::ClusterSummary& summary) -> Result<cdr::Empty> {
          grm.handle_cluster_summary(summary);
          return cdr::Empty{};
        });
    register_op<protocol::TaskResync, cdr::Empty>(
        "task_resync",
        [&grm](const protocol::TaskResync& resync) -> Result<cdr::Empty> {
          grm.handle_task_resync(resync);
          return cdr::Empty{};
        });
  }

  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/Grm:1.0";
  }
};

}  // namespace

/// One negotiation wave for one task: a snapshot of ranked candidates that
/// the Reserve/Execute callbacks walk through. Heap-held and shared into
/// the callbacks so a wave survives GRM map mutations.
struct Grm::Wave {
  TaskId task;
  std::vector<Placement> candidates;
  std::size_t index = 0;
};

Grm::Grm(sim::Engine& engine, orb::Orb& orb, ClusterId cluster, Rng rng,
         GrmOptions options)
    : engine_(engine),
      orb_(orb),
      cluster_(cluster),
      rng_(rng),
      options_(options) {
  trader_.declare_type(protocol::kNodeServiceType, protocol::kNodeSchema);
}

Grm::~Grm() { stop(); }

void Grm::start(lupa::Gupa* gupa, ckpt::CheckpointRepository* checkpoints,
                sim::Network* network) {
  assert(!started_);
  started_ = true;
  gupa_ = gupa;
  checkpoints_ = checkpoints;
  network_ = network;
  self_ref_ = orb_.activate(std::make_shared<GrmServant>(*this));
  sweep_timer_.start(engine_, kStaleSweepPeriod, [this] { sweep_stale_offers(); });
  summary_timer_.start(engine_, kSummaryPeriod, [this] { push_summary(); });
}

void Grm::set_sched(const sched::SchedOptions& options) {
  sched_ = options;
  queue_.configure(sched_);
  tenant_registry_.configure(sched_);
}

void Grm::stop() {
  if (!started_) return;
  started_ = false;
  sweep_timer_.stop();
  summary_timer_.stop();
  orb_.deactivate(self_ref_.key);
}

// ---------------------------------------------------------------------------
// Information Update Protocol (consumer side)
// ---------------------------------------------------------------------------

void Grm::handle_node_load(const protocol::NodeLoad& load) {
  // Promotion: nothing addresses a standby while the primary lives, so the
  // first load it receives means an LRM failed over to it — wake the
  // dormant snapshot image before applying.
  if (restored_dormant_) recover_in_flight();
  status_updates_received_.add();
  auto it = nodes_.find(load.node);
  if (it == nodes_.end()) {
    // A lost first frame, a node the stale sweep withdrew, or a standby
    // promoted without a snapshot of it: fetch the static descriptor.
    pull_status(load);
    return;
  }
  NodeRecord& record = it->second;
  protocol::apply_load(load, record.status);
  record.last_update = engine_.now();
  refresh_load(record);
  // Fresh capacity may unblock queued tasks.
  if (load.shareable) kick_scheduler();
}

void Grm::handle_update_status(const protocol::NodeStatus& status) {
  if (restored_dormant_) recover_in_flight();
  status_updates_received_.add();
  on_update(status);
  if (status.shareable) kick_scheduler();
}

void Grm::pull_status(const protocol::NodeLoad& load) {
  if (!pulls_pending_.insert(load.node).second) {
    metrics_.counter("loads_dropped_pending_pull").add();
    return;
  }
  metrics_.counter("status_pulls").add();
  orb::call<cdr::Empty, protocol::NodeStatus>(
      orb_, load.lrm, "get_status", cdr::Empty{},
      [this, node = load.node](Result<protocol::NodeStatus> reply) {
        pulls_pending_.erase(node);
        // A failure leaves the node unknown; its next load pulls again.
        if (!reply.is_ok() || reply.value().node != node) {
          metrics_.counter("status_pull_failures").add();
          return;
        }
        on_update(reply.value());
        if (reply.value().shareable) kick_scheduler();
      },
      kCallTimeout);
}

void Grm::refresh_load(const NodeRecord& record) {
  (void)trader_.write_slots(record.offer, [&record](services::SlotWriter& slots) {
    protocol::write_load_slots(record.status, slots);
  });
}

void Grm::handle_task_resync(const protocol::TaskResync& resync) {
  if (restored_dormant_) recover_in_flight();  // resync implies adoption
  metrics_.counter("task_resyncs_received").add();
  for (const TaskId id : resync.running) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) continue;
    TaskRecord& task = it->second;
    if (task.state == TaskState::kCompleted ||
        task.state == TaskState::kFailed) {
      continue;  // terminal outcome already known; the LRM's copy is doomed
    }
    if (task.state == TaskState::kRunning &&
        task.placement.node == resync.node) {
      continue;  // nothing to learn
    }
    // A copy running elsewhere is left alone: two resyncs for one task can
    // cross in flight, and a cancel on each would kill both copies.
    transition(task, TaskState::kRunning, Placement{resync.node, resync.lrm});
    metrics_.counter("tasks_resynced").add();
  }
}

void Grm::on_update(const protocol::NodeStatus& status) {
  auto it = nodes_.find(status.node);
  if (it == nodes_.end()) {
    NodeRecord record;
    record.offer = trader_.export_offer(protocol::kNodeServiceType, status.lrm,
                                        protocol::to_properties(status));
    record.status = status;
    record.last_update = engine_.now();
    nodes_.emplace(status.node, std::move(record));
    metrics_.counter("nodes_registered").add();
    return;
  }
  it->second.status = status;
  it->second.last_update = engine_.now();
  (void)trader_.write_slots(it->second.offer,
                            [&status](services::SlotWriter& slots) {
                              protocol::write_status_slots(status, slots);
                            });
}

void Grm::sweep_stale_offers() {
  const SimTime cutoff = engine_.now() - options_.offer_ttl;
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    if (it->second.last_update < cutoff) {
      (void)trader_.withdraw(it->second.offer);
      metrics_.counter("offers_expired").add();
      const NodeId dead = it->first;
      NodeRecord record = std::move(it->second);
      it = nodes_.erase(it);
      on_node_dead(dead, record);
    } else {
      ++it;
    }
  }
}

void Grm::on_node_dead(NodeId node, const NodeRecord& record) {
  // The node may come back (sweeps are a liveness heuristic), but from the
  // scheduler's view it is gone: forget its negotiation load and reclaim
  // every task it was running. Leaving the inflight_ count behind would
  // make later waves under-select the node forever after it re-registers.
  inflight_.erase(node);

  for (auto& [task_id, task] : tasks_) {
    if (task.state != TaskState::kRunning || task.placement.node != node) {
      continue;
    }
    // Best-effort cancel in case the node is alive after all: its copy of
    // the task (and the reservation holding it) should die, not race the
    // replacement we are about to place.
    if (record.status.lrm.valid()) {
      orb::oneway(orb_, record.status.lrm, "cancel", protocol::CancelTask{task_id});
    }
    lose_running_task(task, node, "tasks_node_failed",
                      "node declared dead by stale sweep");
  }
}

void Grm::lose_running_task(TaskRecord& task, NodeId node, const char* counter,
                            const std::string& detail) {
  const TaskId id = task.desc.id;
  ++task.evictions;
  metrics_.counter(counter).add();
  const AppRecord& app = apps_.at(task.app);
  notify(app, AppEventKind::kTaskEvicted, id, node, detail);
  if (app.spec.kind == AppKind::kBsp && bsp_lost_) {
    bsp_lost_(app.spec.id, task.desc.bsp_rank);
  }
  requeue(task);
  notify(app, AppEventKind::kTaskRescheduled, id, NodeId(), "");
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

protocol::SubmitReply Grm::handle_submit(const protocol::ApplicationSpec& spec) {
  protocol::SubmitReply reply;
  reply.app = spec.id;

  // "grm.submit" span: child of the ASCT's submission span (carried in on
  // the request's trace slot). Closed on every exit with the outcome.
  obs::Tracer* tr = orb_.tracer();
  obs::Tracer::ActiveSpan submit_span;
  if (tr != nullptr && tr->enabled()) {
    submit_span = tr->start(protocol::kSpanGrmSubmit, orb_.current_trace(), engine_.now());
    submit_span.app = spec.id.value;
  }
  struct SpanCloser {
    Grm& grm;
    obs::Tracer* tr;
    obs::Tracer::ActiveSpan& span;
    protocol::SubmitReply& reply;
    ~SpanCloser() {
      if (tr != nullptr && span.valid()) {
        tr->finish(span, grm.engine_.now(),
                   reply.accepted ? "accepted" : reply.reason);
      }
    }
  } span_closer{*this, tr, submit_span, reply};

  if (spec.tasks.empty()) {
    reply.accepted = false;
    reply.reason = "application has no tasks";
    return reply;
  }
  for (const protocol::TaskDescriptor& task : spec.tasks) {
    if (const char* refusal = protocol::task_refusal(task)) {
      reply.accepted = false;
      reply.reason = refusal;
      return reply;
    }
  }
  if (apps_.contains(spec.id)) {
    reply.accepted = false;
    reply.reason = "duplicate application id";
    return reply;
  }
  // Validate the requirement expressions up front so the user gets a
  // synchronous parse error rather than a silently unschedulable app.
  if (!spec.requirements.constraint.empty()) {
    auto parsed = services::Constraint::parse(spec.requirements.constraint);
    if (!parsed.is_ok()) {
      reply.accepted = false;
      reply.reason = "bad constraint: " + parsed.status().message();
      return reply;
    }
  }
  if (!spec.requirements.preference.empty()) {
    auto parsed = services::Preference::parse(spec.requirements.preference);
    if (!parsed.is_ok()) {
      reply.accepted = false;
      reply.reason = "bad preference: " + parsed.status().message();
      return reply;
    }
  }

  // Admission control: refuse work the grid cannot credibly queue rather
  // than letting one tenant's backlog grow without bound.
  if (sched_.enabled) {
    const int incoming = static_cast<int>(spec.tasks.size());
    const sched::TenantSpec& quota = tenant_registry_.spec(spec.tenant);
    if (quota.max_queued > 0 &&
        static_cast<int>(queue_.tenant_size(spec.tenant)) + incoming >
            quota.max_queued) {
      reply.accepted = false;
      reply.reason = "tenant queue quota exceeded";
      metrics_.counter("sched_admission_rejected").add();
      return reply;
    }
  }

  AppRecord app;
  app.spec = spec;
  app.outstanding = static_cast<int>(spec.tasks.size());

  std::vector<std::int32_t> rank_segment;
  if (!spec.topology.empty()) {
    if (!plan_topology(app, rank_segment)) {
      reply.accepted = false;
      reply.reason = "virtual topology not satisfiable by current segments";
      metrics_.counter("topology_rejections").add();
      return reply;
    }
  }

  apps_.emplace(spec.id, std::move(app));
  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    TaskRecord task;
    task.desc = spec.tasks[i];
    task.app = spec.id;
    if (!rank_segment.empty() && i < rank_segment.size()) {
      task.topology_segment = rank_segment[i];
    }
    if (sched_.enabled) {
      task.tenant = spec.tenant;
      if (spec.bid_deadline > 0) task.deadline = engine_.now() + spec.bid_deadline;
    }
    const TaskId id = task.desc.id;
    if (submit_span.valid()) {
      // Lifetime span per task; every negotiation wave parents on it and
      // its duration is the task's submission→completion latency.
      task.span = tr->start(protocol::kSpanGrmTask, submit_span.context(), engine_.now());
      task.span.app = spec.id.value;
      task.span.task = id.value;
    }
    transition(tasks_.emplace(id, std::move(task)).first->second,
               TaskState::kPending);  // joins the queue
  }
  metrics_.counter("apps_submitted").add();
  metrics_.counter("tasks_submitted").add(static_cast<std::int64_t>(spec.tasks.size()));
  kick_scheduler();

  reply.accepted = true;
  return reply;
}

bool Grm::plan_topology(AppRecord& app, std::vector<std::int32_t>& rank_segment) {
  if (network_ == nullptr) return false;
  const auto& topo = app.spec.topology;

  // Count registered nodes per segment. Membership — not instantaneous
  // shareability — is the right capacity measure here: a topology plan is a
  // standing allocation, and whether an individual machine is busy at this
  // second is the reservation protocol's problem, not the planner's.
  std::map<std::int32_t, int> capacity;
  for (const auto& [_, record] : nodes_) {
    ++capacity[record.status.segment];
  }

  // Greedily assign each group the smallest segment that satisfies both the
  // member count and the intra-group bandwidth; each segment hosts at most
  // one group so the inter-group constraint is meaningful.
  std::set<std::int32_t> used;
  std::vector<std::int32_t> group_segment;
  for (const auto& group : topo.groups) {
    std::int32_t best = -1;
    int best_cap = std::numeric_limits<int>::max();
    for (const auto& [segment, count] : capacity) {
      if (used.contains(segment) || count < group.nodes) continue;
      const auto& spec = network_->segment(segment);
      if (spec.bandwidth < group.min_intra_bandwidth) continue;
      if (topo.groups.size() > 1 && topo.min_inter_bandwidth > 0 &&
          spec.uplink_bandwidth < topo.min_inter_bandwidth) {
        continue;
      }
      if (count < best_cap) {
        best_cap = count;
        best = segment;
      }
    }
    if (best < 0) return false;
    used.insert(best);
    group_segment.push_back(best);
  }

  rank_segment.clear();
  for (std::size_t g = 0; g < topo.groups.size(); ++g) {
    for (std::int32_t i = 0; i < topo.groups[g].nodes; ++i) {
      rank_segment.push_back(group_segment[g]);
    }
  }
  // Any surplus tasks beyond the topology's node count roam free.
  rank_segment.resize(app.spec.tasks.size(), -1);
  return true;
}

// ---------------------------------------------------------------------------
// Scheduler: candidate selection + negotiation waves
// ---------------------------------------------------------------------------

void Grm::kick_scheduler(SimDuration delay) {
  if (pass_scheduled_ || !started_) return;
  pass_scheduled_ = true;
  engine_.schedule_after(delay, [this] {
    pass_scheduled_ = false;
    scheduler_pass();
  });
}

void Grm::scheduler_pass() {
  // Every shareable load kicks a pass; with nothing queued it costs nothing.
  if (queue_.empty()) return;

  // Slots each tenant holds (running or negotiating) feed the quota and
  // entitlement vetoes below; negotiating waves also come off the dispatch
  // budget.
  sched::TenantCounts committed;
  int committed_total = 0;
  int negotiating = 0;
  for (const auto& [_, task] : tasks_) {
    if (task.state == TaskState::kNegotiating) {
      ++negotiating;
    } else if (task.state != TaskState::kRunning) {
      continue;
    }
    ++committed[task.tenant];
    ++committed_total;
  }
  int free_hints = 0;
  for (const auto& [_, record] : nodes_) {
    if (record.status.shareable) ++free_hints;
  }
  // Budget by free slots: one wave per node the hints call shareable, net of
  // the waves already negotiating for one. Opening a wave per queued task
  // instead sends every wave to the same few nodes before any refusal has
  // corrected a hint. With no free hint and nothing negotiating, one probe
  // wave reaches the no-candidate paths (preemption, forwarding).
  int budget = free_hints - negotiating;
  if (budget <= 0) budget = negotiating == 0 ? 1 : 0;

  // Tenants at their running quota sit out this pass; their queued tasks
  // stay put and a completion report re-kicks the scheduler. A wave holds
  // its slot from dispatch on, so one pass cannot open more waves than the
  // quota has room for.
  auto blocked = [&](const std::string& tenant) {
    const sched::TenantSpec& quota = tenant_registry_.spec(tenant);
    if (quota.max_running <= 0) return false;
    const auto it = committed.find(tenant);
    return it != committed.end() && it->second >= quota.max_running;
  };
  // Slot-aware dispatch. Stride order alone equalises long-run dispatch
  // COUNTS, but fairness here is about concurrently-held slots: when a
  // task completes, stride routinely hands the freed slot to a tenant
  // other than the completer, pushing it over its entitlement — which the
  // preemption sweep then undoes with a checkpoint migration. That is a
  // migration per rebalance at steady state. Vetoing an over-entitlement
  // tenant while an under-entitlement tenant has queued work keeps slot
  // counts converged by construction, demoting preemption to the
  // carve-out backstop it is meant to be. With no under-cap competitor
  // queued the veto lifts entirely: dispatch stays work-conserving.
  const int capacity = committed_total + free_hints;
  auto under_cap = [&](const std::string& tenant) {
    const auto it = committed.find(tenant);
    const int current = it == committed.end() ? 0 : it->second;
    return static_cast<double>(current + 1) <=
           tenant_registry_.entitled_slots(tenant, capacity, committed);
  };
  auto sched_blocked = [&](const std::string& tenant) {
    if (blocked(tenant)) return true;  // hard running quota
    if (under_cap(tenant)) return false;
    for (const auto& [name, head] : queue_.queued_heads()) {
      if (name == tenant || blocked(name)) continue;
      if (under_cap(name)) return true;  // competitor waits under cap
    }
    return false;  // nobody under cap wants the slot: work-conserving
  };
  for (int i = 0; i < budget && !queue_.empty(); ++i) {
    const auto popped = queue_.pop(sched_blocked);
    if (!popped) break;  // everything left is quota-blocked
    TaskRecord& task = tasks_.at(*popped);
    assert(task.state == TaskState::kPending);
    // Charge at dispatch so later pops in this same pass already see the
    // advanced pass value — a big backlog interleaves instead of bursting.
    queue_.account_dispatch(task.tenant, task.desc.work);
    metrics_.counter("sched_dispatched").add();
    ++committed[task.tenant];  // the wave now holds this slot
    begin_wave(task);
  }
  // Preemption is a pass-level policy decision, not a wave-failure
  // fallback: a hint that one node looks free must not hide that a
  // queued tenant is still far below its entitlement while an incumbent
  // hoards the rest of the grid. Sweep each queue head; maybe_preempt
  // enforces the under-/over-share and in-flight-cap checks.
  if (sched_.preemption) {
    for (const auto& [tenant, head] : queue_.queued_heads()) {
      (void)maybe_preempt(tasks_.at(head));
    }
  }
}

std::string Grm::build_constraint(const TaskRecord& task) const {
  const AppRecord& app = apps_.at(task.app);
  std::string expr = "shareable == true and exportable_cpu > 0";
  if (task.desc.ram_needed > 0) {
    expr += " and free_ram_mb >= " + std::to_string(task.desc.ram_needed / kMiB);
  }
  if (!task.desc.binary_platform.empty()) {
    expr += " and '" + task.desc.binary_platform + "' in platforms";
  }
  if (task.topology_segment >= 0) {
    expr += " and segment == " + std::to_string(task.topology_segment);
  }
  if (!app.spec.requirements.constraint.empty()) {
    expr += " and (" + app.spec.requirements.constraint + ")";
  }
  return expr;
}

std::vector<const Grm::NodeRecord*> Grm::candidates_for(const TaskRecord& task) {
  const AppRecord& app = apps_.at(task.app);

  const std::string& pref_src = app.spec.requirements.preference.empty()
                                    ? options_.default_preference
                                    : app.spec.requirements.preference;

  // With forecasting on, pull a deep candidate list: the safe-but-ordinary
  // machines the forecast favours would otherwise be truncated away by the
  // trader preference (e.g. "max exportable_mips") before re-ranking.
  const std::size_t pool_depth =
      kMaxCandidatesPerWave * (options_.use_forecast && gupa_ != nullptr ? 16 : 3);
  // The string query path memoizes compiled expressions in the Trader's LRU,
  // so repeat waves of the same task shape skip the parse entirely.
  obs::Tracer* tr = orb_.tracer();
  obs::Tracer::ActiveSpan qspan;
  if (tr != nullptr && tr->enabled()) {
    qspan = tr->start(protocol::kSpanTraderQuery,
                      task.span.valid() ? task.span.context()
                                        : orb_.current_trace(),
                      engine_.now());
    qspan.app = task.app.value;
    qspan.task = task.desc.id.value;
  }
  // Wall-clock query latency: exported through the metrics hub only, never
  // fed back into the simulation, so it cannot perturb reproducibility.
  const auto wall_begin = std::chrono::steady_clock::now();
  auto query = trader_.query(protocol::kNodeServiceType, build_constraint(task),
                             pref_src, pool_depth, &rng_);
  metrics_.summary("trader_query_us")
      .observe(std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - wall_begin)
                   .count());
  if (tr != nullptr && qspan.valid()) {
    tr->finish(qspan, engine_.now(),
               query.is_ok()
                   ? std::to_string(query.value().size()) + " offers"
                   : "query error");
  }
  if (!query.is_ok()) return {};  // validated at submit; belt and braces
  // Each offer names its node in its node_id slot, whose record holds the
  // status the offer's values were written from (offers and records are
  // one-to-one).
  std::vector<const NodeRecord*> candidates;
  candidates.reserve(query.value().size());
  for (const services::ServiceOffer* offer : query.value()) {
    const auto node = NodeId(static_cast<std::uint64_t>(
        offer->slot(protocol::kSlotNodeId)->as_int()));
    candidates.push_back(&nodes_.at(node));
  }

  if (options_.use_forecast && gupa_ != nullptr && !candidates.empty()) {
    // Re-rank by the probability the node stays idle long enough. The
    // forecast is quantized into coarse bins so the trader preference still
    // breaks ties among comparable candidates.
    struct Scored {
      const NodeRecord* record;
      int bin;
      std::size_t pos;
    };
    std::vector<Scored> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const protocol::NodeStatus& status = candidates[i]->status;
      double p = 0.5;  // unknown node: neutral prior
      if (status.dedicated) {
        p = 1.0;
      } else {
        protocol::ForecastRequest request;
        request.node = status.node;
        request.at = engine_.now();
        request.horizon = app.spec.estimated_duration > 0
                              ? app.spec.estimated_duration
                              : from_seconds(task.desc.work /
                                             std::max(1.0, status.cpu_mips));
        const auto forecast = gupa_->forecast(request);
        if (forecast.known) p = forecast.p_idle_through;
        metrics_.counter("forecast_queries").add();
      }
      scored.push_back({candidates[i], static_cast<int>(p * 10.0), i});
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored& a, const Scored& b) {
                       if (a.bin != b.bin) return a.bin > b.bin;
                       return a.pos < b.pos;
                     });
    for (std::size_t i = 0; i < scored.size(); ++i) {
      candidates[i] = scored[i].record;
    }
  }

  // Deprioritize nodes another wave is already negotiating with: without
  // this, every concurrent wave snapshots the same ranking and stampedes
  // the top candidate, manufacturing refusals the protocol then has to
  // grind through.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](const NodeRecord* a, const NodeRecord* b) {
                     auto load = [this](const NodeRecord* r) {
                       auto it = inflight_.find(r->status.node);
                       return it == inflight_.end() ? 0 : it->second;
                     };
                     return load(a) < load(b);
                   });

  if (candidates.size() > kMaxCandidatesPerWave) {
    candidates.resize(kMaxCandidatesPerWave);
  }
  return candidates;
}

void Grm::begin_wave(TaskRecord& task) {
  const std::vector<const NodeRecord*> candidates = candidates_for(task);
  if (candidates.empty()) {
    if (sched_.preemption && maybe_preempt(task)) {
      // A victim is checkpointing out without counting as a fruitless
      // wave: its eviction report credits the freed node and kicks the
      // pass that gives this task the slot.
      requeue(task);
      return;
    }
    ++task.waves;
    metrics_.counter("waves_no_candidates").add();
    if (task.waves >= kForwardAfterWaves &&
        (parent_.valid() || !children_.empty())) {
      forward_remote(task);
    } else {
      requeue(task);
    }
    return;
  }

  auto wave = std::make_shared<Wave>();
  wave->task = task.desc.id;
  wave->candidates.reserve(candidates.size());
  for (const NodeRecord* record : candidates) {
    wave->candidates.push_back(Placement{record->status.node, record->status.lrm});
  }
  transition(task, TaskState::kNegotiating);
  continue_wave(wave);
}

void Grm::continue_wave(const std::shared_ptr<Wave>& wave) {
  if (!started_ || orb_.is_shutdown()) return;
  auto it = tasks_.find(wave->task);
  if (it == tasks_.end() || it->second.state != TaskState::kNegotiating) return;

  if (wave->index >= wave->candidates.size()) {
    wave_failed(wave);
    return;
  }
  const Placement candidate = wave->candidates[wave->index++];

  protocol::ReservationRequest reserve;
  reserve.id = ReservationId(next_reservation_++);
  reserve.task = wave->task;
  reserve.cpu_fraction = kCpuRequest;
  reserve.ram = it->second.desc.ram_needed;
  reserve.hold = kReservationHold;
  if (sched_.enabled) {
    // The bid rides the reservation so node owners can screen it (NCC
    // bid_filter). Deadline travels as time remaining: absolute sim times
    // mean nothing to the provider.
    reserve.tenant = it->second.tenant;
    reserve.bid_budget = apps_.at(it->second.app).spec.bid_budget;
    if (it->second.deadline > engine_.now()) {
      reserve.bid_deadline = it->second.deadline - engine_.now();
    }
  }

  metrics_.counter("negotiation_rounds").add();
  ++inflight_[candidate.node];

  // "grm.reserve" span, parented on the task's lifetime span; the TraceScope
  // stamps its context into the outgoing request so the LRM's "lrm.reserve"
  // span links under it.
  obs::Tracer* tr = orb_.tracer();
  obs::Tracer::ActiveSpan rspan;
  if (tr != nullptr && tr->enabled()) {
    rspan = tr->start(protocol::kSpanGrmReserve, it->second.span.context(), engine_.now());
    rspan.task = wave->task.value;
    rspan.node = candidate.node.value;
  }
  orb::TraceScope trace_scope(orb_, rspan.context());
  orb::call<protocol::ReservationRequest, protocol::ReservationReply>(
      orb_, candidate.lrm, "reserve", reserve,
      [this, wave, candidate, rspan](Result<protocol::ReservationReply> reply) {
        if (--inflight_[candidate.node] <= 0) inflight_.erase(candidate.node);
        obs::Tracer* tr = orb_.tracer();
        if (!reply.is_ok()) {
          if (tr != nullptr) tr->finish(rspan, engine_.now(), "timeout");
          metrics_.counter("negotiation_timeouts").add();
          continue_wave(wave);
          return;
        }
        if (tr != nullptr) {
          tr->finish(rspan, engine_.now(),
                     reply.value().granted ? "granted" : "refused");
        }
        if (!reply.value().granted) {
          metrics_.counter("reservations_refused_remote").add();
          // Piggy-backed truth corrects our stale hint immediately.
          auto node_it = nodes_.find(candidate.node);
          if (node_it != nodes_.end()) {
            node_it->second.status.exportable_cpu = reply.value().exportable_cpu;
            node_it->second.status.free_ram = reply.value().free_ram;
            node_it->second.status.shareable =
                reply.value().exportable_cpu >= protocol::kMinUsefulCpu;
            refresh_load(node_it->second);
          }
          continue_wave(wave);
          return;
        }

        auto task_it = tasks_.find(wave->task);
        if (task_it == tasks_.end() ||
            task_it->second.state != TaskState::kNegotiating) {
          return;  // task vanished (app cancelled) — reservation will expire
        }
        protocol::ExecuteRequest execute;
        execute.reservation = reply.value().id;
        execute.task = task_it->second.desc;
        execute.report_to = self_ref_;
        execute.restore_state = restore_state_for(task_it->second);
        // Preempted task: tell the new node which peers hold its final
        // checkpoint chunks so the restore starts from warm stores.
        execute.ckpt_peers = task_it->second.ckpt_peers;

        obs::Tracer::ActiveSpan espan;
        if (tr != nullptr && tr->enabled()) {
          espan = tr->start(protocol::kSpanGrmExecute, task_it->second.span.context(),
                            engine_.now());
          espan.task = wave->task.value;
          espan.node = candidate.node.value;
        }
        orb::TraceScope trace_scope(orb_, espan.context());
        orb::call<protocol::ExecuteRequest, protocol::ExecuteReply>(
            orb_, candidate.lrm, "execute", execute,
            [this, wave, candidate,
             espan](Result<protocol::ExecuteReply> exec_reply) {
              const bool ok =
                  exec_reply.is_ok() && exec_reply.value().accepted;
              if (obs::Tracer* tr = orb_.tracer(); tr != nullptr) {
                tr->finish(espan, engine_.now(), ok ? "accepted" : "failed");
              }
              if (!ok) {
                metrics_.counter("executes_failed").add();
                continue_wave(wave);
                return;
              }
              task_placed(wave->task, candidate);
            },
            kCallTimeout);
      },
      kCallTimeout);
}

void Grm::wave_failed(const std::shared_ptr<Wave>& wave) {
  auto it = tasks_.find(wave->task);
  if (it == tasks_.end()) return;
  TaskRecord& task = it->second;
  ++task.waves;
  metrics_.counter("waves_exhausted").add();
  if (task.waves >= kForwardAfterWaves &&
      (parent_.valid() || !children_.empty())) {
    forward_remote(task);
  } else {
    requeue(task);
  }
}

void Grm::task_placed(TaskId id, const Placement& placement) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  TaskRecord& task = it->second;
  if (task.state != TaskState::kNegotiating) {
    // The task moved on while the Execute reply was in flight (e.g. its
    // node was declared dead and the task requeued, or a duplicate reply
    // slipped past the ORB window). Don't double-place: tell the node to
    // drop its copy.
    metrics_.counter("placements_discarded").add();
    if (placement.lrm.valid()) {
      orb::oneway(orb_, placement.lrm, "cancel", protocol::CancelTask{id});
    }
    return;
  }
  transition(task, TaskState::kRunning, placement);
  metrics_.counter("tasks_placed").add();
  // Nothing else runs a pass between a placement and the next completion:
  // without this kick a saturated leaf would never probe, so never forward.
  if (!queue_.empty()) kick_scheduler();

  AppRecord& app = apps_.at(task.app);
  notify(app, AppEventKind::kTaskScheduled, id, placement.node, "");

  if (app.spec.kind == AppKind::kBsp) {
    auto rank_running = [this](const protocol::TaskDescriptor& rank) {
      const auto rank_it = tasks_.find(rank.id);
      return rank_it != tasks_.end() &&
             rank_it->second.state == TaskState::kRunning;
    };
    if (!app.bsp_ready_fired &&
        std::all_of(app.spec.tasks.begin(), app.spec.tasks.end(),
                    rank_running)) {
      app.bsp_ready_fired = true;
      if (bsp_ready_) bsp_ready_(app.spec.id);
    } else if (app.bsp_ready_fired && bsp_placed_) {
      bsp_placed_(app.spec.id, task.desc.bsp_rank, placement);
    }
  }
}

void Grm::requeue(TaskRecord& task) {
  transition(task, TaskState::kPending);
  kick_scheduler(1 * kSecond);
}

void Grm::transition(TaskRecord& task, TaskState to, const Placement& at) {
  const TaskId id = task.desc.id;
  const TaskState from = task.state;
  if (from == TaskState::kRunning) {
    preempting_.erase(id);
    // Inverse of the debit below: the slot is free NOW, not at the node's
    // next load, which would hide it from the trader and the pass budget
    // until then. The hint may overshoot (an owner may have returned); a
    // refused reservation and the next load true it up.
    if (auto node = nodes_.find(task.placement.node); node != nodes_.end()) {
      protocol::NodeStatus& hint = node->second.status;
      hint.exportable_cpu += kCpuRequest;
      hint.running_tasks = std::max(0, hint.running_tasks - 1);
      hint.shareable = true;
      refresh_load(node->second);
    }
  }
  if (from == TaskState::kRemote) {
    task.remote_timeout.cancel();
    task.remote_deadline = 0;
  }
  task.state = to;
  // push() is a no-op for a queued task; a task the pass just popped joins
  // again at the back.
  if (to == TaskState::kPending) {
    queue_.push(id, task.tenant, task.deadline);
  } else if (from == TaskState::kPending) {
    queue_.erase(id);
  }
  if (to == TaskState::kRunning) {
    task.placement = at;
    task.waves = 0;
    // Keep the GRM's own hint honest: that node now has less capacity.
    if (auto node = nodes_.find(at.node); node != nodes_.end()) {
      protocol::NodeStatus& hint = node->second.status;
      hint.exportable_cpu = std::max(0.0, hint.exportable_cpu - kCpuRequest);
      hint.shareable =
          hint.shareable && hint.exportable_cpu >= protocol::kMinUsefulCpu;
      hint.running_tasks += 1;
      refresh_load(node->second);
    }
  }
}

bool Grm::maybe_preempt(const TaskRecord& requester) {
  if (static_cast<int>(preempting_.size()) >= sched_.max_preemptions_per_wave) {
    return false;
  }
  // Slot count includes waves still negotiating: the sweep runs from passes
  // kicked by completion/eviction reports, which is precisely when running
  // counts have transiently dipped and the replacement dispatches are not
  // yet accepted. Judging entitlements against that dip systematically
  // under-counts capacity at every decision point and stalls the carve.
  sched::TenantCounts running;
  int slots = 0;
  for (const auto& [_, task] : tasks_) {
    if (task.state == TaskState::kRunning) {
      ++running[task.tenant];
    } else if (task.state != TaskState::kNegotiating) {
      continue;
    }
    ++slots;
  }
  if (slots <= 0) return false;
  auto running_of = [&running](const std::string& tenant) {
    const auto it = running.find(tenant);
    return it == running.end() ? 0 : it->second;
  };
  // Hysteresis keeps preemption convergent instead of oscillating. A naive
  // "requester below entitlement, victim above" rule ping-pongs forever at
  // fractional entitlements: evicting the victim pushes the requester just
  // past its share, the ex-victim's queued task becomes the new requester,
  // and the grid churns checkpoints at steady state doing no useful work.
  // Both sides are therefore judged POST-move: the requester must still be
  // at or under its entitlement after gaining a slot, the victim still at
  // or over after losing one. Then neither side can immediately qualify
  // for the reverse move, so every migration strictly shrinks the fairness
  // gap.
  if (static_cast<double>(running_of(requester.tenant) + 1) >
      tenant_registry_.entitled_slots(requester.tenant, slots, running)) {
    return false;
  }
  // In-flight preemptions have not hit the running counts yet; charge them
  // to their victim tenants so concurrent waves cannot overshoot one
  // tenant.
  std::map<std::string, int> inflight;
  for (const TaskId id : preempting_) ++inflight[tasks_.at(id).tenant];
  // Deterministic victim pick: among running sequential tasks of over-share
  // tenants (other than the requester's), lowest (tenant name, task id).
  const TaskRecord* victim = nullptr;
  for (const auto& [id, task] : tasks_) {
    if (task.state != TaskState::kRunning) continue;
    if (task.tenant == requester.tenant) continue;
    if (task.desc.kind == AppKind::kBsp) continue;  // residents migrate via BSP
    if (preempting_.contains(id)) continue;
    // Count the requester as active even with zero running tasks: its
    // queued demand is what dilutes the incumbents' shares. Without this a
    // tenant monopolizing the grid is always exactly at-entitlement and no
    // preemption can ever fire.
    const auto inflight_it = inflight.find(task.tenant);
    const int effective_running =
        running_of(task.tenant) -
        (inflight_it == inflight.end() ? 0 : inflight_it->second);
    if (static_cast<double>(effective_running - 1) <
        tenant_registry_.entitled_slots(task.tenant, slots, running,
                                        requester.tenant)) {
      continue;
    }
    if (victim == nullptr || task.tenant < victim->tenant ||
        (task.tenant == victim->tenant && id < victim->desc.id)) {
      victim = &task;
    }
  }
  if (victim == nullptr || !victim->placement.lrm.valid()) return false;

  protocol::PreemptRequest preempt;
  preempt.task = victim->desc.id;
  preempt.peers = pick_ckpt_peers(victim->placement.node);
  // Remember where the final image will land: the successor Execute carries
  // these peers so the new node restores warm.
  tasks_.at(victim->desc.id).ckpt_peers = preempt.peers;
  preempting_.insert(victim->desc.id);
  metrics_.counter("sched_preemptions").add();
  orb::oneway(orb_, victim->placement.lrm, "preempt", preempt);
  return true;
}

std::vector<orb::ObjectRef> Grm::pick_ckpt_peers(NodeId exclude) const {
  // A couple of warm stores besides the repository is plenty: the restore
  // path falls back to the repository for anything a peer is missing.
  constexpr std::size_t kPreemptPeers = 2;
  std::vector<orb::ObjectRef> peers;
  for (const auto& [node, agent] : ckpt_agents_) {
    if (node == exclude || !agent.valid()) continue;
    peers.push_back(agent);
    if (peers.size() >= kPreemptPeers) break;
  }
  return peers;
}

std::vector<std::uint8_t> Grm::restore_state_for(const TaskRecord& task) const {
  if (checkpoints_ == nullptr || task.desc.kind == AppKind::kBsp) return {};
  const auto* checkpoint =
      checkpoints_->latest(task.app, std::max(0, task.desc.bsp_rank));
  if (checkpoint == nullptr) return {};
  return checkpoint->state;
}

// ---------------------------------------------------------------------------
// Execution reports
// ---------------------------------------------------------------------------

void Grm::handle_report(const protocol::TaskReport& report) {
  auto it = tasks_.find(report.task);
  if (it == tasks_.end()) return;
  TaskRecord& task = it->second;
  AppRecord& app = apps_.at(task.app);

  // "grm.report" span: child of the LRM's "lrm.run" span (carried on the
  // report request), so completion causality is visible in the trace tree.
  obs::Tracer* tr = orb_.tracer();
  obs::Tracer::ActiveSpan report_span;
  if (tr != nullptr && tr->enabled()) {
    report_span = tr->start(protocol::kSpanGrmReport, orb_.current_trace(), engine_.now());
    report_span.app = task.app.value;
    report_span.task = report.task.value;
    report_span.node = report.node.value;
    tr->finish(report_span, engine_.now(),
               protocol::task_outcome_name(report.outcome));
  }

  switch (report.outcome) {
    case TaskOutcome::kCompleted: {
      if (task.state == TaskState::kCompleted) {
        // Duplicate completion: the node was declared dead (and the task
        // replayed elsewhere) or the report frame was duplicated. The app's
        // accounting already saw this task finish exactly once.
        metrics_.counter("duplicate_reports_ignored").add();
        break;
      }
      if (task.state == TaskState::kRunning &&
          task.placement.node != report.node && task.placement.lrm.valid()) {
        // Another copy finished first (e.g. on a node the stale sweep gave
        // up on): the one at the placement has nothing left to do.
        orb::oneway(orb_, task.placement.lrm, "cancel",
                    protocol::CancelTask{report.task});
      }
      transition(task, TaskState::kCompleted);
      --app.outstanding;
      if (task.deadline > 0) {
        metrics_.counter(engine_.now() <= task.deadline
                             ? "sched_deadline_hits"
                             : "sched_deadline_misses")
            .add();
      }
      // A finished task frees a slot a queued (or quota-blocked) task may
      // be waiting on.
      if (!queue_.empty()) kick_scheduler();
      if (tr != nullptr && task.span.valid()) {
        // Close the lifetime span: its duration is the task's
        // submission→completion latency (E13's gated quantity).
        tr->finish(task.span, engine_.now(), "completed");
        task.span = {};
      }
      metrics_.counter("tasks_completed").add();
      notify(app, AppEventKind::kTaskCompleted, report.task, report.node, "");
      if (app.adopted_remote && app.origin.valid()) {
        // Relay to the origin cluster, which owns the app's lifecycle.
        orb::reliable_oneway(orb_, app.origin, "report", report);
      }
      maybe_app_done(task.app);
      break;
    }
    case TaskOutcome::kEvicted:
    case TaskOutcome::kNodeFailed: {
      if (task.state != TaskState::kRunning ||
          task.placement.node != report.node) {
        // Stale: the task is not (or no longer) running on the reporter —
        // e.g. the dead-node sweep already reclaimed it, or this is a
        // duplicated frame. Acting on it would requeue the task twice.
        metrics_.counter("stale_reports_ignored").add();
        break;
      }
      lose_running_task(task, report.node,
                        report.outcome == TaskOutcome::kEvicted
                            ? "tasks_evicted"
                            : "tasks_node_failed",
                        report.detail);
      break;
    }
    case TaskOutcome::kCancelled:
      break;  // we initiated it; bookkeeping already done
  }
}

void Grm::notify(const AppRecord& app, AppEventKind kind, TaskId task,
                 NodeId node, const std::string& detail) {
  if (!app.spec.notify.valid()) return;
  protocol::AppEvent event;
  event.app = app.spec.id;
  event.task = task;
  event.kind = kind;
  event.node = node;
  event.at = engine_.now();
  event.detail = detail;
  orb::reliable_oneway(orb_, app.spec.notify, "app_event", event);
}

void Grm::maybe_app_done(AppId app_id) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  AppRecord& app = it->second;
  if (app.outstanding > 0) return;
  // Remote fragments stay silent: the origin cluster owns the app-level
  // completion event.
  if (!app.adopted_remote) {
    notify(app, AppEventKind::kAppCompleted, TaskId(), NodeId(), "");
  }
  metrics_.counter("apps_completed").add();
  drop_checkpoints(app_id);
}

void Grm::drop_checkpoints(AppId app_id) {
  if (checkpoints_ != nullptr) checkpoints_->drop_app(app_id);
  for (const auto& [node, agent] : ckpt_agents_) {
    orb::oneway(orb_, agent, "ckpt_drop", protocol::CkptDrop{app_id});
  }
}

void Grm::handle_cancel_app(AppId app_id) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  metrics_.counter("apps_cancelled").add();
  // Erase the task records outright — historically they lingered as kFailed
  // tombstones carrying live retry/remote-timeout state, so resubmitting
  // the same task ids silently no-op'd the emplace and the "new" tasks
  // inherited a dead app's retry schedule (or never ran at all).
  for (auto task_it = tasks_.begin(); task_it != tasks_.end();) {
    TaskRecord& task = task_it->second;
    if (task.app != app_id) {
      ++task_it;
      continue;
    }
    if (task.state == TaskState::kRunning && task.placement.lrm.valid()) {
      orb::oneway(orb_, task.placement.lrm, "cancel",
                  protocol::CancelTask{task_it->first});
    }
    transition(task, TaskState::kFailed);
    task_it = tasks_.erase(task_it);
  }
  if (it->second.spec.kind == AppKind::kBsp && bsp_cancelled_) {
    bsp_cancelled_(app_id);
  } else {
    drop_checkpoints(app_id);
  }
  notify(it->second, AppEventKind::kAppFailed, TaskId(), NodeId(),
         "cancelled by user");
  apps_.erase(it);
}

// ---------------------------------------------------------------------------
// BSP integration
// ---------------------------------------------------------------------------

void Grm::set_bsp_handlers(BspReadyHandler ready, BspRankPlacedHandler placed,
                           BspRankLostHandler lost,
                           BspCancelledHandler cancelled) {
  bsp_ready_ = std::move(ready);
  bsp_placed_ = std::move(placed);
  bsp_lost_ = std::move(lost);
  bsp_cancelled_ = std::move(cancelled);
}

const Grm::Placement* Grm::placement_of(TaskId task) const {
  auto it = tasks_.find(task);
  if (it == tasks_.end() || it->second.state != TaskState::kRunning) {
    return nullptr;
  }
  return &it->second.placement;
}

void Grm::complete_bsp_app(AppId app_id) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  AppRecord& app = it->second;
  for (auto& [task_id, task] : tasks_) {
    if (task.app != app_id) continue;
    if (task.state == TaskState::kRunning && task.placement.lrm.valid()) {
      orb::oneway(orb_, task.placement.lrm, "cancel",
                  protocol::CancelTask{task_id});
    }
    transition(task, TaskState::kCompleted);
  }
  app.outstanding = 0;
  notify(app, AppEventKind::kAppCompleted, TaskId(), NodeId(), "");
  metrics_.counter("apps_completed").add();
}

// ---------------------------------------------------------------------------
// Inter-cluster hierarchy
// ---------------------------------------------------------------------------

protocol::ClusterSummary Grm::build_summary() const {
  protocol::ClusterSummary summary;
  summary.cluster = cluster_;
  summary.grm = self_ref_;
  summary.total_nodes = static_cast<std::int32_t>(nodes_.size());
  std::set<std::string> platforms;
  for (const auto& [_, record] : nodes_) {
    if (record.status.shareable) {
      ++summary.shareable_nodes;
      summary.total_exportable_mips +=
          record.status.exportable_cpu * record.status.cpu_mips;
      summary.max_free_ram_mb =
          std::max(summary.max_free_ram_mb, record.status.free_ram / kMiB);
    }
    platforms.insert(record.status.platforms.begin(),
                     record.status.platforms.end());
  }
  summary.platforms.assign(platforms.begin(), platforms.end());
  summary.timestamp = engine_.now();
  return summary;
}

void Grm::push_summary() {
  if (!parent_.valid()) return;
  orb::oneway(orb_, parent_, kOpClusterSummary, build_summary());
}

void Grm::handle_cluster_summary(const protocol::ClusterSummary& summary) {
  child_summaries_[summary.cluster] = summary;
}

void Grm::forward_remote(TaskRecord& task) {
  const AppRecord& app = apps_.at(task.app);

  protocol::RemoteSubmit remote;
  remote.spec = app.spec;
  remote.spec.tasks = {task.desc};
  remote.spec.topology = {};  // topology is a local-cluster concept
  remote.ttl = 8;
  remote.visited_clusters = {cluster_.value};
  remote.origin_grm = self_ref_;

  // Next hop: a child with advertised capacity, else the parent.
  orb::ObjectRef hop;
  for (const auto& [_, summary] : child_summaries_) {
    if (summary.shareable_nodes > 0) {
      hop = summary.grm;
      break;
    }
  }
  if (!hop.valid()) hop = parent_;
  if (!hop.valid()) {
    requeue(task);
    return;
  }

  transition(task, TaskState::kRemote);
  metrics_.counter("remote_forwards").add();
  {
    // Keep the remote hop inside the task's trace.
    orb::TraceScope trace_scope(orb_, task.span.context());
    orb::oneway(orb_, hop, kOpRemoteSubmit, remote);
  }

  // If nobody adopts in time, reclaim the task locally.
  task.remote_deadline = engine_.now() + 60 * kSecond;
  arm_remote_timeout(task);
  // Like a requeue, a forward is the end of a fruitless wave: the rest of a
  // saturated leaf's queue keeps probing instead of waiting for the next
  // completion.
  if (!queue_.empty()) kick_scheduler(1 * kSecond);
}

void Grm::arm_remote_timeout(TaskRecord& task) {
  const TaskId id = task.desc.id;
  const SimDuration delay =
      task.remote_deadline > engine_.now() ? task.remote_deadline - engine_.now()
                                           : 0;
  task.remote_timeout = engine_.schedule_after(delay, [this, id] {
    auto it = tasks_.find(id);
    if (it == tasks_.end() || it->second.state != TaskState::kRemote) return;
    metrics_.counter("remote_timeouts").add();
    it->second.waves = 0;  // start the local/remote cycle over
    requeue(it->second);
  });
}

void Grm::handle_remote_submit(const protocol::RemoteSubmit& request) {
  metrics_.counter("remote_submits_seen").add();
  if (request.ttl <= 0) return;
  if (std::find(request.visited_clusters.begin(), request.visited_clusters.end(),
                cluster_.value) != request.visited_clusters.end()) {
    return;  // cycle — drop; origin timeout recovers
  }
  if (request.spec.tasks.size() != 1 ||
      protocol::task_refusal(request.spec.tasks.front()) != nullptr) {
    return;
  }

  // Can we host it? Probe the trader with the same constraint the local
  // scheduler would use. A second task of an app we already adopted simply
  // extends the existing fragment.
  TaskRecord probe;
  probe.desc = request.spec.tasks.front();
  probe.app = request.spec.id;
  bool can_host = false;
  auto app_it = apps_.find(request.spec.id);
  if (app_it == apps_.end()) {
    AppRecord app;
    app.spec = request.spec;
    // Lifecycle reporting for an adopted fragment flows through the origin
    // GRM (which owns the app and its ASCT notifications), so the local
    // fragment never notifies the user directly.
    app.spec.notify = orb::ObjectRef{};
    app.adopted_remote = true;
    app.origin = request.origin_grm;
    app.outstanding = 1;
    apps_.emplace(request.spec.id, std::move(app));
    can_host = !candidates_for(probe).empty();
    if (!can_host) apps_.erase(request.spec.id);
  } else if (app_it->second.adopted_remote &&
             !tasks_.contains(probe.desc.id)) {
    can_host = !candidates_for(probe).empty();
    if (can_host) ++app_it->second.outstanding;
  }

  if (can_host) {
    TaskRecord task;
    task.desc = request.spec.tasks.front();
    task.app = request.spec.id;
    if (sched_.enabled) {
      // The bid crossed the cluster boundary on the RemoteSubmit frame;
      // adopted fragments compete under the same economy as local work.
      task.tenant = request.spec.tenant;
      if (request.spec.bid_deadline > 0) {
        task.deadline = engine_.now() + request.spec.bid_deadline;
      }
    }
    const TaskId id = task.desc.id;
    if (obs::Tracer* tr = orb_.tracer(); tr != nullptr && tr->enabled()) {
      // Adopted fragment: parent the local lifetime span on the origin
      // cluster's task context carried in the remote_submit request.
      task.span = tr->start(protocol::kSpanGrmTask, orb_.current_trace(),
                            engine_.now());
      task.span.app = request.spec.id.value;
      task.span.task = id.value;
    }
    transition(tasks_.emplace(id, std::move(task)).first->second,
               TaskState::kPending);  // joins the queue
    kick_scheduler();
    metrics_.counter("remote_adoptions").add();

    protocol::RemoteAdopted ack;
    ack.app = request.spec.id;
    ack.task = id;
    ack.by_cluster = cluster_;
    ack.hops = static_cast<std::int32_t>(request.visited_clusters.size());
    orb::oneway(orb_, request.origin_grm, kOpRemoteAdopted, ack);
    return;
  }

  // Forward along: unvisited child with capacity first, then parent.
  protocol::RemoteSubmit next = request;
  next.ttl -= 1;
  next.visited_clusters.push_back(cluster_.value);

  orb::ObjectRef hop;
  for (const auto& [id, summary] : child_summaries_) {
    if (summary.shareable_nodes <= 0) continue;
    if (std::find(next.visited_clusters.begin(), next.visited_clusters.end(),
                  id.value) != next.visited_clusters.end()) {
      continue;
    }
    hop = summary.grm;
    break;
  }
  if (!hop.valid() && parent_.valid()) hop = parent_;
  if (!hop.valid()) return;
  metrics_.counter("remote_forwards").add();
  orb::oneway(orb_, hop, kOpRemoteSubmit, next);
}

void Grm::handle_remote_adopted(const protocol::RemoteAdopted& ack) {
  auto it = tasks_.find(ack.task);
  if (it == tasks_.end() || it->second.state != TaskState::kRemote) return;
  it->second.remote_timeout.cancel();
  it->second.remote_deadline = 0;
  metrics_.counter("remote_delegations").add();
  metrics_.summary("remote_hops").observe(static_cast<double>(ack.hops));
  // The adopting cluster executes the task but this GRM keeps ownership:
  // the adopter relays the final TaskReport here, and only that report
  // decrements the app's outstanding count.
}

// ---------------------------------------------------------------------------
// Control-plane snapshots (docs/snapshots.md)
// ---------------------------------------------------------------------------

struct Grm::Image {
  std::uint64_t next_reservation = 1;
  Rng::State rng;
  std::vector<NodeRecord> nodes;  // in the order their offers were exported
  std::vector<AppRecord> apps;    // app-ascending
  std::vector<TaskRecord> tasks;  // task-ascending
  sched::QueueImage queue;
  std::vector<protocol::ClusterSummary> child_summaries;  // cluster-ascending

  friend constexpr auto wire_fields(const Image*) {
    using S = Image;
    return cdr::fields(&S::next_reservation, &S::rng, &S::nodes, &S::apps,
                       &S::tasks, &S::queue, &S::child_summaries);
  }
};

void Grm::save(cdr::Writer& w) const {
  Image image;
  image.next_reservation = next_reservation_;
  image.rng = rng_.state();
  // nodes_ is hash-keyed. Export order is the Trader's own order, so a
  // load that re-exports in this order ranks and breaks ties as this GRM.
  image.nodes.reserve(nodes_.size());
  for (const auto& [_, record] : nodes_) image.nodes.push_back(record);
  std::sort(image.nodes.begin(), image.nodes.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return a.offer < b.offer;
            });
  for (const auto& [_, app] : apps_) image.apps.push_back(app);
  for (const auto& [_, task] : tasks_) image.tasks.push_back(task);
  image.queue = queue_.save();
  for (const auto& [_, summary] : child_summaries_) {
    image.child_summaries.push_back(summary);
  }
  cdr::Codec<Image>::encode(w, image);
}

Status Grm::load(std::uint32_t version, cdr::Reader& r) {
  Result<Loaded> loaded = decode_snapshot(version, r);
  if (!loaded.is_ok()) return loaded.status();
  commit_snapshot(std::move(loaded).value());
  return Status::ok();
}

Result<Grm::Loaded> Grm::decode_snapshot(std::uint32_t version,
                                         cdr::Reader& r) const {
  if (version != kSnapshotVersion) {
    return Status(ErrorCode::kInvalidArgument,
                  "grm snapshot version " + std::to_string(version) +
                      " unsupported");
  }
  // Decode everything into state of its own: a malformed section must
  // leave the live GRM untouched.
  Image image = cdr::Codec<Image>::decode(r);
  if (!r.exhausted()) return Status(ErrorCode::kInternal, "malformed grm snapshot");
  using snapshot::strictly_ascending;
  if (!strictly_ascending(image.apps,
                          [](const AppRecord& a) { return a.spec.id; }) ||
      !strictly_ascending(image.tasks,
                          [](const TaskRecord& t) { return t.desc.id; }) ||
      !strictly_ascending(image.child_summaries,
                          [](const protocol::ClusterSummary& c) {
                            return c.cluster;
                          })) {
    return Status(ErrorCode::kInternal,
                  "grm snapshot records out of key order or repeated");
  }
  for (const TaskRecord& task : image.tasks) {
    if (task.state > TaskState::kFailed) {
      return Status(ErrorCode::kInternal, "grm snapshot has bad task state");
    }
    if (const char* refusal = protocol::task_refusal(task.desc)) {
      return Status(ErrorCode::kInternal, "grm snapshot task " +
                                              to_string(task.desc.id) + ": " +
                                              refusal);
    }
  }
  Loaded out;
  out.next_reservation = image.next_reservation;
  out.rng = image.rng;
  sched::FairQueue& queue = out.queue;
  queue.configure(sched_);
  if (Status status = queue.load(image.queue); !status.is_ok()) return status;

  // Records arrive in export order, so re-exporting them in that order
  // gives the offers the primary's relative order: every query ranks,
  // breaks ties and shuffles as it did there.
  std::unordered_map<NodeId, NodeRecord>& nodes = out.nodes;
  services::Trader& trader = out.trader;
  trader.declare_type(protocol::kNodeServiceType, protocol::kNodeSchema);
  for (NodeRecord& record : image.nodes) {
    const NodeId id = record.status.node;
    auto [it, fresh] = nodes.emplace(id, std::move(record));
    if (!fresh) {
      return Status(ErrorCode::kInternal,
                    "grm snapshot repeats node " + to_string(id));
    }
    it->second.offer = trader.export_offer(
        protocol::kNodeServiceType, it->second.status.lrm,
        protocol::to_properties(it->second.status));
  }
  std::map<AppId, AppRecord>& apps = out.apps;
  for (AppRecord& app : image.apps) {
    const AppId id = app.spec.id;
    apps.emplace_hint(apps.end(), id, std::move(app));
  }
  std::map<TaskId, TaskRecord>& tasks = out.tasks;
  std::size_t pending = 0;
  for (TaskRecord& task : image.tasks) {
    const TaskId id = task.desc.id;
    // The first pass that ranks a task looks its app up, and the pass
    // trusts the queue to hold exactly the kPending tasks.
    const bool is_pending = task.state == TaskState::kPending;
    const char* bad = !apps.contains(task.app) ? " belongs to no app record"
                      : queue.contains(id) == is_pending ? nullptr
                      : is_pending ? " is pending but not queued"
                                   : " is queued but not pending";
    if (bad != nullptr) {
      return Status(ErrorCode::kInternal,
                    "grm snapshot task " + to_string(id) + bad);
    }
    if (is_pending) ++pending;
    tasks.emplace_hint(tasks.end(), id, std::move(task));
  }
  if (pending != queue.size()) {
    return Status(ErrorCode::kInternal,
                  "grm snapshot queues a task it has no record of");
  }
  for (protocol::ClusterSummary& summary : image.child_summaries) {
    const ClusterId id = summary.cluster;
    out.child_summaries.emplace_hint(out.child_summaries.end(), id,
                                     std::move(summary));
  }
  return out;
}

void Grm::commit_snapshot(Loaded loaded) {
  // Cancel timers owned by the records being replaced first.
  for (auto& [_, task] : tasks_) task.remote_timeout.cancel();
  next_reservation_ = loaded.next_reservation;
  rng_.set_state(loaded.rng);
  nodes_ = std::move(loaded.nodes);
  trader_ = std::move(loaded.trader);
  apps_ = std::move(loaded.apps);
  tasks_ = std::move(loaded.tasks);
  queue_ = std::move(loaded.queue);
  child_summaries_ = std::move(loaded.child_summaries);
  preempting_.clear();

  // The loaded state stays dormant — no timers armed, no scheduler kick —
  // until recover_in_flight() runs at promotion. A warm standby installs
  // snapshots every period while the primary is still alive; arming timers
  // here would let a remote-adoption timeout fire on the standby and start
  // scheduling tasks the primary still owns.
  restored_dormant_ = true;
}

void Grm::recover_in_flight() {
  restored_dormant_ = false;
  // Negotiation waves and reserve/execute callbacks died with the old
  // primary: every task frozen mid-negotiation goes back to pending so the
  // next scheduler pass (triggered by re-announced heartbeats) retries it.
  inflight_.clear();
  preempting_.clear();
  int recovered = 0;
  for (auto& [id, task] : tasks_) {
    if (task.state == TaskState::kNegotiating) {
      transition(task, TaskState::kPending);
      ++recovered;
      continue;
    }
    // Tasks walking the wide-area hierarchy get their adoption timeout
    // back; an already-expired deadline fires immediately and requeues.
    if (task.state == TaskState::kRemote && task.remote_deadline > 0) {
      arm_remote_timeout(task);
    }
  }
  if (recovered > 0) {
    metrics_.counter("tasks_recovered_from_snapshot").add(recovered);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

TaskState Grm::task_state(TaskId task) const {
  auto it = tasks_.find(task);
  return it == tasks_.end() ? TaskState::kFailed : it->second.state;
}

int Grm::pending_tasks() const {
  int n = 0;
  for (const auto& [_, task] : tasks_) {
    if (task.state == TaskState::kPending ||
        task.state == TaskState::kNegotiating) {
      ++n;
    }
  }
  return n;
}

int Grm::running_tasks() const {
  int n = 0;
  for (const auto& [_, task] : tasks_) {
    if (task.state == TaskState::kRunning) ++n;
  }
  return n;
}

int Grm::running_tasks(const std::string& tenant) const {
  int n = 0;
  for (const auto& [_, task] : tasks_) {
    if (task.state == TaskState::kRunning && task.tenant == tenant) ++n;
  }
  return n;
}

std::optional<protocol::NodeStatus> Grm::node_view(NodeId node) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.status;
}

}  // namespace integrade::grm
