// GRM — Global Resource Manager (paper §4).
//
// One per cluster, running on the Cluster Manager node. Receives a periodic
// NodeLoad (the node's dynamic state) from every LRM, keeps it in the node's
// record, and stores it as a service offer in a Trading service ("the GRM
// uses the Trader to store the information it receives from the LRMs", §5).
// The records are the one copy of node state: the Trader is the query index
// written from them, so a snapshot carries the records and a load rebuilds
// the Trader. A load from a node the GRM does not know — first contact, a
// node the stale sweep withdrew, a standby promoted without a snapshot —
// makes it pull the node's full NodeStatus once (the LRM's get_status) and
// register the offer; every later load rewrites only the offer's dynamic
// properties. Application submissions are matched against those offers
// with the Trader constraint language; the resulting candidate list is only
// a *hint* — the GRM then negotiates directly with each LRM (Reserve ->
// Execute), moving to the next candidate on refusal, exactly as §4
// describes.
//
// Scheduling refinements the paper calls for:
//   * usage-pattern forecasts from the GUPA re-rank candidates by the
//     probability they stay idle long enough for the task;
//   * virtual-topology requests pin task groups to network segments whose
//     measured bandwidth meets the request;
//   * tasks evicted mid-run are re-queued and resume from their latest
//     checkpoint;
//   * when the local cluster has no matching resources, the task walks the
//     cluster hierarchy (RemoteSubmit) until some cluster adopts it.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ckpt/repository.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "lupa/gupa.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "protocol/properties.hpp"
#include "sched/sched.hpp"
#include "services/trader.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace integrade::grm {

struct GrmOptions {
  /// Offers not refreshed within this window are withdrawn (dead LRM).
  SimDuration offer_ttl = 150 * kSecond;
  /// Consult the GUPA when ranking candidates (the E5 ablation switch).
  bool use_forecast = true;
  /// Trader preference applied when the user supplies none.
  std::string default_preference = "max exportable_mips";
};

enum class TaskState : std::uint8_t {
  kPending,      // waiting for a negotiation wave
  kNegotiating,  // wave in flight
  kRunning,      // placed on a node
  kRemote,       // walking the hierarchy / adopted by another cluster
  kCompleted,
  kFailed,
};

class Grm {
 public:
  Grm(sim::Engine& engine, orb::Orb& orb, ClusterId cluster, Rng rng,
      GrmOptions options = {});
  ~Grm();
  Grm(const Grm&) = delete;
  Grm& operator=(const Grm&) = delete;

  /// `gupa` and `checkpoints` are co-located services on the Cluster
  /// Manager node (in-process access, per the paper's architecture);
  /// `network` enables topology-aware placement and bulk-transfer billing.
  void start(lupa::Gupa* gupa, ckpt::CheckpointRepository* checkpoints,
             sim::Network* network);
  void stop();

  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }
  [[nodiscard]] ClusterId cluster() const { return cluster_; }
  [[nodiscard]] services::Trader& trader() { return trader_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

  // Hierarchy wiring (refs of other clusters' GRMs).
  void set_parent(const orb::ObjectRef& parent) { parent_ = parent; }
  void add_child(const orb::ObjectRef& child) { children_.push_back(child); }

  /// Scheduling economy (tenants, quotas, fair-share, preemption). Call
  /// before any submission; disabled (the default), every task queues under
  /// one anonymous tenant and dispatch is FIFO.
  void set_sched(const sched::SchedOptions& options);
  /// Checkpoint agents per provider node: the preemption path picks peers
  /// from this list so a victim's final image lands near its successor.
  void set_ckpt_agents(std::vector<std::pair<NodeId, orb::ObjectRef>> agents) {
    ckpt_agents_ = std::move(agents);
    std::sort(ckpt_agents_.begin(), ckpt_agents_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  // ---- protocol entry points (servant ops; public for tests) ----
  /// The `update_status` operation: apply a periodic load to a known node,
  /// or pull the descriptor of an unknown one (at most one pull in flight
  /// per node; loads arriving meanwhile are counted and dropped).
  void handle_node_load(const protocol::NodeLoad& load);
  /// Register or fully refresh a node from its whole descriptor, as if it
  /// had arrived as a periodic update (in-process feeds and tests).
  void handle_update_status(const protocol::NodeStatus& status);
  protocol::SubmitReply handle_submit(const protocol::ApplicationSpec& spec);
  void handle_report(const protocol::TaskReport& report);
  void handle_remote_submit(const protocol::RemoteSubmit& request);
  void handle_remote_adopted(const protocol::RemoteAdopted& ack);
  void handle_cluster_summary(const protocol::ClusterSummary& summary);
  void handle_cancel_app(AppId app);
  /// An adopted LRM declares which tasks are still running on it, so a GRM
  /// restored from a snapshot marks them running instead of re-placing them.
  void handle_task_resync(const protocol::TaskResync& resync);

  // ---- BSP coordinator integration (core library hooks in) ----
  struct Placement {
    NodeId node;
    orb::ObjectRef lrm;

    friend constexpr auto wire_fields(const Placement*) {
      return cdr::fields(&Placement::node, &Placement::lrm);
    }
  };
  using BspReadyHandler = std::function<void(AppId)>;
  using BspRankPlacedHandler =
      std::function<void(AppId, std::int32_t rank, const Placement&)>;
  using BspRankLostHandler = std::function<void(AppId, std::int32_t rank)>;
  using BspCancelledHandler = std::function<void(AppId)>;
  void set_bsp_handlers(BspReadyHandler ready, BspRankPlacedHandler placed,
                        BspRankLostHandler lost,
                        BspCancelledHandler cancelled = {});
  [[nodiscard]] const Placement* placement_of(TaskId task) const;
  /// Coordinator declares the whole BSP app finished (cancels residents).
  void complete_bsp_app(AppId app);

  // ---- introspection for benches/tests ----
  [[nodiscard]] std::size_t known_nodes() const { return nodes_.size(); }
  [[nodiscard]] TaskState task_state(TaskId task) const;
  [[nodiscard]] bool app_known(AppId app) const { return apps_.contains(app); }
  [[nodiscard]] const protocol::ApplicationSpec* app_spec(AppId app) const {
    auto it = apps_.find(app);
    return it == apps_.end() ? nullptr : &it->second.spec;
  }
  [[nodiscard]] int pending_tasks() const;
  [[nodiscard]] int running_tasks() const;
  /// Running tasks of one tenant (per-tenant slot occupancy — what
  /// fair-share benchmarks sample). "" is the economy-off tenant.
  [[nodiscard]] int running_tasks(const std::string& tenant) const;
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] std::optional<protocol::NodeStatus> node_view(NodeId node) const;

  // ---- control-plane snapshots (see docs/snapshots.md) ----
  /// Snapshot format version of the "grm" section (the Image in grm.cpp).
  static constexpr std::uint32_t kSnapshotVersion = 7;
  /// Serialize scheduler state: node records in the order their offers
  /// were exported, apps, tasks, the pending queue, child summaries,
  /// reservation counter, and the RNG stream. Engine-coupled transients
  /// (armed timers, active negotiation waves and their in-flight counts,
  /// trace spans) and the Trader, which is derived from the node records,
  /// are intentionally excluded.
  void save(cdr::Writer& w) const;
  /// Replace scheduler state from a snapshot section of exactly
  /// kSnapshotVersion. Accepts only bytes save() could have written: the
  /// whole payload, no node twice, other keyed records in strictly
  /// ascending key order, task states in range, every task's app on
  /// record, and a queue that holds exactly the kPending tasks, once each.
  /// Exports each node record's offer into a fresh Trader in record order,
  /// so queries rank, break ties and shuffle as on the primary.
  /// decode_snapshot() then commit_snapshot(): on any error the GRM and its
  /// Trader are untouched. The loaded state is dormant until
  /// recover_in_flight().
  Status load(std::uint32_t version, cdr::Reader& r);
  /// A "grm" section that decode_snapshot() accepted.
  struct Loaded;
  /// load()'s decode-and-check step: builds the section's state apart from
  /// this GRM, which it leaves untouched.
  [[nodiscard]] Result<Loaded> decode_snapshot(std::uint32_t version,
                                               cdr::Reader& r) const;
  /// load()'s apply step, which cannot fail: replaces this GRM's scheduler
  /// state and Trader with `loaded`, dormant.
  void commit_snapshot(Loaded loaded);
  /// After a failover load: tasks the snapshot froze mid-negotiation have
  /// no surviving wave callbacks on this GRM — return them to the pending
  /// queue (and clear in-flight counts) so the next scheduler pass retries
  /// them, and kRemote adoption timeouts are re-armed. Separate from load():
  /// a warm standby installs snapshots while the primary is alive and must
  /// stay dormant (no timers, no kicks) until promoted — the first load,
  /// status update or task resync after adoption calls this automatically.
  /// Also keeps save→load→save byte-identical.
  void recover_in_flight();

 private:
  // Snapshot records: each field list names the persisted members in
  // section order; members off the list are transients a load re-derives.
  struct NodeRecord {
    protocol::NodeStatus status;
    SimTime last_update = 0;
    /// The node's Trader offer, whose properties are always
    /// to_properties(status). Not persisted: a load exports a new one.
    services::OfferId offer;

    friend constexpr auto wire_fields(const NodeRecord*) {
      using S = NodeRecord;
      return cdr::fields(&S::status, &S::last_update);
    }
  };

  struct TaskRecord {
    protocol::TaskDescriptor desc;
    AppId app;  // on record in apps_ for as long as the task is
    TaskState state = TaskState::kPending;
    Placement placement;
    int waves = 0;      // fruitless negotiation waves so far
    int evictions = 0;
    /// Scheduling economy (sched enabled only; defaults otherwise).
    std::string tenant;
    SimTime deadline = 0;  // absolute bid deadline; 0 = none
    /// Peers holding the task's latest preemption checkpoint: forwarded on
    /// the next Execute so the successor node's restore starts warm.
    std::vector<orb::ObjectRef> ckpt_peers;
    std::int32_t topology_segment = -1;  // pinned segment, -1 = anywhere
    sim::EventHandle remote_timeout;
    /// Absolute deadline of remote_timeout (kRemote tasks only): event
    /// handles cannot be serialized, so snapshots persist the deadline and
    /// load() re-arms the timer at the same instant.
    SimTime remote_deadline = 0;
    /// Long-lived "grm.task" span: opened at submission, closed at final
    /// completion, so its duration is the submission→completion latency the
    /// E13 bench gates on. Inactive when tracing is off. All negotiation
    /// spans for the task parent on its context.
    obs::Tracer::ActiveSpan span;

    // remote_timeout is re-armed from remote_deadline at promotion; spans
    // restart cold; ckpt_peers and the preempting set are transient (an
    // in-flight preemption resolves through the eviction report).
    friend constexpr auto wire_fields(const TaskRecord*) {
      using S = TaskRecord;
      return cdr::fields(&S::desc, &S::app, &S::state, &S::placement,
                         &S::waves, &S::evictions, &S::topology_segment,
                         &S::remote_deadline, &S::tenant, &S::deadline);
    }
  };

  struct AppRecord {
    protocol::ApplicationSpec spec;
    bool adopted_remote = false;  // this GRM hosts it for another cluster
    orb::ObjectRef origin;        // origin GRM (adopted fragments only)
    int outstanding = 0;          // tasks not yet completed
    bool bsp_ready_fired = false;

    // The spec's bid tail is written unconditionally: a record never ends
    // the section.
    friend constexpr auto wire_fields(const AppRecord*) {
      using S = AppRecord;
      return cdr::fields(cdr::BaseOf{&S::spec}, cdr::TailOf{&S::spec},
                         &S::adopted_remote, &S::origin, &S::outstanding,
                         &S::bsp_ready_fired);
    }
  };

  /// The "grm" section (defined in grm.cpp).
  struct Image;

 public:
  struct Loaded {
    std::uint64_t next_reservation = 1;
    Rng::State rng;
    std::unordered_map<NodeId, NodeRecord> nodes;
    services::Trader trader;
    std::map<AppId, AppRecord> apps;
    std::map<TaskId, TaskRecord> tasks;
    sched::FairQueue queue;
    std::map<ClusterId, protocol::ClusterSummary> child_summaries;
  };

 private:
  // Negotiation wave state (heap-held; callbacks keep it alive).
  struct Wave;

  void on_update(const protocol::NodeStatus& status);
  /// Fetch an unknown node's NodeStatus through the load's LRM reference.
  void pull_status(const protocol::NodeLoad& load);
  /// Rewrite the record's dynamic Trader properties from its status.
  void refresh_load(const NodeRecord& record);
  void sweep_stale_offers();
  void on_node_dead(NodeId node, const NodeRecord& record);
  /// The one writer of TaskRecord::state (intake creates kPending records
  /// and load() decodes them). It keeps in step everything that must agree
  /// with the state: the task is queued exactly while kPending; entering
  /// kRunning sets the placement, resets `waves` and debits the node's
  /// hint; leaving kRunning credits that hint and clears the preemption
  /// mark; leaving kRemote cancels the adoption timer. Sends nothing.
  void transition(TaskRecord& task, TaskState to, const Placement& at = {});
  /// The steps an eviction report and a dead-node sweep share for a task
  /// that was running on `node`: count the eviction, notify, tell the BSP
  /// coordinator, and requeue.
  void lose_running_task(TaskRecord& task, NodeId node, const char* counter,
                         const std::string& detail);
  void kick_scheduler(SimDuration delay = 0);
  void scheduler_pass();
  void begin_wave(TaskRecord& task);
  void continue_wave(const std::shared_ptr<Wave>& wave);
  void wave_failed(const std::shared_ptr<Wave>& wave);
  void task_placed(TaskId task, const Placement& placement);
  /// Preemption-by-migration: checkpoint an over-share tenant's running
  /// task off its node so `requester` can take the slot. Returns true when
  /// a victim was told to checkpoint out.
  bool maybe_preempt(const TaskRecord& requester);
  [[nodiscard]] std::vector<orb::ObjectRef> pick_ckpt_peers(
      NodeId exclude) const;
  /// Back to the queue (fruitless wave, eviction, dead node, preemption,
  /// remote timeout), with a pass kicked within a second.
  void requeue(TaskRecord& task);
  void forward_remote(TaskRecord& task);
  /// Arm (or re-arm) a kRemote task's adoption timeout at its deadline.
  void arm_remote_timeout(TaskRecord& task);
  void notify(const AppRecord& app, protocol::AppEventKind kind, TaskId task,
              NodeId node, const std::string& detail);
  void maybe_app_done(AppId app_id);
  /// Forget a finished or cancelled non-BSP app's checkpoints: the
  /// repository's, and every provider agent's (the BSP coordinator drops
  /// its own apps').
  void drop_checkpoints(AppId app_id);
  void push_summary();
  [[nodiscard]] protocol::ClusterSummary build_summary() const;

  /// The records of the nodes a negotiation wave for `task` tries, best
  /// first.
  [[nodiscard]] std::vector<const NodeRecord*> candidates_for(
      const TaskRecord& task);
  [[nodiscard]] std::string build_constraint(const TaskRecord& task) const;
  [[nodiscard]] bool plan_topology(AppRecord& app,
                                   std::vector<std::int32_t>& rank_segment);
  [[nodiscard]] std::vector<std::uint8_t> restore_state_for(
      const TaskRecord& task) const;

  sim::Engine& engine_;
  orb::Orb& orb_;
  ClusterId cluster_;
  Rng rng_;
  GrmOptions options_;

  orb::ObjectRef self_ref_;
  orb::ObjectRef parent_;
  std::vector<orb::ObjectRef> children_;
  lupa::Gupa* gupa_ = nullptr;
  ckpt::CheckpointRepository* checkpoints_ = nullptr;
  sim::Network* network_ = nullptr;

  services::Trader trader_;
  /// Hash-keyed: the heartbeat path hits this once per update and nothing
  /// depends on ordered iteration (sweeps, summaries, and capacity counts
  /// are all order-insensitive).
  std::unordered_map<NodeId, NodeRecord> nodes_;
  std::map<AppId, AppRecord> apps_;
  std::map<TaskId, TaskRecord> tasks_;
  /// Ready queue: weighted stride across tenants, EDF within each, FIFO
  /// with the economy off (one tenant, no deadlines). Holds exactly the
  /// kPending tasks; only transition() adds or removes one, apart from the
  /// scheduler pass's pop, which hands the task straight to begin_wave().
  sched::FairQueue queue_;
  sched::SchedOptions sched_;
  /// Tenant specs and the entitlement formula. Running counts are not
  /// tracked: each reader counts them from tasks_.
  sched::TenantRegistry tenant_registry_;
  /// Running tasks with a preempt request in flight (never re-victimised).
  std::set<TaskId> preempting_;
  std::vector<std::pair<NodeId, orb::ObjectRef>> ckpt_agents_;
  std::map<ClusterId, protocol::ClusterSummary> child_summaries_;
  /// True between load() and recover_in_flight(): snapshot state installed
  /// but not yet activated (standby awaiting promotion).
  bool restored_dormant_ = false;

  BspReadyHandler bsp_ready_;
  BspRankPlacedHandler bsp_placed_;
  BspRankLostHandler bsp_lost_;
  BspCancelledHandler bsp_cancelled_;

  /// Nodes with a get_status pull in flight (never more than one each).
  std::unordered_set<NodeId> pulls_pending_;

  /// Reserve requests currently in flight per node: concurrent waves use
  /// this to spread across candidates instead of stampeding the best one.
  std::unordered_map<NodeId, int> inflight_;

  sim::PeriodicTimer sweep_timer_;
  sim::PeriodicTimer summary_timer_;
  bool pass_scheduled_ = false;
  bool started_ = false;
  std::uint64_t next_reservation_ = 1;

  MetricRegistry metrics_;
  CounterRef status_updates_received_{metrics_, "status_updates_received"};
};

}  // namespace integrade::grm
