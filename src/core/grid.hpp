// The InteGrade grid facade: the library's top-level public API.
//
// A Grid owns one simulation (engine + network + seeded randomness) and any
// number of Clusters, each matching Figure 1 of the paper:
//
//   Cluster Manager node : GRM + GUPA + checkpoint repository + BSP
//                          coordinator, one ORB
//   User node            : ASCT, one ORB
//   Resource providers   : Machine + OwnerWorkload + NCC + LRM (+LUPA),
//                          one lightweight ORB each
//   Dedicated nodes      : like providers but ownerless, dedicated policy
//
// Clusters are wired into a hierarchy with connect(); everything runs when
// the caller advances the simulation clock.
//
//   core::Grid grid(/*seed=*/42);
//   auto& cluster = grid.add_cluster(core::campus_cluster(50));
//   grid.run_for(2 * kWeek);                       // let LUPA learn
//   asct::AppBuilder app("render");
//   app.tasks(100, 60'000.0).estimated_duration(30 * kMinute);
//   const AppId id = cluster.asct().submit(cluster.grm_ref(),
//                                          app.build(cluster.asct().ref()));
//   grid.run_until_app_done(cluster, id);
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "asct/asct.hpp"
#include "bsp/coordinator.hpp"
#include "ckpt/agent.hpp"
#include "ckpt/repository.hpp"
#include "common/rng.hpp"
#include "grm/grm.hpp"
#include "lrm/lrm.hpp"
#include "lupa/gupa.hpp"
#include "ncc/ncc.hpp"
#include "node/machine.hpp"
#include "node/owner.hpp"
#include "obs/obs.hpp"
#include "orb/orb.hpp"
#include "orb/transport.hpp"
#include "security/auth.hpp"
#include "services/naming.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "snapshot/coordinator.hpp"

namespace integrade::core {

struct NodeConfig {
  node::MachineSpec spec;
  node::WeeklyProfile profile;  // ignored for dedicated nodes
  ncc::SharingPolicy policy;
  bool dedicated = false;
  int segment = 0;  // index into ClusterConfig::segments
};

/// What keeps a cluster's control plane alive when its manager node dies
/// (docs/faults.md has the table).
enum class Standby {
  /// No standby manager: LRMs send oneway status updates and keep no
  /// report journal.
  kNone,
  /// A warm-standby GRM on its own node, rebuilt from re-announcements.
  /// Every LRM sends two-way status updates, fails over to the standby
  /// after three misses, and journals its task reports for five minutes to
  /// replay, after a TaskResync, to the manager it adopts.
  kHeartbeat,
  /// kHeartbeat plus a full control-plane snapshot (the GRM, whose node
  /// records rebuild the Trader, and the ORB dedup window) shipped from the
  /// primary to the standby every 10 s, so the standby starts from the
  /// installed image instead of an empty Trader.
  kSnapshot,
};

struct ClusterConfig {
  std::string name = "cluster";
  std::vector<sim::SegmentSpec> segments = {sim::SegmentSpec{}};
  std::vector<NodeConfig> nodes;
  grm::GrmOptions grm;
  lrm::LrmOptions lrm;
  /// Reliability options applied to every ORB in the cluster (manager,
  /// user, providers). Defaults preserve historical behaviour.
  orb::OrbOptions orb;
  /// Standby manager and what failover needs with it (see Standby).
  Standby standby = Standby::kNone;
  /// Content-addressed checkpoint data plane (see docs/checkpoints.md):
  /// every provider node runs a CkptAgent + chunk store, the repository
  /// grows an embedded chunk store with a wire servant, and BSP/sequential
  /// checkpoints ship as deduped, LZ-compressed chunks with peer
  /// replication. Disabled by default: no servants, no agents, no wire
  /// bytes — runs are byte-identical to the legacy whole-image path.
  ckpt::DataPlaneOptions ckpt;
  /// Scheduling economy (see docs/scheduling.md): tenants with weights and
  /// quotas, weighted fair-share dispatch, deadline/budget bids, admission
  /// control, and checkpoint-assisted preemption. Disabled by default:
  /// every task queues under one anonymous tenant with no deadline or bid,
  /// so the same budgeted pass dispatches in arrival order.
  sched::SchedOptions sched;
};

class Grid;

class Cluster {
 public:
  Cluster(Grid& grid, ClusterId id, ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] ClusterId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  [[nodiscard]] grm::Grm& grm() { return *grm_; }
  [[nodiscard]] const orb::ObjectRef& grm_ref() const { return grm_->ref(); }
  /// Warm-standby GRM; null when ClusterConfig::standby is kNone.
  [[nodiscard]] grm::Grm* standby_grm() { return standby_grm_.get(); }
  [[nodiscard]] lupa::Gupa& gupa() { return gupa_; }
  [[nodiscard]] ckpt::CheckpointRepository& repository() { return repository_; }
  [[nodiscard]] bsp::BspCoordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] asct::Asct& asct() { return *asct_; }
  [[nodiscard]] orb::Orb& manager_orb() { return *manager_orb_; }
  /// Null unless ClusterConfig::standby is kSnapshot.
  [[nodiscard]] snapshot::SnapshotCoordinator* snapshot_coordinator() {
    return snapshot_coordinator_.get();
  }
  [[nodiscard]] snapshot::SnapshotStore* snapshot_store() {
    return snapshot_store_.get();
  }

  [[nodiscard]] lrm::Lrm& lrm(std::size_t i) { return *workers_[i]->lrm; }
  /// Provider `i`'s checkpoint data-plane agent; null unless
  /// ClusterConfig::ckpt.enabled.
  [[nodiscard]] ckpt::CkptAgent* ckpt_agent(std::size_t i) {
    return workers_[i]->ckpt_agent.get();
  }
  [[nodiscard]] node::Machine& machine(std::size_t i) {
    return *workers_[i]->machine;
  }
  /// Network endpoint of provider `i` / the Cluster Manager node — the ids
  /// the FaultInjector crashes and partitions operate on.
  [[nodiscard]] orb::NodeAddress worker_address(std::size_t i) const {
    return workers_[i]->orb->address();
  }
  [[nodiscard]] orb::NodeAddress manager_address() const {
    return manager_orb_->address();
  }
  /// Null for dedicated nodes (no owner process).
  [[nodiscard]] node::OwnerWorkload* owner(std::size_t i) {
    return workers_[i]->owner.get();
  }

  /// Network segment id (grid-wide) of the cluster's local segment index.
  [[nodiscard]] sim::SegmentId segment_id(int local_index) const {
    return segment_ids_.at(static_cast<std::size_t>(local_index));
  }

  /// Total grid work (MInstr) completed across all provider nodes.
  [[nodiscard]] MInstr total_work_done() const;

 private:
  struct Worker {
    std::unique_ptr<node::Machine> machine;
    std::unique_ptr<node::OwnerWorkload> owner;
    std::unique_ptr<orb::Orb> orb;
    std::unique_ptr<lrm::Lrm> lrm;
    /// Declared after lrm (and orb): the agent must die before the ORB its
    /// pending transfers resolve on.
    std::unique_ptr<ckpt::CkptAgent> ckpt_agent;
  };

  Grid& grid_;
  ClusterId id_;
  ClusterConfig config_;
  std::vector<sim::SegmentId> segment_ids_;

  // Cluster Manager node.
  std::unique_ptr<orb::Orb> manager_orb_;
  lupa::Gupa gupa_;
  ckpt::CheckpointRepository repository_;
  orb::ObjectRef gupa_ref_;
  orb::ObjectRef ckpt_ref_;
  orb::ObjectRef ckpt_store_ref_;  // repository chunk store (data plane)
  std::unique_ptr<grm::Grm> grm_;
  std::unique_ptr<bsp::BspCoordinator> coordinator_;

  // Warm-standby Cluster Manager (optional).
  std::unique_ptr<orb::Orb> standby_orb_;
  std::unique_ptr<grm::Grm> standby_grm_;

  // Control-plane snapshots (Standby::kSnapshot only).
  std::unique_ptr<snapshot::SnapshotStore> snapshot_store_;
  std::unique_ptr<snapshot::SnapshotCoordinator> snapshot_coordinator_;

  // User node.
  std::unique_ptr<orb::Orb> user_orb_;
  std::unique_ptr<asct::Asct> asct_;

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Names this cluster registered in the grid's MetricsHub (removed in the
  /// destructor so a cluster never leaves dangling scrape callbacks behind).
  std::vector<std::string> hub_names_;
};

struct GridOptions {
  /// When set, every frame on the grid is HMAC-authenticated under the
  /// realm key derived from this passphrase (paper §3's authentication
  /// requirement). Unkeyed or tampered traffic is dropped at the transport.
  std::string realm_passphrase;
};

class Grid {
 public:
  explicit Grid(std::uint64_t seed, GridOptions options = {});
  ~Grid();
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] sim::Network& network() { return network_; }
  /// The transport ORBs bind to (the secure decorator when enabled).
  [[nodiscard]] orb::Transport& transport();
  [[nodiscard]] security::SecureTransport* secure_transport() {
    return secure_transport_ ? secure_transport_.get() : nullptr;
  }
  /// The undecorated network transport. Components must bind through
  /// transport(); this exists so tests can model an attacker who injects
  /// raw (unauthenticated) frames beneath the secure layer.
  [[nodiscard]] orb::SimNetworkTransport& raw_transport() { return transport_; }
  /// Grid-wide Naming service: every cluster binds its well-known objects
  /// under "clusters/<name>/..." at construction.
  [[nodiscard]] services::NamingService& naming() { return naming_; }
  [[nodiscard]] Rng fork_rng() { return rng_.fork(); }

  /// Grid-wide observability: one Tracer every cluster's ORBs share (spans
  /// are linked across processes via the wire context) and one MetricsHub
  /// every component registers into. Tracing is disabled by default —
  /// call observability().tracer.enable() before the run to collect spans.
  [[nodiscard]] obs::Observability& observability() { return obs_; }
  [[nodiscard]] obs::Tracer& tracer() { return obs_.tracer; }
  [[nodiscard]] obs::MetricsHub& metrics_hub() { return obs_.hub; }

  Cluster& add_cluster(ClusterConfig config);
  [[nodiscard]] Cluster& cluster(std::size_t i) { return *clusters_[i]; }
  [[nodiscard]] std::size_t cluster_count() const { return clusters_.size(); }

  /// Wire `child`'s GRM under `parent`'s GRM in the wide-area hierarchy.
  void connect(Cluster& parent, Cluster& child);

  /// Advance by `d`, saturating at kTimeNever (a duration near the
  /// SimDuration max must clamp, not wrap past the deadline).
  void run_for(SimDuration d);
  void run_until(SimTime t);
  /// Advance until the app completes at `cluster`'s ASCT or `deadline`
  /// passes; returns true on completion.
  bool run_until_app_done(Cluster& cluster, AppId app, SimTime deadline);

  /// Fresh endpoint attached to `segment` (internal, used by Cluster).
  orb::NodeAddress allocate_endpoint(sim::SegmentId segment);

 private:
  sim::Engine engine_;
  Rng rng_;
  sim::Network network_;
  orb::SimNetworkTransport transport_;
  std::unique_ptr<security::SecureTransport> secure_transport_;
  services::NamingService naming_;
  /// Declared before clusters_: cluster destructors deregister their hub
  /// sources, so the hub must outlive them.
  obs::Observability obs_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::uint64_t next_endpoint_ = 1;
};

}  // namespace integrade::core
