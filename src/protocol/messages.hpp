// Wire messages of InteGrade's intra- and inter-cluster protocols.
//
// Three protocol families (paper §4):
//   * Information Update Protocol — LRMs push a NodeLoad to their GRM
//     periodically; the GRM pulls the full NodeStatus once per registration
//     and keeps both in its Trader.
//   * Resource Reservation & Execution Protocol — the GRM picks candidate
//     nodes from (possibly stale) Trader state as a *hint*, then negotiates
//     directly: Reserve -> (granted) -> Execute -> ... -> TaskCompletion.
//   * Usage Pattern Protocol — LUPA uploads per-node behavioural categories
//     to the GUPA; the GRM asks the GUPA for idleness forecasts.
//
// Every struct here lists its fields once, in wire order, in the
// wire_fields() overload right after it; cdr::Codec derives both encode and
// decode from that list (src/cdr/cdr.hpp). tests/protocol_test.cpp
// round-trips each one under both byte orders.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"
#include "common/types.hpp"
#include "orb/ior.hpp"

namespace integrade::protocol {

// ---------------------------------------------------------------------------
// Information Update Protocol
// ---------------------------------------------------------------------------

/// The LRM's full self-description: the registration descriptor. The GRM
/// pulls it with the LRM's `get_status` operation when a NodeLoad arrives
/// for a node it does not know, and keeps it as its per-node record; only
/// the dynamic fields change afterwards, from each NodeLoad.
struct NodeStatus {
  NodeId node;
  orb::ObjectRef lrm;  // where to negotiate reservations

  // Static description.
  std::string hostname;
  Mips cpu_mips = 0;
  Bytes ram_total = 0;
  Bytes disk_total = 0;
  std::string os;
  std::string arch;
  std::vector<std::string> platforms;
  std::int32_t segment = 0;  // network segment, for topology-aware placement
  bool dedicated = false;    // Dedicated Node (no owner, no LUPA)

  // Dynamic state.
  double owner_cpu = 0.0;       // owner demand right now, [0,1]
  double grid_cpu = 0.0;        // fraction already granted to grid tasks
  double exportable_cpu = 0.0;  // what NCC policy allows for new grid work
  Bytes free_ram = 0;
  bool owner_present = false;
  bool shareable = false;  // NCC allows grid work and >= kMinUsefulCpu is free
  std::int32_t running_tasks = 0;
  SimTime timestamp = 0;

  bool operator==(const NodeStatus&) const = default;
};
constexpr auto wire_fields(const NodeStatus*) {
  using S = NodeStatus;
  return cdr::fields(&S::node, &S::lrm, &S::hostname, &S::cpu_mips,
                     &S::ram_total, &S::disk_total, &S::os, &S::arch,
                     &S::platforms, &S::segment, &S::dedicated, &S::owner_cpu,
                     &S::grid_cpu, &S::exportable_cpu, &S::free_ram,
                     &S::owner_present, &S::shareable, &S::running_tasks,
                     &S::timestamp);
}

/// Periodic node load: NodeStatus's dynamic fields plus the node's identity
/// and negotiation endpoint, the only message an LRM sends each period (the
/// paper's information update, which doubles as the LRM's liveness
/// heartbeat). Static fields travel only in NodeStatus.
struct NodeLoad {
  NodeId node;
  orb::ObjectRef lrm;  // where the GRM pulls NodeStatus and negotiates

  double owner_cpu = 0.0;
  double grid_cpu = 0.0;
  double exportable_cpu = 0.0;
  Bytes free_ram = 0;
  bool owner_present = false;
  bool shareable = false;
  std::int32_t running_tasks = 0;
  SimTime timestamp = 0;

  bool operator==(const NodeLoad&) const = default;
};
constexpr auto wire_fields(const NodeLoad*) {
  using S = NodeLoad;
  return cdr::fields(&S::node, &S::lrm, &S::owner_cpu, &S::grid_cpu,
                     &S::exportable_cpu, &S::free_ram, &S::owner_present,
                     &S::shareable, &S::running_tasks, &S::timestamp);
}

/// `status`'s NodeLoad: its identity, endpoint and dynamic fields.
NodeLoad load_of(const NodeStatus& status);
/// The same, written over `load`, whose strings keep their buffers.
void fill_load(const NodeStatus& status, NodeLoad& load);
/// Overwrite `status`'s endpoint and dynamic fields with `load`'s.
void apply_load(const NodeLoad& load, NodeStatus& status);

// ---------------------------------------------------------------------------
// Application & task descriptors
// ---------------------------------------------------------------------------

enum class AppKind : std::uint8_t {
  kSequential = 0,  // one task
  kParametric = 1,  // independent tasks (bag-of-tasks / master-worker)
  kBsp = 2,         // communicating parallel app, BSP model (paper §3)
};

const char* app_kind_name(AppKind k);

/// One schedulable unit. For BSP apps, one task per process rank.
struct TaskDescriptor {
  TaskId id;
  AppId app;
  AppKind kind = AppKind::kSequential;
  std::string binary_platform;  // must be in the node's platform list
  MInstr work = 0;              // total compute demand
  Bytes ram_needed = 0;
  Bytes input_bytes = 0;   // staged in before execution
  Bytes output_bytes = 0;  // shipped back on completion

  // BSP-only fields.
  std::int32_t bsp_rank = -1;
  std::int32_t bsp_processes = 0;
  std::int32_t bsp_supersteps = 0;
  Bytes bsp_comm_bytes_per_step = 0;  // h-relation volume per superstep
  std::int32_t checkpoint_every = 0;  // supersteps between checkpoints; 0 = off
  Bytes checkpoint_bytes = 0;         // serialized state size

  /// Sequential/parametric tasks: periodic checkpoint cadence (0 = off).
  SimDuration checkpoint_period = 0;

  bool operator==(const TaskDescriptor&) const = default;
};
constexpr auto wire_fields(const TaskDescriptor*) {
  using S = TaskDescriptor;
  return cdr::fields(&S::id, &S::app, &S::kind, &S::binary_platform, &S::work,
                     &S::ram_needed, &S::input_bytes, &S::output_bytes,
                     &S::bsp_rank, &S::bsp_processes, &S::bsp_supersteps,
                     &S::bsp_comm_bytes_per_step, &S::checkpoint_every,
                     &S::checkpoint_bytes, &S::checkpoint_period);
}

/// Shortest checkpoint cadence a task may ask for (0 still means off).
inline constexpr SimDuration kMinCheckpointPeriod = 1 * kSecond;

/// Why a task must be refused, or nullptr if it may be accepted: its work
/// must be finite and non-negative, and a checkpoint period above 0 must be
/// at least kMinCheckpointPeriod. Every intake of a descriptor checks it:
/// GRM submit and remote submit, LRM Execute and the grm snapshot loader.
[[nodiscard]] const char* task_refusal(const TaskDescriptor& task);

// ---------------------------------------------------------------------------
// Application submission (ASCT -> GRM)
// ---------------------------------------------------------------------------

/// Execution prerequisites and preferences, as the paper's ASCT describes:
/// "hardware and software platforms, resource requirements such as minimum
/// memory, and preferences, like rather executing on a faster CPU".
/// Expressed in the Trader constraint/preference language over the node
/// property schema (protocol/properties.hpp).
struct ResourceRequirements {
  std::string constraint;  // empty = match any shareable node
  std::string preference;  // empty = discovery order

  bool operator==(const ResourceRequirements&) const = default;
};
constexpr auto wire_fields(const ResourceRequirements*) {
  using S = ResourceRequirements;
  return cdr::fields(&S::constraint, &S::preference);
}

/// Virtual topology request (paper §3's "two groups of 50 nodes..." example).
struct TopologyGroup {
  std::int32_t nodes = 0;
  BytesPerSec min_intra_bandwidth = 0;  // within the group

  bool operator==(const TopologyGroup&) const = default;
};
constexpr auto wire_fields(const TopologyGroup*) {
  using S = TopologyGroup;
  return cdr::fields(&S::nodes, &S::min_intra_bandwidth);
}

struct TopologySpec {
  std::vector<TopologyGroup> groups;
  BytesPerSec min_inter_bandwidth = 0;  // between any two groups

  [[nodiscard]] bool empty() const { return groups.empty(); }
  bool operator==(const TopologySpec&) const = default;
};
constexpr auto wire_fields(const TopologySpec*) {
  using S = TopologySpec;
  return cdr::fields(&S::groups, &S::min_inter_bandwidth);
}

struct ApplicationSpec {
  AppId id;
  std::string name;
  AppKind kind = AppKind::kSequential;
  std::vector<TaskDescriptor> tasks;
  ResourceRequirements requirements;
  TopologySpec topology;  // empty unless the user constrained placement
  /// User's runtime estimate; the GRM feeds it to GUPA forecasts so tasks
  /// land on nodes likely to stay idle long enough.
  SimDuration estimated_duration = 0;
  /// Where app events (scheduled/completed/evicted/done) are delivered.
  orb::ObjectRef notify;

  // Scheduling economy (optional). The tenant this app bills to plus its
  // bid: a budget (abstract currency, feeds fair-share weight resolution)
  // and a completion deadline relative to submit time. All three ride a
  // *trailing* extension on the wire — a spec with the defaults encodes to
  // exactly the pre-economy bytes, and old peers ignore the extension.
  std::string tenant;
  double bid_budget = 0.0;
  SimDuration bid_deadline = 0;  // 0 = no deadline bid

  bool operator==(const ApplicationSpec&) const = default;
};
constexpr auto wire_fields(const ApplicationSpec*) {
  using S = ApplicationSpec;
  return cdr::fields(&S::id, &S::name, &S::kind, &S::tasks, &S::requirements,
                     &S::topology, &S::estimated_duration, &S::notify)
      .with_tail(&S::tenant, &S::bid_budget, &S::bid_deadline);
}

struct SubmitReply {
  AppId app;
  bool accepted = false;
  std::string reason;

  bool operator==(const SubmitReply&) const = default;
};
constexpr auto wire_fields(const SubmitReply*) {
  using S = SubmitReply;
  return cdr::fields(&S::app, &S::accepted, &S::reason);
}

/// Application lifecycle notifications (GRM -> ASCT).
enum class AppEventKind : std::uint8_t {
  kTaskScheduled = 0,
  kTaskCompleted = 1,
  kTaskEvicted = 2,
  kTaskRescheduled = 3,
  kAppCompleted = 4,
  kAppFailed = 5,
};

const char* app_event_kind_name(AppEventKind k);

struct AppEvent {
  AppId app;
  TaskId task;  // invalid for app-level events
  AppEventKind kind = AppEventKind::kTaskScheduled;
  NodeId node;  // where, when applicable
  SimTime at = 0;
  std::string detail;

  bool operator==(const AppEvent&) const = default;
};
constexpr auto wire_fields(const AppEvent*) {
  using S = AppEvent;
  return cdr::fields(&S::app, &S::task, &S::kind, &S::node, &S::at, &S::detail);
}

// ---------------------------------------------------------------------------
// BSP chunk execution (coordinator <-> LRM)
// ---------------------------------------------------------------------------

struct BspComputeRequest {
  TaskId task;
  std::int32_t rank = 0;
  std::int64_t superstep = 0;
  MInstr work = 0;
  orb::ObjectRef notify;  // coordinator; receives BspChunkDone

  bool operator==(const BspComputeRequest&) const = default;
};
constexpr auto wire_fields(const BspComputeRequest*) {
  using S = BspComputeRequest;
  return cdr::fields(&S::task, &S::rank, &S::superstep, &S::work, &S::notify);
}

struct BspChunkDone {
  TaskId task;
  std::int32_t rank = 0;
  std::int64_t superstep = 0;
  NodeId node;

  bool operator==(const BspChunkDone&) const = default;
};
constexpr auto wire_fields(const BspChunkDone*) {
  using S = BspChunkDone;
  return cdr::fields(&S::task, &S::rank, &S::superstep, &S::node);
}

struct CancelTask {
  TaskId task;
  bool operator==(const CancelTask&) const = default;
};
constexpr auto wire_fields(const CancelTask*) {
  return cdr::fields(&CancelTask::task);
}

struct CancelApp {
  AppId app;
  bool operator==(const CancelApp&) const = default;
};
constexpr auto wire_fields(const CancelApp*) {
  return cdr::fields(&CancelApp::app);
}

/// BOINC-style pull protocol: a worker asks the master for work and gets a
/// unit (or nothing). Defined here so the baseline speaks the same wire
/// format as everything else.
struct WorkReply {
  bool has_work = false;
  TaskDescriptor task;
  bool operator==(const WorkReply&) const = default;
};
constexpr auto wire_fields(const WorkReply*) {
  using S = WorkReply;
  return cdr::fields(&S::has_work, &S::task);
}

// ---------------------------------------------------------------------------
// Inter-cluster protocol (paper §4: clusters "arranged in a hierarchy";
// the MK02 extension of the 2K resource-management protocols)
// ---------------------------------------------------------------------------

/// Periodic roll-up a GRM pushes to its parent cluster manager, so parents
/// can route work toward capacity without tracking individual nodes.
struct ClusterSummary {
  ClusterId cluster;
  orb::ObjectRef grm;
  std::int32_t total_nodes = 0;
  std::int32_t shareable_nodes = 0;
  double total_exportable_mips = 0.0;
  std::int64_t max_free_ram_mb = 0;
  std::vector<std::string> platforms;  // union over nodes
  SimTime timestamp = 0;

  bool operator==(const ClusterSummary&) const = default;
};
constexpr auto wire_fields(const ClusterSummary*) {
  using S = ClusterSummary;
  return cdr::fields(&S::cluster, &S::grm, &S::total_nodes, &S::shareable_nodes,
                     &S::total_exportable_mips, &S::max_free_ram_mb,
                     &S::platforms, &S::timestamp);
}

/// A task travelling the hierarchy looking for a cluster that can host it.
/// Exactly one copy walks the tree (children-with-capacity first, then the
/// parent); `visited` breaks cycles, `ttl` bounds the walk.
struct RemoteSubmit {
  ApplicationSpec spec;  // single-task spec
  std::int32_t ttl = 8;
  std::vector<std::uint64_t> visited_clusters;
  orb::ObjectRef origin_grm;  // receives RemoteAdopted

  bool operator==(const RemoteSubmit&) const = default;
};
// The spec travels without its bid; the bid rides this frame's own tail, so
// a bid-less RemoteSubmit keeps the pre-economy bytes.
constexpr auto wire_fields(const RemoteSubmit*) {
  using S = RemoteSubmit;
  return cdr::fields(cdr::BaseOf{&S::spec}, &S::ttl, &S::visited_clusters,
                     &S::origin_grm)
      .with_tail(cdr::TailOf{&S::spec});
}

struct RemoteAdopted {
  AppId app;
  TaskId task;
  ClusterId by_cluster;
  std::int32_t hops = 0;

  bool operator==(const RemoteAdopted&) const = default;
};
constexpr auto wire_fields(const RemoteAdopted*) {
  using S = RemoteAdopted;
  return cdr::fields(&S::app, &S::task, &S::by_cluster, &S::hops);
}

// ---------------------------------------------------------------------------
// Resource Reservation & Execution Protocol
// ---------------------------------------------------------------------------

/// The one admission threshold: an LRM grants a reservation only when at
/// least this CPU fraction is exportable, and a node is `shareable` (in its
/// NodeLoad and in the GRM's hint) only under the same condition, so a hint
/// never advertises a node the LRM would refuse.
inline constexpr double kMinUsefulCpu = 0.05;

struct ReservationRequest {
  ReservationId id;  // assigned by the GRM
  TaskId task;
  double cpu_fraction = 1.0;  // of the node's exportable CPU
  Bytes ram = 0;
  /// How long the LRM holds the reservation awaiting the Execute message
  /// before reclaiming it.
  SimDuration hold = 30 * kSecond;

  /// Scheduling economy (optional): the requesting tenant and its bid, so
  /// node-local NCC policy (`bid_filter = <constraint>`) can accept or
  /// refuse the reservation on economic terms. Trailing wire extension —
  /// byte-invisible when all three hold their defaults.
  std::string tenant;
  double bid_budget = 0.0;
  SimDuration bid_deadline = 0;  // remaining time to the app deadline

  [[nodiscard]] bool has_bid() const {
    return !tenant.empty() || bid_budget != 0.0 || bid_deadline != 0;
  }

  bool operator==(const ReservationRequest&) const = default;
};
constexpr auto wire_fields(const ReservationRequest*) {
  using S = ReservationRequest;
  return cdr::fields(&S::id, &S::task, &S::cpu_fraction, &S::ram, &S::hold)
      .with_tail(&S::tenant, &S::bid_budget, &S::bid_deadline);
}

struct ReservationReply {
  ReservationId id;
  bool granted = false;
  std::string reason;  // on refusal: "owner present", "no RAM", ...
  /// LRM's fresh status, piggy-backed so the GRM can correct its hint
  /// immediately instead of waiting for the next periodic update.
  double exportable_cpu = 0.0;
  Bytes free_ram = 0;

  bool operator==(const ReservationReply&) const = default;
};
constexpr auto wire_fields(const ReservationReply*) {
  using S = ReservationReply;
  return cdr::fields(&S::id, &S::granted, &S::reason, &S::exportable_cpu,
                     &S::free_ram);
}

struct ExecuteRequest {
  ReservationId reservation;
  TaskDescriptor task;
  /// Where the LRM must report completion/eviction (the GRM's execution
  /// manager object).
  orb::ObjectRef report_to;
  /// CDR-encoded state to resume from (empty = start fresh). For sequential
  /// tasks this is a SequentialState carrying absolute progress, so a task
  /// evicted twice never re-does checkpointed work.
  std::vector<std::uint8_t> restore_state;

  /// Checkpoint-data-plane peers holding this task's latest image chunks
  /// (preemption-by-migration path): the executing node's agent prefetches
  /// from these stores so the restore starts warm. Trailing wire extension,
  /// byte-invisible when empty.
  std::vector<orb::ObjectRef> ckpt_peers;

  bool operator==(const ExecuteRequest&) const = default;
};
constexpr auto wire_fields(const ExecuteRequest*) {
  using S = ExecuteRequest;
  return cdr::fields(&S::reservation, &S::task, &S::report_to,
                     &S::restore_state)
      .with_tail(&S::ckpt_peers);
}

struct ExecuteReply {
  ReservationId reservation;
  bool accepted = false;
  std::string reason;

  bool operator==(const ExecuteReply&) const = default;
};
constexpr auto wire_fields(const ExecuteReply*) {
  using S = ExecuteReply;
  return cdr::fields(&S::reservation, &S::accepted, &S::reason);
}

enum class TaskOutcome : std::uint8_t {
  kCompleted = 0,
  kEvicted = 1,       // owner reclaimed the machine (NCC policy)
  kNodeFailed = 2,    // machine went down
  kCancelled = 3,     // GRM/user aborted
};

const char* task_outcome_name(TaskOutcome o);

struct TaskReport {
  TaskId task;
  NodeId node;
  TaskOutcome outcome = TaskOutcome::kCompleted;
  MInstr work_done = 0;  // progress at the time of the report
  std::string detail;

  bool operator==(const TaskReport&) const = default;
};
constexpr auto wire_fields(const TaskReport*) {
  using S = TaskReport;
  return cdr::fields(&S::task, &S::node, &S::outcome, &S::work_done,
                     &S::detail);
}

/// GRM -> LRM (scheduling economy): vacate `task` via checkpoint migration,
/// not kill. The LRM settles progress, saves a checkpoint through its
/// CkptAgent with `peers` as replica destinations (so the next host restores
/// warm from neighbors), then reports kEvicted; the GRM requeues and the
/// restore_state/ckpt_peers of the next Execute resume the task elsewhere.
/// Only sent when `ClusterConfig::sched` preemption is enabled.
struct PreemptRequest {
  TaskId task;
  std::vector<orb::ObjectRef> peers;

  bool operator==(const PreemptRequest&) const = default;
};
constexpr auto wire_fields(const PreemptRequest*) {
  using S = PreemptRequest;
  return cdr::fields(&S::task, &S::peers);
}

// ---------------------------------------------------------------------------
// Failover & snapshot protocol (see docs/snapshots.md)
// ---------------------------------------------------------------------------

/// Sent by an LRM to a GRM that just adopted it (standby promotion): the
/// set of tasks still running locally, so the new GRM can mark them running
/// instead of re-scheduling them from a stale snapshot. Paired with a
/// replay of the LRM's recent TaskReport journal for terminal outcomes that
/// may have been lost with the old primary.
struct TaskResync {
  NodeId node;
  orb::ObjectRef lrm;  // negotiation endpoint, same as NodeStatus::lrm
  std::vector<TaskId> running;

  bool operator==(const TaskResync&) const = default;
};
constexpr auto wire_fields(const TaskResync*) {
  using S = TaskResync;
  return cdr::fields(&S::node, &S::lrm, &S::running);
}

/// A control-plane snapshot image (snapshot::Envelope wire bytes) shipped
/// from the primary's SnapshotCoordinator to the standby's SnapshotStore.
/// The image is opaque at this layer; the store validates the envelope
/// (magic, version, checksum) before applying it.
struct SnapshotInstall {
  std::vector<std::uint8_t> image;

  bool operator==(const SnapshotInstall&) const = default;
};
constexpr auto wire_fields(const SnapshotInstall*) {
  return cdr::fields(&SnapshotInstall::image);
}

struct SnapshotInstallReply {
  bool accepted = false;
  std::string reason;  // on rejection: why (sequencing gap, bad checksum...)

  bool operator==(const SnapshotInstallReply&) const = default;
};
constexpr auto wire_fields(const SnapshotInstallReply*) {
  using S = SnapshotInstallReply;
  return cdr::fields(&S::accepted, &S::reason);
}

// ---------------------------------------------------------------------------
// Checkpoint data plane (see docs/checkpoints.md)
//
// Checkpoints are content-addressed: an image is a *manifest* of SHA-256
// chunk references, and only chunks the destination store is missing travel
// the wire (offer/need negotiation), LZ-compressed. Chunks replicate to k
// peer stores so restart-after-crash pulls from surviving neighbors instead
// of the cluster manager.
// ---------------------------------------------------------------------------

/// SHA-256 of the *raw* (uncompressed) chunk bytes. Plain array here so the
/// wire layer does not depend on src/security.
using CkptHash = std::array<std::uint8_t, 32>;

struct CkptChunkRef {
  CkptHash hash{};
  std::uint32_t raw_size = 0;

  bool operator==(const CkptChunkRef&) const = default;
};
constexpr auto wire_fields(const CkptChunkRef*) {
  using S = CkptChunkRef;
  return cdr::fields(&S::hash, &S::raw_size);
}

/// A checkpoint as a recipe: ordered chunk references reassembling the
/// image. Byte-identical chunks across versions share one stored copy.
struct CkptManifest {
  AppId app;
  std::int32_t rank = 0;
  std::int64_t version = 0;     // BSP: superstep index
  std::uint8_t chunker = 0;     // ckpt::Chunker the image was split with
  std::uint32_t chunk_size = 0; // fixed chunk size / CDC target average
  std::uint64_t image_bytes = 0;
  std::vector<CkptChunkRef> chunks;

  bool operator==(const CkptManifest&) const = default;
};
constexpr auto wire_fields(const CkptManifest*) {
  using S = CkptManifest;
  return cdr::fields(&S::app, &S::rank, &S::version, &S::chunker,
                     &S::chunk_size, &S::image_bytes, &S::chunks);
}

/// Sender -> store: "I want to install this manifest; which chunks do you
/// lack?" The reply's `missing` indexes into manifest.chunks.
struct CkptManifestOffer {
  CkptManifest manifest;

  bool operator==(const CkptManifestOffer&) const = default;
};
constexpr auto wire_fields(const CkptManifestOffer*) {
  return cdr::fields(&CkptManifestOffer::manifest);
}

struct CkptChunkNeed {
  bool accepted = false;
  std::string reason;  // on rejection: version regression, malformed manifest
  std::vector<std::uint32_t> missing;

  bool operator==(const CkptChunkNeed&) const = default;
};
constexpr auto wire_fields(const CkptChunkNeed*) {
  using S = CkptChunkNeed;
  return cdr::fields(&S::accepted, &S::reason, &S::missing);
}

/// One chunk payload in transit: raw or LZ-compressed (ckpt::Encoding).
struct CkptChunkData {
  CkptHash hash{};
  std::uint8_t encoding = 0;
  std::uint32_t raw_size = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const CkptChunkData&) const = default;
};
constexpr auto wire_fields(const CkptChunkData*) {
  using S = CkptChunkData;
  return cdr::fields(&S::hash, &S::encoding, &S::raw_size, &S::payload);
}

struct CkptChunkPut {
  AppId app;  // for diagnostics; chunks are content-addressed, not per-app
  std::vector<CkptChunkData> chunks;

  bool operator==(const CkptChunkPut&) const = default;
};
constexpr auto wire_fields(const CkptChunkPut*) {
  using S = CkptChunkPut;
  return cdr::fields(&S::app, &S::chunks);
}

struct CkptPutReply {
  std::int32_t stored = 0;
  std::int32_t rejected = 0;  // failed integrity verification

  bool operator==(const CkptPutReply&) const = default;
};
constexpr auto wire_fields(const CkptPutReply*) {
  using S = CkptPutReply;
  return cdr::fields(&S::stored, &S::rejected);
}

/// Commit a manifest at the destination store (all chunks must be present).
/// prune_below >= 0 additionally drops this rank's manifests with older
/// versions, releasing their chunk references.
struct CkptManifestInstall {
  CkptManifest manifest;
  std::int64_t prune_below = -1;

  bool operator==(const CkptManifestInstall&) const = default;
};
constexpr auto wire_fields(const CkptManifestInstall*) {
  using S = CkptManifestInstall;
  return cdr::fields(&S::manifest, &S::prune_below);
}

struct CkptInstallReply {
  bool accepted = false;
  std::string reason;

  bool operator==(const CkptInstallReply&) const = default;
};
constexpr auto wire_fields(const CkptInstallReply*) {
  using S = CkptInstallReply;
  return cdr::fields(&S::accepted, &S::reason);
}

/// Fetch chunks by hash (restart path). The reply carries the subset the
/// store actually has; absent hashes are simply omitted.
struct CkptChunkGet {
  std::vector<CkptHash> hashes;

  bool operator==(const CkptChunkGet&) const = default;
};
constexpr auto wire_fields(const CkptChunkGet*) {
  return cdr::fields(&CkptChunkGet::hashes);
}

struct CkptChunkGetReply {
  std::vector<CkptChunkData> chunks;

  bool operator==(const CkptChunkGetReply&) const = default;
};
constexpr auto wire_fields(const CkptChunkGetReply*) {
  return cdr::fields(&CkptChunkGetReply::chunks);
}

/// Ask a store for the newest manifest of an (app, rank) line — the warm
/// prefetch of the preemption-by-migration path: the new host learns what
/// image the victim checkpointed without the GRM shipping the manifest.
struct CkptManifestQuery {
  AppId app;
  std::int32_t rank = 0;

  bool operator==(const CkptManifestQuery&) const = default;
};
constexpr auto wire_fields(const CkptManifestQuery*) {
  using S = CkptManifestQuery;
  return cdr::fields(&S::app, &S::rank);
}

struct CkptManifestQueryReply {
  bool found = false;
  CkptManifest manifest;

  bool operator==(const CkptManifestQueryReply&) const = default;
};
constexpr auto wire_fields(const CkptManifestQueryReply*) {
  using S = CkptManifestQueryReply;
  return cdr::fields(&S::found, &S::manifest);
}

/// Release recovery lines older than keep_from on a peer/agent store after a
/// newer line is complete everywhere (refcounted GC reclaims chunk bytes).
struct CkptPrune {
  AppId app;
  std::int64_t keep_from = 0;

  bool operator==(const CkptPrune&) const = default;
};
constexpr auto wire_fields(const CkptPrune*) {
  using S = CkptPrune;
  return cdr::fields(&S::app, &S::keep_from);
}

struct CkptDrop {
  AppId app;

  bool operator==(const CkptDrop&) const = default;
};
constexpr auto wire_fields(const CkptDrop*) {
  return cdr::fields(&CkptDrop::app);
}

/// Coordinator -> rank agent: capture superstep `version` and persist it to
/// the repository store plus the listed peer stores; report to `notify`.
struct CkptSaveRequest {
  AppId app;
  std::int32_t rank = 0;
  std::int64_t version = 0;
  std::uint64_t epoch = 0;  // coordinator recovery epoch (stales old replies)
  std::int64_t image_bytes = 0;  // checkpoint image size (task descriptor)
  orb::ObjectRef repository;
  std::vector<orb::ObjectRef> peers;
  std::int64_t prune_below = -1;
  orb::ObjectRef notify;

  bool operator==(const CkptSaveRequest&) const = default;
};
constexpr auto wire_fields(const CkptSaveRequest*) {
  using S = CkptSaveRequest;
  return cdr::fields(&S::app, &S::rank, &S::version, &S::epoch, &S::image_bytes,
                     &S::repository, &S::peers, &S::prune_below, &S::notify);
}

struct CkptSaveDone {
  AppId app;
  std::int32_t rank = 0;
  std::int64_t version = 0;
  std::uint64_t epoch = 0;
  bool ok = false;
  std::int64_t image_bytes = 0;
  std::int32_t chunks_total = 0;
  std::int32_t chunks_shipped = 0;   // actually sent to repository + peers
  std::int32_t chunks_deduped = 0;   // already present at every destination
  std::int64_t bytes_shipped = 0;    // payload bytes that crossed the wire

  bool operator==(const CkptSaveDone&) const = default;
};
constexpr auto wire_fields(const CkptSaveDone*) {
  using S = CkptSaveDone;
  return cdr::fields(&S::app, &S::rank, &S::version, &S::epoch, &S::ok,
                     &S::image_bytes, &S::chunks_total, &S::chunks_shipped,
                     &S::chunks_deduped, &S::bytes_shipped);
}

/// Coordinator -> rank agent (rollback): materialize `manifest` locally,
/// pulling missing chunks peers-first, repository as fallback.
struct CkptRestoreRequest {
  AppId app;
  std::int32_t rank = 0;
  std::int64_t version = 0;
  std::uint64_t epoch = 0;
  CkptManifest manifest;
  orb::ObjectRef repository;
  std::vector<orb::ObjectRef> peers;
  orb::ObjectRef notify;

  bool operator==(const CkptRestoreRequest&) const = default;
};
constexpr auto wire_fields(const CkptRestoreRequest*) {
  using S = CkptRestoreRequest;
  return cdr::fields(&S::app, &S::rank, &S::version, &S::epoch, &S::manifest,
                     &S::repository, &S::peers, &S::notify);
}

struct CkptRestoreDone {
  AppId app;
  std::int32_t rank = 0;
  std::int64_t version = 0;
  std::uint64_t epoch = 0;
  bool ok = false;
  std::int32_t chunks_local = 0;            // already in the local store
  std::int32_t chunks_from_peers = 0;
  std::int32_t chunks_from_repository = 0;
  std::int64_t bytes_pulled = 0;

  bool operator==(const CkptRestoreDone&) const = default;
};
constexpr auto wire_fields(const CkptRestoreDone*) {
  using S = CkptRestoreDone;
  return cdr::fields(&S::app, &S::rank, &S::version, &S::epoch, &S::ok,
                     &S::chunks_local, &S::chunks_from_peers,
                     &S::chunks_from_repository, &S::bytes_pulled);
}

// ---------------------------------------------------------------------------
// Usage Pattern Protocol (LUPA -> GUPA, GRM -> GUPA)
// ---------------------------------------------------------------------------

/// One behavioural category discovered by a node's LUPA: the centroid of a
/// cluster of observed day-vectors (48 half-hour mean CPU loads) plus its
/// empirical weight. Raw samples never leave the node — only these
/// centroids do (privacy, paper §3/§4).
struct UsageCategory {
  std::vector<double> centroid;  // 48 half-hour mean owner-CPU values
  double weight = 0.0;           // fraction of observed days in the category
  /// Mean weekday indicator per category helps map categories to the weekly
  /// cycle (e.g. "weekend" category).
  double weekday_fraction = 0.0;

  bool operator==(const UsageCategory&) const = default;
};
constexpr auto wire_fields(const UsageCategory*) {
  using S = UsageCategory;
  return cdr::fields(&S::centroid, &S::weight, &S::weekday_fraction);
}

struct UsagePatternUpload {
  NodeId node;
  std::vector<UsageCategory> categories;
  std::int32_t days_observed = 0;

  bool operator==(const UsagePatternUpload&) const = default;
};
constexpr auto wire_fields(const UsagePatternUpload*) {
  using S = UsagePatternUpload;
  return cdr::fields(&S::node, &S::categories, &S::days_observed);
}

struct ForecastRequest {
  NodeId node;
  SimTime at = 0;           // "now" from the asker's viewpoint
  SimDuration horizon = 0;  // will the node stay idle this long?

  bool operator==(const ForecastRequest&) const = default;
};
constexpr auto wire_fields(const ForecastRequest*) {
  using S = ForecastRequest;
  return cdr::fields(&S::node, &S::at, &S::horizon);
}

struct ForecastReply {
  NodeId node;
  bool known = false;          // false: GUPA has no pattern for this node
  double p_idle_through = 0.0; // P(owner stays away for the whole horizon)
  SimDuration expected_idle_remaining = 0;

  bool operator==(const ForecastReply&) const = default;
};
constexpr auto wire_fields(const ForecastReply*) {
  using S = ForecastReply;
  return cdr::fields(&S::node, &S::known, &S::p_idle_through,
                     &S::expected_idle_remaining);
}

}  // namespace integrade::protocol
