// Wire messages of InteGrade's intra- and inter-cluster protocols.
//
// Three protocol families (paper §4):
//   * Information Update Protocol — LRMs push NodeStatus to their GRM
//     periodically; the GRM stores it in its Trader.
//   * Resource Reservation & Execution Protocol — the GRM picks candidate
//     nodes from (possibly stale) Trader state as a *hint*, then negotiates
//     directly: Reserve -> (granted) -> Execute -> ... -> TaskCompletion.
//   * Usage Pattern Protocol — LUPA uploads per-node behavioural categories
//     to the GUPA; the GRM asks the GUPA for idleness forecasts.
//
// Every struct here has a CDR codec (messages.cpp) and is round-trip tested
// in tests/protocol_test.cpp under both byte orders.
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

/// Periodic node status: the LRM's full self-description. Static fields are
/// resent each time (the paper's protocol is a stateless refresh, which
/// also serves as the LRM's liveness heartbeat).
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
  bool shareable = false;  // NCC verdict: accepting grid work right now
  std::int32_t running_tasks = 0;
  SimTime timestamp = 0;

  bool operator==(const NodeStatus&) const = default;
};

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

/// Virtual topology request (paper §3's "two groups of 50 nodes..." example).
struct TopologyGroup {
  std::int32_t nodes = 0;
  BytesPerSec min_intra_bandwidth = 0;  // within the group

  bool operator==(const TopologyGroup&) const = default;
};

struct TopologySpec {
  std::vector<TopologyGroup> groups;
  BytesPerSec min_inter_bandwidth = 0;  // between any two groups

  [[nodiscard]] bool empty() const { return groups.empty(); }
  bool operator==(const TopologySpec&) const = default;
};

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

  [[nodiscard]] bool has_bid() const {
    return !tenant.empty() || bid_budget != 0.0 || bid_deadline != 0;
  }

  bool operator==(const ApplicationSpec&) const = default;
};

struct SubmitReply {
  AppId app;
  bool accepted = false;
  std::string reason;

  bool operator==(const SubmitReply&) const = default;
};

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

struct BspChunkDone {
  TaskId task;
  std::int32_t rank = 0;
  std::int64_t superstep = 0;
  NodeId node;

  bool operator==(const BspChunkDone&) const = default;
};

struct CancelTask {
  TaskId task;
  bool operator==(const CancelTask&) const = default;
};

struct CancelApp {
  AppId app;
  bool operator==(const CancelApp&) const = default;
};

/// BOINC-style pull protocol: a worker asks the master for work and gets a
/// unit (or nothing). Defined here so the baseline speaks the same wire
/// format as everything else.
struct WorkReply {
  bool has_work = false;
  TaskDescriptor task;
  bool operator==(const WorkReply&) const = default;
};

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

struct RemoteAdopted {
  AppId app;
  TaskId task;
  ClusterId by_cluster;
  std::int32_t hops = 0;

  bool operator==(const RemoteAdopted&) const = default;
};

// ---------------------------------------------------------------------------
// Resource Reservation & Execution Protocol
// ---------------------------------------------------------------------------

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

struct ExecuteReply {
  ReservationId reservation;
  bool accepted = false;
  std::string reason;

  bool operator==(const ExecuteReply&) const = default;
};

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

/// A control-plane snapshot image (snapshot::Envelope wire bytes) shipped
/// from the primary's SnapshotCoordinator to the standby's SnapshotStore.
/// The image is opaque at this layer; the store validates the envelope
/// (magic, version, checksum) before applying it.
struct SnapshotInstall {
  std::vector<std::uint8_t> image;

  bool operator==(const SnapshotInstall&) const = default;
};

struct SnapshotInstallReply {
  bool accepted = false;
  std::string reason;  // on rejection: why (sequencing gap, bad checksum...)

  bool operator==(const SnapshotInstallReply&) const = default;
};

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

/// Sender -> store: "I want to install this manifest; which chunks do you
/// lack?" The reply's `missing` indexes into manifest.chunks.
struct CkptManifestOffer {
  CkptManifest manifest;

  bool operator==(const CkptManifestOffer&) const = default;
};

struct CkptChunkNeed {
  bool accepted = false;
  std::string reason;  // on rejection: version regression, malformed manifest
  std::vector<std::uint32_t> missing;

  bool operator==(const CkptChunkNeed&) const = default;
};

/// One chunk payload in transit: raw or LZ-compressed (ckpt::Encoding).
struct CkptChunkData {
  CkptHash hash{};
  std::uint8_t encoding = 0;
  std::uint32_t raw_size = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const CkptChunkData&) const = default;
};

struct CkptChunkPut {
  AppId app;  // for diagnostics; chunks are content-addressed, not per-app
  std::vector<CkptChunkData> chunks;

  bool operator==(const CkptChunkPut&) const = default;
};

struct CkptPutReply {
  std::int32_t stored = 0;
  std::int32_t rejected = 0;  // failed integrity verification

  bool operator==(const CkptPutReply&) const = default;
};

/// Commit a manifest at the destination store (all chunks must be present).
/// prune_below >= 0 additionally drops this rank's manifests with older
/// versions, releasing their chunk references.
struct CkptManifestInstall {
  CkptManifest manifest;
  std::int64_t prune_below = -1;

  bool operator==(const CkptManifestInstall&) const = default;
};

struct CkptInstallReply {
  bool accepted = false;
  std::string reason;

  bool operator==(const CkptInstallReply&) const = default;
};

/// Fetch chunks by hash (restart path). The reply carries the subset the
/// store actually has; absent hashes are simply omitted.
struct CkptChunkGet {
  std::vector<CkptHash> hashes;

  bool operator==(const CkptChunkGet&) const = default;
};

struct CkptChunkGetReply {
  std::vector<CkptChunkData> chunks;

  bool operator==(const CkptChunkGetReply&) const = default;
};

/// Ask a store for the newest manifest of an (app, rank) line — the warm
/// prefetch of the preemption-by-migration path: the new host learns what
/// image the victim checkpointed without the GRM shipping the manifest.
struct CkptManifestQuery {
  AppId app;
  std::int32_t rank = 0;

  bool operator==(const CkptManifestQuery&) const = default;
};

struct CkptManifestQueryReply {
  bool found = false;
  CkptManifest manifest;

  bool operator==(const CkptManifestQueryReply&) const = default;
};

/// Release recovery lines older than keep_from on a peer/agent store after a
/// newer line is complete everywhere (refcounted GC reclaims chunk bytes).
struct CkptPrune {
  AppId app;
  std::int64_t keep_from = 0;

  bool operator==(const CkptPrune&) const = default;
};

struct CkptDrop {
  AppId app;

  bool operator==(const CkptDrop&) const = default;
};

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

struct UsagePatternUpload {
  NodeId node;
  std::vector<UsageCategory> categories;
  std::int32_t days_observed = 0;

  bool operator==(const UsagePatternUpload&) const = default;
};

struct ForecastRequest {
  NodeId node;
  SimTime at;            // "now" from the asker's viewpoint
  SimDuration horizon;   // will the node stay idle this long?

  bool operator==(const ForecastRequest&) const = default;
};

struct ForecastReply {
  NodeId node;
  bool known = false;          // false: GUPA has no pattern for this node
  double p_idle_through = 0.0; // P(owner stays away for the whole horizon)
  SimDuration expected_idle_remaining = 0;

  bool operator==(const ForecastReply&) const = default;
};

}  // namespace integrade::protocol

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------
namespace integrade::cdr {

template <> struct Codec<protocol::NodeStatus> {
  static void encode(Writer& w, const protocol::NodeStatus& v);
  static protocol::NodeStatus decode(Reader& r);
};
template <> struct Codec<protocol::TaskDescriptor> {
  static void encode(Writer& w, const protocol::TaskDescriptor& v);
  static protocol::TaskDescriptor decode(Reader& r);
};
template <> struct Codec<protocol::ReservationRequest> {
  static void encode(Writer& w, const protocol::ReservationRequest& v);
  static protocol::ReservationRequest decode(Reader& r);
};
template <> struct Codec<protocol::ReservationReply> {
  static void encode(Writer& w, const protocol::ReservationReply& v);
  static protocol::ReservationReply decode(Reader& r);
};
template <> struct Codec<protocol::ExecuteRequest> {
  static void encode(Writer& w, const protocol::ExecuteRequest& v);
  static protocol::ExecuteRequest decode(Reader& r);
};
template <> struct Codec<protocol::ExecuteReply> {
  static void encode(Writer& w, const protocol::ExecuteReply& v);
  static protocol::ExecuteReply decode(Reader& r);
};
template <> struct Codec<protocol::TaskReport> {
  static void encode(Writer& w, const protocol::TaskReport& v);
  static protocol::TaskReport decode(Reader& r);
};
template <> struct Codec<protocol::PreemptRequest> {
  static void encode(Writer& w, const protocol::PreemptRequest& v);
  static protocol::PreemptRequest decode(Reader& r);
};
template <> struct Codec<protocol::CkptManifestQuery> {
  static void encode(Writer& w, const protocol::CkptManifestQuery& v);
  static protocol::CkptManifestQuery decode(Reader& r);
};
template <> struct Codec<protocol::CkptManifestQueryReply> {
  static void encode(Writer& w, const protocol::CkptManifestQueryReply& v);
  static protocol::CkptManifestQueryReply decode(Reader& r);
};
template <> struct Codec<protocol::UsageCategory> {
  static void encode(Writer& w, const protocol::UsageCategory& v);
  static protocol::UsageCategory decode(Reader& r);
};
template <> struct Codec<protocol::UsagePatternUpload> {
  static void encode(Writer& w, const protocol::UsagePatternUpload& v);
  static protocol::UsagePatternUpload decode(Reader& r);
};
template <> struct Codec<protocol::ForecastRequest> {
  static void encode(Writer& w, const protocol::ForecastRequest& v);
  static protocol::ForecastRequest decode(Reader& r);
};
template <> struct Codec<protocol::ForecastReply> {
  static void encode(Writer& w, const protocol::ForecastReply& v);
  static protocol::ForecastReply decode(Reader& r);
};
template <> struct Codec<protocol::ResourceRequirements> {
  static void encode(Writer& w, const protocol::ResourceRequirements& v);
  static protocol::ResourceRequirements decode(Reader& r);
};
template <> struct Codec<protocol::TopologyGroup> {
  static void encode(Writer& w, const protocol::TopologyGroup& v);
  static protocol::TopologyGroup decode(Reader& r);
};
template <> struct Codec<protocol::TopologySpec> {
  static void encode(Writer& w, const protocol::TopologySpec& v);
  static protocol::TopologySpec decode(Reader& r);
};
template <> struct Codec<protocol::ApplicationSpec> {
  static void encode(Writer& w, const protocol::ApplicationSpec& v);
  static protocol::ApplicationSpec decode(Reader& r);
  /// Pre-economy field set only, no trailing bid extension. Nesting
  /// contexts (RemoteSubmit, GRM snapshots) use these and append their own
  /// extension, so the outer frame stays unambiguous to old decoders.
  static void encode_base(Writer& w, const protocol::ApplicationSpec& v);
  static protocol::ApplicationSpec decode_base(Reader& r);
};
template <> struct Codec<protocol::SubmitReply> {
  static void encode(Writer& w, const protocol::SubmitReply& v);
  static protocol::SubmitReply decode(Reader& r);
};
template <> struct Codec<protocol::AppEvent> {
  static void encode(Writer& w, const protocol::AppEvent& v);
  static protocol::AppEvent decode(Reader& r);
};
template <> struct Codec<protocol::BspComputeRequest> {
  static void encode(Writer& w, const protocol::BspComputeRequest& v);
  static protocol::BspComputeRequest decode(Reader& r);
};
template <> struct Codec<protocol::BspChunkDone> {
  static void encode(Writer& w, const protocol::BspChunkDone& v);
  static protocol::BspChunkDone decode(Reader& r);
};
template <> struct Codec<protocol::WorkReply> {
  static void encode(Writer& w, const protocol::WorkReply& v) {
    w.write_bool(v.has_work);
    Codec<protocol::TaskDescriptor>::encode(w, v.task);
  }
  static protocol::WorkReply decode(Reader& r) {
    protocol::WorkReply v;
    v.has_work = r.read_bool();
    v.task = Codec<protocol::TaskDescriptor>::decode(r);
    return v;
  }
};
template <> struct Codec<protocol::ClusterSummary> {
  static void encode(Writer& w, const protocol::ClusterSummary& v);
  static protocol::ClusterSummary decode(Reader& r);
};
template <> struct Codec<protocol::RemoteSubmit> {
  static void encode(Writer& w, const protocol::RemoteSubmit& v);
  static protocol::RemoteSubmit decode(Reader& r);
};
template <> struct Codec<protocol::RemoteAdopted> {
  static void encode(Writer& w, const protocol::RemoteAdopted& v);
  static protocol::RemoteAdopted decode(Reader& r);
};
template <> struct Codec<protocol::CancelApp> {
  static void encode(Writer& w, const protocol::CancelApp& v) {
    w.write_id(v.app);
  }
  static protocol::CancelApp decode(Reader& r) {
    protocol::CancelApp v;
    v.app = r.read_id<AppTag>();
    return v;
  }
};
template <> struct Codec<protocol::TaskResync> {
  static void encode(Writer& w, const protocol::TaskResync& v);
  static protocol::TaskResync decode(Reader& r);
};
template <> struct Codec<protocol::SnapshotInstall> {
  static void encode(Writer& w, const protocol::SnapshotInstall& v);
  static protocol::SnapshotInstall decode(Reader& r);
};
template <> struct Codec<protocol::SnapshotInstallReply> {
  static void encode(Writer& w, const protocol::SnapshotInstallReply& v);
  static protocol::SnapshotInstallReply decode(Reader& r);
};
template <> struct Codec<protocol::CkptChunkRef> {
  static void encode(Writer& w, const protocol::CkptChunkRef& v);
  static protocol::CkptChunkRef decode(Reader& r);
};
template <> struct Codec<protocol::CkptManifest> {
  static void encode(Writer& w, const protocol::CkptManifest& v);
  static protocol::CkptManifest decode(Reader& r);
};
template <> struct Codec<protocol::CkptManifestOffer> {
  static void encode(Writer& w, const protocol::CkptManifestOffer& v);
  static protocol::CkptManifestOffer decode(Reader& r);
};
template <> struct Codec<protocol::CkptChunkNeed> {
  static void encode(Writer& w, const protocol::CkptChunkNeed& v);
  static protocol::CkptChunkNeed decode(Reader& r);
};
template <> struct Codec<protocol::CkptChunkData> {
  static void encode(Writer& w, const protocol::CkptChunkData& v);
  static protocol::CkptChunkData decode(Reader& r);
};
template <> struct Codec<protocol::CkptChunkPut> {
  static void encode(Writer& w, const protocol::CkptChunkPut& v);
  static protocol::CkptChunkPut decode(Reader& r);
};
template <> struct Codec<protocol::CkptPutReply> {
  static void encode(Writer& w, const protocol::CkptPutReply& v);
  static protocol::CkptPutReply decode(Reader& r);
};
template <> struct Codec<protocol::CkptManifestInstall> {
  static void encode(Writer& w, const protocol::CkptManifestInstall& v);
  static protocol::CkptManifestInstall decode(Reader& r);
};
template <> struct Codec<protocol::CkptInstallReply> {
  static void encode(Writer& w, const protocol::CkptInstallReply& v);
  static protocol::CkptInstallReply decode(Reader& r);
};
template <> struct Codec<protocol::CkptChunkGet> {
  static void encode(Writer& w, const protocol::CkptChunkGet& v);
  static protocol::CkptChunkGet decode(Reader& r);
};
template <> struct Codec<protocol::CkptChunkGetReply> {
  static void encode(Writer& w, const protocol::CkptChunkGetReply& v);
  static protocol::CkptChunkGetReply decode(Reader& r);
};
template <> struct Codec<protocol::CkptPrune> {
  static void encode(Writer& w, const protocol::CkptPrune& v) {
    w.write_id(v.app);
    w.write_i64(v.keep_from);
  }
  static protocol::CkptPrune decode(Reader& r) {
    protocol::CkptPrune v;
    v.app = r.read_id<AppTag>();
    v.keep_from = r.read_i64();
    return v;
  }
};
template <> struct Codec<protocol::CkptDrop> {
  static void encode(Writer& w, const protocol::CkptDrop& v) {
    w.write_id(v.app);
  }
  static protocol::CkptDrop decode(Reader& r) {
    protocol::CkptDrop v;
    v.app = r.read_id<AppTag>();
    return v;
  }
};
template <> struct Codec<protocol::CkptSaveRequest> {
  static void encode(Writer& w, const protocol::CkptSaveRequest& v);
  static protocol::CkptSaveRequest decode(Reader& r);
};
template <> struct Codec<protocol::CkptSaveDone> {
  static void encode(Writer& w, const protocol::CkptSaveDone& v);
  static protocol::CkptSaveDone decode(Reader& r);
};
template <> struct Codec<protocol::CkptRestoreRequest> {
  static void encode(Writer& w, const protocol::CkptRestoreRequest& v);
  static protocol::CkptRestoreRequest decode(Reader& r);
};
template <> struct Codec<protocol::CkptRestoreDone> {
  static void encode(Writer& w, const protocol::CkptRestoreDone& v);
  static protocol::CkptRestoreDone decode(Reader& r);
};
template <> struct Codec<protocol::CancelTask> {
  static void encode(Writer& w, const protocol::CancelTask& v) {
    w.write_id(v.task);
  }
  static protocol::CancelTask decode(Reader& r) {
    protocol::CancelTask v;
    v.task = r.read_id<TaskTag>();
    return v;
  }
};

}  // namespace integrade::cdr
