#include "protocol/messages.hpp"

namespace integrade::protocol {

const char* app_kind_name(AppKind k) {
  switch (k) {
    case AppKind::kSequential: return "sequential";
    case AppKind::kParametric: return "parametric";
    case AppKind::kBsp: return "bsp";
  }
  return "?";
}

const char* app_event_kind_name(AppEventKind k) {
  switch (k) {
    case AppEventKind::kTaskScheduled: return "task_scheduled";
    case AppEventKind::kTaskCompleted: return "task_completed";
    case AppEventKind::kTaskEvicted: return "task_evicted";
    case AppEventKind::kTaskRescheduled: return "task_rescheduled";
    case AppEventKind::kAppCompleted: return "app_completed";
    case AppEventKind::kAppFailed: return "app_failed";
  }
  return "?";
}

const char* task_outcome_name(TaskOutcome o) {
  switch (o) {
    case TaskOutcome::kCompleted: return "completed";
    case TaskOutcome::kEvicted: return "evicted";
    case TaskOutcome::kNodeFailed: return "node_failed";
    case TaskOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

}  // namespace integrade::protocol

namespace integrade::cdr {

using namespace integrade::protocol;

namespace {

void encode_string_seq(Writer& w, const std::vector<std::string>& items) {
  w.write_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& s : items) w.write_string(s);
}

std::vector<std::string> decode_string_seq(Reader& r) {
  const std::uint32_t n = r.read_u32();
  std::vector<std::string> items;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) items.push_back(r.read_string());
  return items;
}

void encode_double_seq(Writer& w, const std::vector<double>& items) {
  w.write_u32(static_cast<std::uint32_t>(items.size()));
  for (double d : items) w.write_f64(d);
}

std::vector<double> decode_double_seq(Reader& r) {
  const std::uint32_t n = r.read_u32();
  std::vector<double> items;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) items.push_back(r.read_f64());
  return items;
}

}  // namespace

void Codec<NodeStatus>::encode(Writer& w, const NodeStatus& v) {
  w.write_id(v.node);
  Codec<orb::ObjectRef>::encode(w, v.lrm);
  w.write_string(v.hostname);
  w.write_f64(v.cpu_mips);
  w.write_i64(v.ram_total);
  w.write_i64(v.disk_total);
  w.write_string(v.os);
  w.write_string(v.arch);
  encode_string_seq(w, v.platforms);
  w.write_i32(v.segment);
  w.write_bool(v.dedicated);
  w.write_f64(v.owner_cpu);
  w.write_f64(v.grid_cpu);
  w.write_f64(v.exportable_cpu);
  w.write_i64(v.free_ram);
  w.write_bool(v.owner_present);
  w.write_bool(v.shareable);
  w.write_i32(v.running_tasks);
  w.write_i64(v.timestamp);
}

NodeStatus Codec<NodeStatus>::decode(Reader& r) {
  NodeStatus v;
  v.node = r.read_id<NodeTag>();
  v.lrm = Codec<orb::ObjectRef>::decode(r);
  v.hostname = r.read_string();
  v.cpu_mips = r.read_f64();
  v.ram_total = r.read_i64();
  v.disk_total = r.read_i64();
  v.os = r.read_string();
  v.arch = r.read_string();
  v.platforms = decode_string_seq(r);
  v.segment = r.read_i32();
  v.dedicated = r.read_bool();
  v.owner_cpu = r.read_f64();
  v.grid_cpu = r.read_f64();
  v.exportable_cpu = r.read_f64();
  v.free_ram = r.read_i64();
  v.owner_present = r.read_bool();
  v.shareable = r.read_bool();
  v.running_tasks = r.read_i32();
  v.timestamp = r.read_i64();
  return v;
}

void Codec<TaskResync>::encode(Writer& w, const TaskResync& v) {
  w.write_id(v.node);
  Codec<orb::ObjectRef>::encode(w, v.lrm);
  w.write_u32(static_cast<std::uint32_t>(v.running.size()));
  for (const TaskId t : v.running) w.write_id(t);
}

TaskResync Codec<TaskResync>::decode(Reader& r) {
  TaskResync v;
  v.node = r.read_id<NodeTag>();
  v.lrm = Codec<orb::ObjectRef>::decode(r);
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    v.running.push_back(r.read_id<TaskTag>());
  }
  return v;
}

void Codec<SnapshotInstall>::encode(Writer& w, const SnapshotInstall& v) {
  w.write_octets(v.image);
}

SnapshotInstall Codec<SnapshotInstall>::decode(Reader& r) {
  SnapshotInstall v;
  v.image = r.read_octets();
  return v;
}

void Codec<SnapshotInstallReply>::encode(Writer& w,
                                         const SnapshotInstallReply& v) {
  w.write_bool(v.accepted);
  w.write_string(v.reason);
}

SnapshotInstallReply Codec<SnapshotInstallReply>::decode(Reader& r) {
  SnapshotInstallReply v;
  v.accepted = r.read_bool();
  v.reason = r.read_string();
  return v;
}

void Codec<TaskDescriptor>::encode(Writer& w, const TaskDescriptor& v) {
  w.write_id(v.id);
  w.write_id(v.app);
  w.write_u8(static_cast<std::uint8_t>(v.kind));
  w.write_string(v.binary_platform);
  w.write_f64(v.work);
  w.write_i64(v.ram_needed);
  w.write_i64(v.input_bytes);
  w.write_i64(v.output_bytes);
  w.write_i32(v.bsp_rank);
  w.write_i32(v.bsp_processes);
  w.write_i32(v.bsp_supersteps);
  w.write_i64(v.bsp_comm_bytes_per_step);
  w.write_i32(v.checkpoint_every);
  w.write_i64(v.checkpoint_bytes);
  w.write_i64(v.checkpoint_period);
}

TaskDescriptor Codec<TaskDescriptor>::decode(Reader& r) {
  TaskDescriptor v;
  v.id = r.read_id<TaskTag>();
  v.app = r.read_id<AppTag>();
  v.kind = static_cast<AppKind>(r.read_u8());
  v.binary_platform = r.read_string();
  v.work = r.read_f64();
  v.ram_needed = r.read_i64();
  v.input_bytes = r.read_i64();
  v.output_bytes = r.read_i64();
  v.bsp_rank = r.read_i32();
  v.bsp_processes = r.read_i32();
  v.bsp_supersteps = r.read_i32();
  v.bsp_comm_bytes_per_step = r.read_i64();
  v.checkpoint_every = r.read_i32();
  v.checkpoint_bytes = r.read_i64();
  v.checkpoint_period = r.read_i64();
  return v;
}

void Codec<ReservationRequest>::encode(Writer& w, const ReservationRequest& v) {
  w.write_id(v.id);
  w.write_id(v.task);
  w.write_f64(v.cpu_fraction);
  w.write_i64(v.ram);
  w.write_i64(v.hold);
  // Trailing bid extension: written only when a bid is present, so a
  // bid-less request is byte-identical to the pre-economy frame.
  if (v.has_bid()) {
    w.write_string(v.tenant);
    w.write_f64(v.bid_budget);
    w.write_i64(v.bid_deadline);
  }
}

ReservationRequest Codec<ReservationRequest>::decode(Reader& r) {
  ReservationRequest v;
  v.id = r.read_id<ReservationTag>();
  v.task = r.read_id<TaskTag>();
  v.cpu_fraction = r.read_f64();
  v.ram = r.read_i64();
  v.hold = r.read_i64();
  if (r.ok() && r.remaining() > 0) {
    v.tenant = r.read_string();
    v.bid_budget = r.read_f64();
    v.bid_deadline = r.read_i64();
  }
  return v;
}

void Codec<ReservationReply>::encode(Writer& w, const ReservationReply& v) {
  w.write_id(v.id);
  w.write_bool(v.granted);
  w.write_string(v.reason);
  w.write_f64(v.exportable_cpu);
  w.write_i64(v.free_ram);
}

ReservationReply Codec<ReservationReply>::decode(Reader& r) {
  ReservationReply v;
  v.id = r.read_id<ReservationTag>();
  v.granted = r.read_bool();
  v.reason = r.read_string();
  v.exportable_cpu = r.read_f64();
  v.free_ram = r.read_i64();
  return v;
}

void Codec<ExecuteRequest>::encode(Writer& w, const ExecuteRequest& v) {
  w.write_id(v.reservation);
  Codec<TaskDescriptor>::encode(w, v.task);
  Codec<orb::ObjectRef>::encode(w, v.report_to);
  w.write_octets(v.restore_state);
  // Trailing warm-restore extension (preemption-by-migration): absent when
  // there are no peer stores to prefetch from, keeping the frame identical
  // to the pre-economy bytes.
  if (!v.ckpt_peers.empty()) {
    w.write_u32(static_cast<std::uint32_t>(v.ckpt_peers.size()));
    for (const auto& peer : v.ckpt_peers) Codec<orb::ObjectRef>::encode(w, peer);
  }
}

ExecuteRequest Codec<ExecuteRequest>::decode(Reader& r) {
  ExecuteRequest v;
  v.reservation = r.read_id<ReservationTag>();
  v.task = Codec<TaskDescriptor>::decode(r);
  v.report_to = Codec<orb::ObjectRef>::decode(r);
  v.restore_state = r.read_octets();
  if (r.ok() && r.remaining() > 0) {
    const std::uint32_t n = r.read_u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      v.ckpt_peers.push_back(Codec<orb::ObjectRef>::decode(r));
    }
  }
  return v;
}

void Codec<ExecuteReply>::encode(Writer& w, const ExecuteReply& v) {
  w.write_id(v.reservation);
  w.write_bool(v.accepted);
  w.write_string(v.reason);
}

ExecuteReply Codec<ExecuteReply>::decode(Reader& r) {
  ExecuteReply v;
  v.reservation = r.read_id<ReservationTag>();
  v.accepted = r.read_bool();
  v.reason = r.read_string();
  return v;
}

void Codec<TaskReport>::encode(Writer& w, const TaskReport& v) {
  w.write_id(v.task);
  w.write_id(v.node);
  w.write_u8(static_cast<std::uint8_t>(v.outcome));
  w.write_f64(v.work_done);
  w.write_string(v.detail);
}

TaskReport Codec<TaskReport>::decode(Reader& r) {
  TaskReport v;
  v.task = r.read_id<TaskTag>();
  v.node = r.read_id<NodeTag>();
  v.outcome = static_cast<TaskOutcome>(r.read_u8());
  v.work_done = r.read_f64();
  v.detail = r.read_string();
  return v;
}

void Codec<UsageCategory>::encode(Writer& w, const UsageCategory& v) {
  encode_double_seq(w, v.centroid);
  w.write_f64(v.weight);
  w.write_f64(v.weekday_fraction);
}

UsageCategory Codec<UsageCategory>::decode(Reader& r) {
  UsageCategory v;
  v.centroid = decode_double_seq(r);
  v.weight = r.read_f64();
  v.weekday_fraction = r.read_f64();
  return v;
}

void Codec<UsagePatternUpload>::encode(Writer& w, const UsagePatternUpload& v) {
  w.write_id(v.node);
  encode_sequence(w, v.categories);
  w.write_i32(v.days_observed);
}

UsagePatternUpload Codec<UsagePatternUpload>::decode(Reader& r) {
  UsagePatternUpload v;
  v.node = r.read_id<NodeTag>();
  v.categories = decode_sequence<UsageCategory>(r);
  v.days_observed = r.read_i32();
  return v;
}

void Codec<ForecastRequest>::encode(Writer& w, const ForecastRequest& v) {
  w.write_id(v.node);
  w.write_i64(v.at);
  w.write_i64(v.horizon);
}

ForecastRequest Codec<ForecastRequest>::decode(Reader& r) {
  ForecastRequest v;
  v.node = r.read_id<NodeTag>();
  v.at = r.read_i64();
  v.horizon = r.read_i64();
  return v;
}

void Codec<ForecastReply>::encode(Writer& w, const ForecastReply& v) {
  w.write_id(v.node);
  w.write_bool(v.known);
  w.write_f64(v.p_idle_through);
  w.write_i64(v.expected_idle_remaining);
}

ForecastReply Codec<ForecastReply>::decode(Reader& r) {
  ForecastReply v;
  v.node = r.read_id<NodeTag>();
  v.known = r.read_bool();
  v.p_idle_through = r.read_f64();
  v.expected_idle_remaining = r.read_i64();
  return v;
}

void Codec<ResourceRequirements>::encode(Writer& w, const ResourceRequirements& v) {
  w.write_string(v.constraint);
  w.write_string(v.preference);
}

ResourceRequirements Codec<ResourceRequirements>::decode(Reader& r) {
  ResourceRequirements v;
  v.constraint = r.read_string();
  v.preference = r.read_string();
  return v;
}

void Codec<TopologyGroup>::encode(Writer& w, const TopologyGroup& v) {
  w.write_i32(v.nodes);
  w.write_f64(v.min_intra_bandwidth);
}

TopologyGroup Codec<TopologyGroup>::decode(Reader& r) {
  TopologyGroup v;
  v.nodes = r.read_i32();
  v.min_intra_bandwidth = r.read_f64();
  return v;
}

void Codec<TopologySpec>::encode(Writer& w, const TopologySpec& v) {
  encode_sequence(w, v.groups);
  w.write_f64(v.min_inter_bandwidth);
}

TopologySpec Codec<TopologySpec>::decode(Reader& r) {
  TopologySpec v;
  v.groups = decode_sequence<TopologyGroup>(r);
  v.min_inter_bandwidth = r.read_f64();
  return v;
}

void Codec<ApplicationSpec>::encode_base(Writer& w, const ApplicationSpec& v) {
  w.write_id(v.id);
  w.write_string(v.name);
  w.write_u8(static_cast<std::uint8_t>(v.kind));
  encode_sequence(w, v.tasks);
  Codec<ResourceRequirements>::encode(w, v.requirements);
  Codec<TopologySpec>::encode(w, v.topology);
  w.write_i64(v.estimated_duration);
  Codec<orb::ObjectRef>::encode(w, v.notify);
}

ApplicationSpec Codec<ApplicationSpec>::decode_base(Reader& r) {
  ApplicationSpec v;
  v.id = r.read_id<AppTag>();
  v.name = r.read_string();
  v.kind = static_cast<AppKind>(r.read_u8());
  v.tasks = decode_sequence<TaskDescriptor>(r);
  v.requirements = Codec<ResourceRequirements>::decode(r);
  v.topology = Codec<TopologySpec>::decode(r);
  v.estimated_duration = r.read_i64();
  v.notify = Codec<orb::ObjectRef>::decode(r);
  return v;
}

void Codec<ApplicationSpec>::encode(Writer& w, const ApplicationSpec& v) {
  encode_base(w, v);
  // Trailing tenant/bid extension on the submit frame: a spec without a bid
  // encodes to exactly the pre-economy bytes.
  if (v.has_bid()) {
    w.write_string(v.tenant);
    w.write_f64(v.bid_budget);
    w.write_i64(v.bid_deadline);
  }
}

ApplicationSpec Codec<ApplicationSpec>::decode(Reader& r) {
  ApplicationSpec v = decode_base(r);
  if (r.ok() && r.remaining() > 0) {
    v.tenant = r.read_string();
    v.bid_budget = r.read_f64();
    v.bid_deadline = r.read_i64();
  }
  return v;
}

void Codec<SubmitReply>::encode(Writer& w, const SubmitReply& v) {
  w.write_id(v.app);
  w.write_bool(v.accepted);
  w.write_string(v.reason);
}

SubmitReply Codec<SubmitReply>::decode(Reader& r) {
  SubmitReply v;
  v.app = r.read_id<AppTag>();
  v.accepted = r.read_bool();
  v.reason = r.read_string();
  return v;
}

void Codec<AppEvent>::encode(Writer& w, const AppEvent& v) {
  w.write_id(v.app);
  w.write_id(v.task);
  w.write_u8(static_cast<std::uint8_t>(v.kind));
  w.write_id(v.node);
  w.write_i64(v.at);
  w.write_string(v.detail);
}

AppEvent Codec<AppEvent>::decode(Reader& r) {
  AppEvent v;
  v.app = r.read_id<AppTag>();
  v.task = r.read_id<TaskTag>();
  v.kind = static_cast<AppEventKind>(r.read_u8());
  v.node = r.read_id<NodeTag>();
  v.at = r.read_i64();
  v.detail = r.read_string();
  return v;
}

void Codec<BspComputeRequest>::encode(Writer& w, const BspComputeRequest& v) {
  w.write_id(v.task);
  w.write_i32(v.rank);
  w.write_i64(v.superstep);
  w.write_f64(v.work);
  Codec<orb::ObjectRef>::encode(w, v.notify);
}

BspComputeRequest Codec<BspComputeRequest>::decode(Reader& r) {
  BspComputeRequest v;
  v.task = r.read_id<TaskTag>();
  v.rank = r.read_i32();
  v.superstep = r.read_i64();
  v.work = r.read_f64();
  v.notify = Codec<orb::ObjectRef>::decode(r);
  return v;
}

void Codec<ClusterSummary>::encode(Writer& w, const ClusterSummary& v) {
  w.write_id(v.cluster);
  Codec<orb::ObjectRef>::encode(w, v.grm);
  w.write_i32(v.total_nodes);
  w.write_i32(v.shareable_nodes);
  w.write_f64(v.total_exportable_mips);
  w.write_i64(v.max_free_ram_mb);
  encode_string_seq(w, v.platforms);
  w.write_i64(v.timestamp);
}

ClusterSummary Codec<ClusterSummary>::decode(Reader& r) {
  ClusterSummary v;
  v.cluster = r.read_id<ClusterTag>();
  v.grm = Codec<orb::ObjectRef>::decode(r);
  v.total_nodes = r.read_i32();
  v.shareable_nodes = r.read_i32();
  v.total_exportable_mips = r.read_f64();
  v.max_free_ram_mb = r.read_i64();
  v.platforms = decode_string_seq(r);
  v.timestamp = r.read_i64();
  return v;
}

void Codec<RemoteSubmit>::encode(Writer& w, const RemoteSubmit& v) {
  // The nested spec uses the base (extension-free) layout; the bid rides a
  // trailing extension on *this* frame, so the pre-economy wire bytes are
  // reproduced exactly when no bid is present.
  Codec<ApplicationSpec>::encode_base(w, v.spec);
  w.write_i32(v.ttl);
  w.write_u32(static_cast<std::uint32_t>(v.visited_clusters.size()));
  for (auto c : v.visited_clusters) w.write_u64(c);
  Codec<orb::ObjectRef>::encode(w, v.origin_grm);
  if (v.spec.has_bid()) {
    w.write_string(v.spec.tenant);
    w.write_f64(v.spec.bid_budget);
    w.write_i64(v.spec.bid_deadline);
  }
}

RemoteSubmit Codec<RemoteSubmit>::decode(Reader& r) {
  RemoteSubmit v;
  v.spec = Codec<ApplicationSpec>::decode_base(r);
  v.ttl = r.read_i32();
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    v.visited_clusters.push_back(r.read_u64());
  }
  v.origin_grm = Codec<orb::ObjectRef>::decode(r);
  if (r.ok() && r.remaining() > 0) {
    v.spec.tenant = r.read_string();
    v.spec.bid_budget = r.read_f64();
    v.spec.bid_deadline = r.read_i64();
  }
  return v;
}

void Codec<RemoteAdopted>::encode(Writer& w, const RemoteAdopted& v) {
  w.write_id(v.app);
  w.write_id(v.task);
  w.write_id(v.by_cluster);
  w.write_i32(v.hops);
}

RemoteAdopted Codec<RemoteAdopted>::decode(Reader& r) {
  RemoteAdopted v;
  v.app = r.read_id<AppTag>();
  v.task = r.read_id<TaskTag>();
  v.by_cluster = r.read_id<ClusterTag>();
  v.hops = r.read_i32();
  return v;
}

void Codec<BspChunkDone>::encode(Writer& w, const BspChunkDone& v) {
  w.write_id(v.task);
  w.write_i32(v.rank);
  w.write_i64(v.superstep);
  w.write_id(v.node);
}

BspChunkDone Codec<BspChunkDone>::decode(Reader& r) {
  BspChunkDone v;
  v.task = r.read_id<TaskTag>();
  v.rank = r.read_i32();
  v.superstep = r.read_i64();
  v.node = r.read_id<NodeTag>();
  return v;
}

// --- Checkpoint data plane --------------------------------------------------

namespace {

void encode_hash(Writer& w, const CkptHash& h) {
  for (std::uint8_t b : h) w.write_u8(b);
}

CkptHash decode_hash(Reader& r) {
  CkptHash h{};
  for (auto& b : h) b = r.read_u8();
  return h;
}

void encode_ref_seq(Writer& w, const std::vector<orb::ObjectRef>& refs) {
  w.write_u32(static_cast<std::uint32_t>(refs.size()));
  for (const auto& ref : refs) Codec<orb::ObjectRef>::encode(w, ref);
}

std::vector<orb::ObjectRef> decode_ref_seq(Reader& r) {
  const std::uint32_t n = r.read_u32();
  std::vector<orb::ObjectRef> refs;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    refs.push_back(Codec<orb::ObjectRef>::decode(r));
  }
  return refs;
}

}  // namespace

void Codec<CkptChunkRef>::encode(Writer& w, const CkptChunkRef& v) {
  encode_hash(w, v.hash);
  w.write_u32(v.raw_size);
}

CkptChunkRef Codec<CkptChunkRef>::decode(Reader& r) {
  CkptChunkRef v;
  v.hash = decode_hash(r);
  v.raw_size = r.read_u32();
  return v;
}

void Codec<CkptManifest>::encode(Writer& w, const CkptManifest& v) {
  w.write_id(v.app);
  w.write_i32(v.rank);
  w.write_i64(v.version);
  w.write_u8(v.chunker);
  w.write_u32(v.chunk_size);
  w.write_u64(v.image_bytes);
  w.write_u32(static_cast<std::uint32_t>(v.chunks.size()));
  for (const auto& c : v.chunks) Codec<CkptChunkRef>::encode(w, c);
}

CkptManifest Codec<CkptManifest>::decode(Reader& r) {
  CkptManifest v;
  v.app = r.read_id<AppTag>();
  v.rank = r.read_i32();
  v.version = r.read_i64();
  v.chunker = r.read_u8();
  v.chunk_size = r.read_u32();
  v.image_bytes = r.read_u64();
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    v.chunks.push_back(Codec<CkptChunkRef>::decode(r));
  }
  return v;
}

void Codec<CkptManifestOffer>::encode(Writer& w, const CkptManifestOffer& v) {
  Codec<CkptManifest>::encode(w, v.manifest);
}

CkptManifestOffer Codec<CkptManifestOffer>::decode(Reader& r) {
  CkptManifestOffer v;
  v.manifest = Codec<CkptManifest>::decode(r);
  return v;
}

void Codec<CkptChunkNeed>::encode(Writer& w, const CkptChunkNeed& v) {
  w.write_bool(v.accepted);
  w.write_string(v.reason);
  w.write_u32(static_cast<std::uint32_t>(v.missing.size()));
  for (auto i : v.missing) w.write_u32(i);
}

CkptChunkNeed Codec<CkptChunkNeed>::decode(Reader& r) {
  CkptChunkNeed v;
  v.accepted = r.read_bool();
  v.reason = r.read_string();
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) v.missing.push_back(r.read_u32());
  return v;
}

void Codec<CkptChunkData>::encode(Writer& w, const CkptChunkData& v) {
  encode_hash(w, v.hash);
  w.write_u8(v.encoding);
  w.write_u32(v.raw_size);
  w.write_octets(v.payload);
}

CkptChunkData Codec<CkptChunkData>::decode(Reader& r) {
  CkptChunkData v;
  v.hash = decode_hash(r);
  v.encoding = r.read_u8();
  v.raw_size = r.read_u32();
  v.payload = r.read_octets();
  return v;
}

void Codec<CkptChunkPut>::encode(Writer& w, const CkptChunkPut& v) {
  w.write_id(v.app);
  w.write_u32(static_cast<std::uint32_t>(v.chunks.size()));
  for (const auto& c : v.chunks) Codec<CkptChunkData>::encode(w, c);
}

CkptChunkPut Codec<CkptChunkPut>::decode(Reader& r) {
  CkptChunkPut v;
  v.app = r.read_id<AppTag>();
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    v.chunks.push_back(Codec<CkptChunkData>::decode(r));
  }
  return v;
}

void Codec<CkptPutReply>::encode(Writer& w, const CkptPutReply& v) {
  w.write_i32(v.stored);
  w.write_i32(v.rejected);
}

CkptPutReply Codec<CkptPutReply>::decode(Reader& r) {
  CkptPutReply v;
  v.stored = r.read_i32();
  v.rejected = r.read_i32();
  return v;
}

void Codec<CkptManifestInstall>::encode(Writer& w, const CkptManifestInstall& v) {
  Codec<CkptManifest>::encode(w, v.manifest);
  w.write_i64(v.prune_below);
}

CkptManifestInstall Codec<CkptManifestInstall>::decode(Reader& r) {
  CkptManifestInstall v;
  v.manifest = Codec<CkptManifest>::decode(r);
  v.prune_below = r.read_i64();
  return v;
}

void Codec<CkptInstallReply>::encode(Writer& w, const CkptInstallReply& v) {
  w.write_bool(v.accepted);
  w.write_string(v.reason);
}

CkptInstallReply Codec<CkptInstallReply>::decode(Reader& r) {
  CkptInstallReply v;
  v.accepted = r.read_bool();
  v.reason = r.read_string();
  return v;
}

void Codec<PreemptRequest>::encode(Writer& w, const PreemptRequest& v) {
  w.write_id(v.task);
  w.write_u32(static_cast<std::uint32_t>(v.peers.size()));
  for (const auto& peer : v.peers) Codec<orb::ObjectRef>::encode(w, peer);
}

PreemptRequest Codec<PreemptRequest>::decode(Reader& r) {
  PreemptRequest v;
  v.task = r.read_id<TaskTag>();
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    v.peers.push_back(Codec<orb::ObjectRef>::decode(r));
  }
  return v;
}

void Codec<CkptManifestQuery>::encode(Writer& w, const CkptManifestQuery& v) {
  w.write_id(v.app);
  w.write_i32(v.rank);
}

CkptManifestQuery Codec<CkptManifestQuery>::decode(Reader& r) {
  CkptManifestQuery v;
  v.app = r.read_id<AppTag>();
  v.rank = r.read_i32();
  return v;
}

void Codec<CkptManifestQueryReply>::encode(Writer& w,
                                           const CkptManifestQueryReply& v) {
  w.write_bool(v.found);
  Codec<CkptManifest>::encode(w, v.manifest);
}

CkptManifestQueryReply Codec<CkptManifestQueryReply>::decode(Reader& r) {
  CkptManifestQueryReply v;
  v.found = r.read_bool();
  v.manifest = Codec<CkptManifest>::decode(r);
  return v;
}

void Codec<CkptChunkGet>::encode(Writer& w, const CkptChunkGet& v) {
  w.write_u32(static_cast<std::uint32_t>(v.hashes.size()));
  for (const auto& h : v.hashes) encode_hash(w, h);
}

CkptChunkGet Codec<CkptChunkGet>::decode(Reader& r) {
  CkptChunkGet v;
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) v.hashes.push_back(decode_hash(r));
  return v;
}

void Codec<CkptChunkGetReply>::encode(Writer& w, const CkptChunkGetReply& v) {
  w.write_u32(static_cast<std::uint32_t>(v.chunks.size()));
  for (const auto& c : v.chunks) Codec<CkptChunkData>::encode(w, c);
}

CkptChunkGetReply Codec<CkptChunkGetReply>::decode(Reader& r) {
  CkptChunkGetReply v;
  const std::uint32_t n = r.read_u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    v.chunks.push_back(Codec<CkptChunkData>::decode(r));
  }
  return v;
}

void Codec<CkptSaveRequest>::encode(Writer& w, const CkptSaveRequest& v) {
  w.write_id(v.app);
  w.write_i32(v.rank);
  w.write_i64(v.version);
  w.write_u64(v.epoch);
  w.write_i64(v.image_bytes);
  Codec<orb::ObjectRef>::encode(w, v.repository);
  encode_ref_seq(w, v.peers);
  w.write_i64(v.prune_below);
  Codec<orb::ObjectRef>::encode(w, v.notify);
}

CkptSaveRequest Codec<CkptSaveRequest>::decode(Reader& r) {
  CkptSaveRequest v;
  v.app = r.read_id<AppTag>();
  v.rank = r.read_i32();
  v.version = r.read_i64();
  v.epoch = r.read_u64();
  v.image_bytes = r.read_i64();
  v.repository = Codec<orb::ObjectRef>::decode(r);
  v.peers = decode_ref_seq(r);
  v.prune_below = r.read_i64();
  v.notify = Codec<orb::ObjectRef>::decode(r);
  return v;
}

void Codec<CkptSaveDone>::encode(Writer& w, const CkptSaveDone& v) {
  w.write_id(v.app);
  w.write_i32(v.rank);
  w.write_i64(v.version);
  w.write_u64(v.epoch);
  w.write_bool(v.ok);
  w.write_i64(v.image_bytes);
  w.write_i32(v.chunks_total);
  w.write_i32(v.chunks_shipped);
  w.write_i32(v.chunks_deduped);
  w.write_i64(v.bytes_shipped);
}

CkptSaveDone Codec<CkptSaveDone>::decode(Reader& r) {
  CkptSaveDone v;
  v.app = r.read_id<AppTag>();
  v.rank = r.read_i32();
  v.version = r.read_i64();
  v.epoch = r.read_u64();
  v.ok = r.read_bool();
  v.image_bytes = r.read_i64();
  v.chunks_total = r.read_i32();
  v.chunks_shipped = r.read_i32();
  v.chunks_deduped = r.read_i32();
  v.bytes_shipped = r.read_i64();
  return v;
}

void Codec<CkptRestoreRequest>::encode(Writer& w, const CkptRestoreRequest& v) {
  w.write_id(v.app);
  w.write_i32(v.rank);
  w.write_i64(v.version);
  w.write_u64(v.epoch);
  Codec<CkptManifest>::encode(w, v.manifest);
  Codec<orb::ObjectRef>::encode(w, v.repository);
  encode_ref_seq(w, v.peers);
  Codec<orb::ObjectRef>::encode(w, v.notify);
}

CkptRestoreRequest Codec<CkptRestoreRequest>::decode(Reader& r) {
  CkptRestoreRequest v;
  v.app = r.read_id<AppTag>();
  v.rank = r.read_i32();
  v.version = r.read_i64();
  v.epoch = r.read_u64();
  v.manifest = Codec<CkptManifest>::decode(r);
  v.repository = Codec<orb::ObjectRef>::decode(r);
  v.peers = decode_ref_seq(r);
  v.notify = Codec<orb::ObjectRef>::decode(r);
  return v;
}

void Codec<CkptRestoreDone>::encode(Writer& w, const CkptRestoreDone& v) {
  w.write_id(v.app);
  w.write_i32(v.rank);
  w.write_i64(v.version);
  w.write_u64(v.epoch);
  w.write_bool(v.ok);
  w.write_i32(v.chunks_local);
  w.write_i32(v.chunks_from_peers);
  w.write_i32(v.chunks_from_repository);
  w.write_i64(v.bytes_pulled);
}

CkptRestoreDone Codec<CkptRestoreDone>::decode(Reader& r) {
  CkptRestoreDone v;
  v.app = r.read_id<AppTag>();
  v.rank = r.read_i32();
  v.version = r.read_i64();
  v.epoch = r.read_u64();
  v.ok = r.read_bool();
  v.chunks_local = r.read_i32();
  v.chunks_from_peers = r.read_i32();
  v.chunks_from_repository = r.read_i32();
  v.bytes_pulled = r.read_i64();
  return v;
}

}  // namespace integrade::cdr
