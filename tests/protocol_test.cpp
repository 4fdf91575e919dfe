// Wire types: exhaustive CDR round-trips in both byte orders, with the
// canonical-decoding checks (no trailing byte, no prefix that re-encodes to
// other bytes), plus the NodeStatus <-> Trader property-schema conversion.
#include <gtest/gtest.h>

#include "ckpt/repository.hpp"
#include "protocol/messages.hpp"
#include "protocol/properties.hpp"
#include "services/servants.hpp"
#include "services/trader.hpp"
#include "snapshot/state_codecs.hpp"

namespace integrade::protocol {
namespace {

template <class T>
void expect_round_trip(const T& value) {
  for (auto order :
       {cdr::ByteOrder::kLittleEndian, cdr::ByteOrder::kBigEndian}) {
    auto bytes = cdr::encode_message(value, order);
    auto decoded = cdr::decode_message<T>(bytes, order);
    ASSERT_TRUE(decoded.is_ok()) << "decode failed";
    EXPECT_EQ(decoded.value(), value);

    auto longer = bytes;
    longer.push_back(0);
    EXPECT_FALSE(cdr::decode_message<T>(longer, order).is_ok())
        << "accepted a trailing byte";

    // A proper prefix is either rejected or a shorter valid message (one
    // without its trailing extension) that re-encodes to exactly itself.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
      auto partial = cdr::decode_message<T>(prefix, order);
      if (partial.is_ok()) {
        ASSERT_EQ(cdr::encode_message(partial.value(), order), prefix)
            << "accepted a " << len << "-byte prefix that re-encodes differently";
      }
    }
  }
}

orb::ObjectRef sample_ref() {
  orb::ObjectRef ref;
  ref.host = 42;
  ref.key = ObjectId(17);
  ref.type_id = "IDL:integrade/Lrm:1.0";
  return ref;
}

NodeStatus sample_status() {
  NodeStatus s;
  s.node = NodeId(5);
  s.lrm = sample_ref();
  s.hostname = "lab-n5";
  s.cpu_mips = 1400.5;
  s.ram_total = 256 * kMiB;
  s.disk_total = 20 * kGiB;
  s.os = "linux";
  s.arch = "x86";
  s.platforms = {"linux-x86", "java"};
  s.segment = 2;
  s.dedicated = false;
  s.owner_cpu = 0.25;
  s.grid_cpu = 0.5;
  s.exportable_cpu = 0.25;
  s.free_ram = 100 * kMiB;
  s.owner_present = true;
  s.shareable = false;
  s.running_tasks = 2;
  s.timestamp = 123456789;
  return s;
}

TaskDescriptor sample_task() {
  TaskDescriptor t;
  t.id = TaskId(9);
  t.app = AppId(4);
  t.kind = AppKind::kBsp;
  t.binary_platform = "linux-x86";
  t.work = 1e6;
  t.ram_needed = 64 * kMiB;
  t.input_bytes = 1024;
  t.output_bytes = 2048;
  t.bsp_rank = 3;
  t.bsp_processes = 8;
  t.bsp_supersteps = 100;
  t.bsp_comm_bytes_per_step = 4096;
  t.checkpoint_every = 10;
  t.checkpoint_bytes = kMiB;
  t.checkpoint_period = 30 * kSecond;
  return t;
}

TEST(ProtocolRoundTrip, NodeStatus) { expect_round_trip(sample_status()); }

TEST(ProtocolRoundTrip, NodeLoad) {
  const NodeLoad load = load_of(sample_status());
  expect_round_trip(load);
  EXPECT_EQ(cdr::encode_message(load).size(), 104u);
}

// NodeLoad carries exactly NodeStatus's endpoint and dynamic fields.
TEST(ProtocolRoundTrip, LoadAppliesOnlyDynamicFields) {
  const NodeStatus source = sample_status();
  NodeStatus record;
  record.node = source.node;
  record.hostname = "registered";
  record.cpu_mips = 900.0;
  record.platforms = {"java"};
  record.segment = 5;
  record.dedicated = true;
  NodeStatus expected = source;
  expected.hostname = record.hostname;
  expected.cpu_mips = record.cpu_mips;
  expected.ram_total = record.ram_total;
  expected.disk_total = record.disk_total;
  expected.os = record.os;
  expected.arch = record.arch;
  expected.platforms = record.platforms;
  expected.segment = record.segment;
  expected.dedicated = record.dedicated;

  apply_load(load_of(source), record);
  EXPECT_EQ(record, expected);
}

TEST(ProtocolRoundTrip, FailoverMessages) {
  TaskResync resync;
  resync.node = NodeId(11);
  resync.lrm = sample_ref();
  resync.running = {TaskId(3), TaskId(5), TaskId(8)};
  expect_round_trip(resync);
  expect_round_trip(TaskResync{});

  SnapshotInstall install;
  install.image = {0x49, 0x47, 0x53, 0x4e, 1, 2, 3};
  expect_round_trip(install);
  expect_round_trip(SnapshotInstall{});

  SnapshotInstallReply accepted;
  accepted.accepted = true;
  expect_round_trip(accepted);
  SnapshotInstallReply rejected;
  rejected.accepted = false;
  rejected.reason = "checksum mismatch";
  expect_round_trip(rejected);
}

TEST(ProtocolRoundTrip, TaskDescriptor) { expect_round_trip(sample_task()); }

TEST(ProtocolRoundTrip, ReservationPair) {
  ReservationRequest req;
  req.id = ReservationId(11);
  req.task = TaskId(9);
  req.cpu_fraction = 0.8;
  req.ram = 32 * kMiB;
  req.hold = 45 * kSecond;
  expect_round_trip(req);

  ReservationReply reply;
  reply.id = ReservationId(11);
  reply.granted = false;
  reply.reason = "owner present";
  reply.exportable_cpu = 0.1;
  reply.free_ram = kMiB;
  expect_round_trip(reply);
}

TEST(ProtocolRoundTrip, ExecutePair) {
  ExecuteRequest req;
  req.reservation = ReservationId(11);
  req.task = sample_task();
  req.report_to = sample_ref();
  req.restore_state = {1, 2, 3, 4};
  expect_round_trip(req);

  ExecuteReply reply;
  reply.reservation = ReservationId(11);
  reply.accepted = true;
  expect_round_trip(reply);
}

TEST(ProtocolRoundTrip, TaskReport) {
  TaskReport report;
  report.task = TaskId(9);
  report.node = NodeId(5);
  report.outcome = TaskOutcome::kEvicted;
  report.work_done = 5.5e5;
  report.detail = "owner reclaimed the machine";
  expect_round_trip(report);
}

TEST(ProtocolRoundTrip, UsagePattern) {
  UsageCategory cat;
  cat.centroid.assign(48, 0.25);
  cat.centroid[10] = 0.9;
  cat.weight = 0.7;
  cat.weekday_fraction = 1.0;
  expect_round_trip(cat);

  UsagePatternUpload upload;
  upload.node = NodeId(5);
  upload.categories = {cat, cat};
  upload.days_observed = 14;
  expect_round_trip(upload);
}

TEST(ProtocolRoundTrip, Forecast) {
  ForecastRequest req;
  req.node = NodeId(5);
  req.at = 7 * kDay + 3 * kHour;
  req.horizon = 2 * kHour;
  expect_round_trip(req);

  ForecastReply reply;
  reply.node = NodeId(5);
  reply.known = true;
  reply.p_idle_through = 0.87;
  reply.expected_idle_remaining = 5 * kHour;
  expect_round_trip(reply);
}

TEST(ProtocolRoundTrip, ApplicationSpec) {
  ApplicationSpec spec;
  spec.id = AppId(4);
  spec.name = "render";
  spec.kind = AppKind::kParametric;
  spec.tasks = {sample_task(), sample_task()};
  spec.requirements.constraint = "cpu_mips >= 500";
  spec.requirements.preference = "max exportable_mips";
  spec.topology.groups = {{50, 12.5e6}, {50, 12.5e6}};
  spec.topology.min_inter_bandwidth = 1.25e6;
  spec.estimated_duration = kHour;
  spec.notify = sample_ref();
  expect_round_trip(spec);
}

TEST(ProtocolRoundTrip, SubmitReplyAndAppEvent) {
  SubmitReply reply;
  reply.app = AppId(4);
  reply.accepted = false;
  reply.reason = "bad constraint";
  expect_round_trip(reply);

  AppEvent event;
  event.app = AppId(4);
  event.task = TaskId(9);
  event.kind = AppEventKind::kTaskEvicted;
  event.node = NodeId(5);
  event.at = kDay;
  event.detail = "owner back";
  expect_round_trip(event);
}

TEST(ProtocolRoundTrip, BspMessages) {
  BspComputeRequest req;
  req.task = TaskId(9);
  req.rank = 3;
  req.superstep = 42;
  req.work = 1e4;
  req.notify = sample_ref();
  expect_round_trip(req);

  BspChunkDone done;
  done.task = TaskId(9);
  done.rank = 3;
  done.superstep = 42;
  done.node = NodeId(5);
  expect_round_trip(done);
}

TEST(ProtocolRoundTrip, InterCluster) {
  ClusterSummary summary;
  summary.cluster = ClusterId(2);
  summary.grm = sample_ref();
  summary.total_nodes = 50;
  summary.shareable_nodes = 30;
  summary.total_exportable_mips = 42000.0;
  summary.max_free_ram_mb = 512;
  summary.platforms = {"java", "linux-x86"};
  summary.timestamp = kHour;
  expect_round_trip(summary);

  RemoteSubmit remote;
  remote.spec.id = AppId(4);
  remote.spec.tasks = {sample_task()};
  remote.ttl = 5;
  remote.visited_clusters = {1, 2, 3};
  remote.origin_grm = sample_ref();
  expect_round_trip(remote);

  RemoteAdopted adopted;
  adopted.app = AppId(4);
  adopted.task = TaskId(9);
  adopted.by_cluster = ClusterId(3);
  adopted.hops = 2;
  expect_round_trip(adopted);
}

TEST(ProtocolRoundTrip, SmallMessages) {
  expect_round_trip(CancelTask{TaskId(3)});
  WorkReply work;
  work.has_work = true;
  work.task = sample_task();
  expect_round_trip(work);
  expect_round_trip(cdr::Empty{});
}

// --- checkpoint data plane ---

CkptManifest sample_manifest() {
  CkptManifest m;
  m.app = AppId(11);
  m.rank = 2;
  m.version = 7;
  m.chunker = 1;
  m.chunk_size = 64 * 1024;
  m.image_bytes = 200'000;
  for (std::uint8_t i = 0; i < 3; ++i) {
    CkptChunkRef ref;
    ref.hash.fill(i);
    ref.raw_size = 65536;
    m.chunks.push_back(ref);
  }
  m.chunks.back().raw_size = 68928;
  return m;
}

TEST(ProtocolRoundTrip, CkptManifestFrames) {
  expect_round_trip(sample_manifest());
  expect_round_trip(CkptManifestOffer{sample_manifest()});
  CkptChunkNeed need;
  need.accepted = true;
  need.missing = {0, 2};
  expect_round_trip(need);
  need.accepted = false;
  need.reason = "version regression";
  need.missing.clear();
  expect_round_trip(need);
  CkptManifestInstall install;
  install.manifest = sample_manifest();
  install.prune_below = 5;
  expect_round_trip(install);
  expect_round_trip(CkptInstallReply{true, ""});
  expect_round_trip(CkptInstallReply{false, "missing chunk"});
}

TEST(ProtocolRoundTrip, CkptChunkFrames) {
  CkptChunkData chunk;
  chunk.hash.fill(0xab);
  chunk.encoding = 1;
  chunk.raw_size = 4096;
  chunk.payload = {1, 2, 3, 4, 5};
  expect_round_trip(chunk);
  CkptChunkPut put;
  put.app = AppId(11);
  put.chunks = {chunk, chunk};
  expect_round_trip(put);
  expect_round_trip(CkptPutReply{2, 1});
  CkptChunkGet get;
  get.hashes = {chunk.hash, CkptHash{}};
  expect_round_trip(get);
  expect_round_trip(CkptChunkGetReply{{chunk}});
  expect_round_trip(CkptPrune{AppId(11), 6});
  expect_round_trip(CkptDrop{AppId(11)});
}

TEST(ProtocolRoundTrip, CkptLifecycleFrames) {
  CkptSaveRequest save;
  save.app = AppId(11);
  save.rank = 2;
  save.version = 7;
  save.epoch = 3;
  save.image_bytes = 200'000;
  save.repository = sample_ref();
  save.peers = {sample_ref(), sample_ref()};
  save.prune_below = 4;
  save.notify = sample_ref();
  expect_round_trip(save);

  CkptSaveDone done;
  done.app = AppId(11);
  done.rank = 2;
  done.version = 7;
  done.epoch = 3;
  done.ok = true;
  done.image_bytes = 200'000;
  done.chunks_total = 4;
  done.chunks_shipped = 1;
  done.chunks_deduped = 3;
  done.bytes_shipped = 70'000;
  expect_round_trip(done);

  CkptRestoreRequest restore;
  restore.app = AppId(11);
  restore.rank = 2;
  restore.version = 7;
  restore.epoch = 4;
  restore.manifest = sample_manifest();
  restore.repository = sample_ref();
  restore.peers = {sample_ref()};
  restore.notify = sample_ref();
  expect_round_trip(restore);

  CkptRestoreDone rdone;
  rdone.app = AppId(11);
  rdone.rank = 2;
  rdone.version = 7;
  rdone.epoch = 4;
  rdone.ok = true;
  rdone.chunks_local = 1;
  rdone.chunks_from_peers = 2;
  rdone.chunks_from_repository = 1;
  rdone.bytes_pulled = 140'000;
  expect_round_trip(rdone);
}

TEST(ProtocolRoundTrip, BidExtensionsOnlyWhenPresent) {
  ReservationRequest req;
  req.id = ReservationId(11);
  req.task = TaskId(9);
  req.tenant = "physics";
  req.bid_budget = 12.5;
  req.bid_deadline = kHour;
  expect_round_trip(req);

  ExecuteRequest exec;
  exec.reservation = ReservationId(11);
  exec.restore_state = {1, 2, 3};
  exec.ckpt_peers = {sample_ref()};
  expect_round_trip(exec);

  ApplicationSpec spec;
  spec.id = AppId(4);
  spec.name = "render";
  spec.tenant = "physics";
  spec.bid_deadline = kHour;
  expect_round_trip(spec);

  RemoteSubmit remote;
  remote.spec = spec;
  remote.visited_clusters = {1};
  expect_round_trip(remote);

  // The bid rides RemoteSubmit's own tail, after the origin reference.
  RemoteSubmit bidless = remote;
  bidless.spec.tenant.clear();
  bidless.spec.bid_deadline = 0;
  const auto with_bid = cdr::encode_message(remote);
  const auto without = cdr::encode_message(bidless);
  ASSERT_LT(without.size(), with_bid.size());
  EXPECT_TRUE(std::equal(without.begin(), without.end(), with_bid.begin()));
}

TEST(ProtocolRoundTrip, AllDefaultExtensionIsRejected) {
  // The encoder never writes an extension whose fields all hold their
  // defaults, so a decoder that accepted one would not be canonical.
  ReservationRequest req;
  req.id = ReservationId(11);
  cdr::Writer w;
  cdr::Codec<ReservationRequest>::encode(w, req);
  w.write_string("");
  w.write_f64(0.0);
  w.write_i64(0);
  EXPECT_FALSE(cdr::decode_message<ReservationRequest>(w.buffer()).is_ok());

  ExecuteRequest exec;
  cdr::Writer w2;
  cdr::Codec<ExecuteRequest>::encode(w2, exec);
  w2.write_u32(0);  // an empty ckpt_peers extension
  EXPECT_FALSE(cdr::decode_message<ExecuteRequest>(w2.buffer()).is_ok());
}

TEST(ProtocolRoundTrip, ServiceCheckpointAndStateTypes) {
  expect_round_trip(sample_ref());
  expect_round_trip(orb::ObjectRef{});

  services::PropertySet props;
  props.set("cpu_mips", cdr::Value(1400.5));
  props.set("os", cdr::Value("linux"));
  expect_round_trip(services::NameBinding{"grid/cluster0/grm", sample_ref()});
  expect_round_trip(services::NameRequest{"grid/cluster0/grm"});
  expect_round_trip(services::ResolveReply{true, sample_ref()});
  expect_round_trip(services::BoolReply{false, "no such name"});
  expect_round_trip(
      services::OfferExport{services::OfferId(3), "Lrm", sample_ref(), props});
  expect_round_trip(services::OfferIdReply{services::OfferId(3)});
  expect_round_trip(services::OfferQuery{"Lrm", "cpu_mips > 500", "max cpu_mips", 4});
  const services::OfferDescription offer{services::OfferId(3), sample_ref(), props};
  expect_round_trip(offer);
  expect_round_trip(services::OfferQueryReply{true, "", {offer, offer}});

  expect_round_trip(ckpt::Checkpoint{AppId(4), 2, 7, kHour, {9, 8, 7}});
  expect_round_trip(ckpt::SequentialState{5.5e5});

  Rng rng(11);
  (void)rng.normal(0.0, 1.0);  // leaves a buffered spare
  expect_round_trip(rng.state());
}

TEST(ProtocolRoundTrip, TruncatedStatusFailsCleanly) {
  auto bytes = cdr::encode_message(sample_status());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(cdr::decode_message<NodeStatus>(bytes).is_ok());
}

// --- property schema ---

TEST(Properties, StatusToPropertiesExposesSchema) {
  const auto props = to_properties(sample_status());
  EXPECT_EQ(props.get_real(kPropCpuMips), 1400.5);
  EXPECT_EQ(props.get_int(kPropRamTotal), 256);
  EXPECT_EQ(props.get_bool(kPropShareable), false);
  EXPECT_EQ(props.get_int(kPropSegment), 2);
  EXPECT_DOUBLE_EQ(*props.get_real(kPropExportableMips), 0.25 * 1400.5);
  ASSERT_TRUE(props.get(kPropPlatforms).is_list());
  EXPECT_EQ(props.get(kPropPlatforms).as_list().size(), 2u);
}

TEST(Properties, LoadPropertiesRewriteOnlyDynamicFields) {
  const NodeStatus registered = sample_status();
  services::Trader trader;
  trader.declare_type(kNodeServiceType, kNodeSchema);
  // An offer that lacks a dynamic name gains it from the write.
  services::PropertySet exported = to_properties(registered);
  exported.erase(kPropGridCpu);
  const services::OfferId offer =
      trader.export_offer(kNodeServiceType, registered.lrm, std::move(exported));
  NodeStatus next = registered;
  next.hostname = "renamed";  // static: must not reach the offer
  next.platforms = {"java"};
  next.segment = 7;
  next.owner_cpu = 0.0;
  next.grid_cpu = 0.75;
  next.exportable_cpu = 0.5;
  next.free_ram = 8 * kMiB;
  next.owner_present = false;
  next.shareable = true;
  next.running_tasks = 0;
  next.timestamp += kSecond;
  ASSERT_TRUE(trader
                  .write_slots(offer,
                               [&next](services::SlotWriter& slots) {
                                 write_load_slots(next, slots);
                               })
                  .is_ok());
  const services::PropertySet& props = trader.lookup(offer)->properties;

  NodeStatus expected = registered;
  apply_load(load_of(next), expected);
  EXPECT_EQ(props, to_properties(expected));
  EXPECT_DOUBLE_EQ(*props.get_real(kPropExportableMips), 0.5 * 1400.5);
  // By name too: the slot writer and to_properties share one mapping.
  EXPECT_DOUBLE_EQ(*props.get_real(kPropOwnerCpu), 0.0);
  EXPECT_DOUBLE_EQ(*props.get_real(kPropGridCpu), 0.75);
  EXPECT_TRUE(trader.check_invariants().is_ok());
}

TEST(Properties, RoundTripPreservesSchedulingFields) {
  const auto original = sample_status();
  const auto restored = from_properties(to_properties(original));
  EXPECT_EQ(restored.node, original.node);
  EXPECT_EQ(restored.hostname, original.hostname);
  EXPECT_EQ(restored.cpu_mips, original.cpu_mips);
  EXPECT_EQ(restored.platforms, original.platforms);
  EXPECT_EQ(restored.segment, original.segment);
  EXPECT_EQ(restored.owner_present, original.owner_present);
  EXPECT_EQ(restored.shareable, original.shareable);
  EXPECT_EQ(restored.exportable_cpu, original.exportable_cpu);
  EXPECT_EQ(restored.running_tasks, original.running_tasks);
  EXPECT_EQ(restored.timestamp, original.timestamp);
  // RAM round-trips at MiB granularity.
  EXPECT_EQ(restored.free_ram, original.free_ram);
}

}  // namespace
}  // namespace integrade::protocol
