// Control-plane snapshot/restore: envelope integrity, per-component
// round-trip bit-equality, incremental shipping to the standby, and the
// end-to-end failover contract — restore the latest image, replay the gap,
// lose nothing, double-execute nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asct/asct.hpp"
#include "cdr/cdr.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "protocol/properties.hpp"
#include "services/trader.hpp"
#include "sim/faults.hpp"
#include "snapshot/coordinator.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_codecs.hpp"

namespace integrade {
namespace {

using asct::AppBuilder;

snapshot::Envelope sample_envelope() {
  snapshot::Envelope envelope;
  envelope.epoch = 3;
  envelope.seq = 0;
  envelope.captured_at = 42 * kSecond;
  envelope.delta = false;
  envelope.sections.push_back({"alpha", 1, {1, 2, 3, 4}});
  envelope.sections.push_back({"beta", 7, {}});
  envelope.sections.push_back({"gamma", 2, {0xff, 0x00, 0x80}});
  return envelope;
}

TEST(SnapshotEnvelope, EncodeDecodeRoundTrip) {
  const snapshot::Envelope original = sample_envelope();
  const auto bytes = snapshot::encode(original);
  const auto decoded = snapshot::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), original);
}

TEST(SnapshotEnvelope, EveryFlippedByteIsRejected) {
  // The trailing SHA-256 must catch any single-byte corruption anywhere in
  // the image — header, section table, payloads, or the checksum itself.
  const auto bytes = snapshot::encode(sample_envelope());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x5a;
    const auto decoded = snapshot::decode(corrupt);
    EXPECT_FALSE(decoded.is_ok()) << "byte " << i << " flip accepted";
  }
}

TEST(SnapshotEnvelope, EveryTruncationIsRejected) {
  const auto bytes = snapshot::encode(sample_envelope());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    const auto decoded = snapshot::decode(cut);
    EXPECT_FALSE(decoded.is_ok()) << "truncation at " << len << " accepted";
  }
}

TEST(SnapshotComponents, TraderRoundTripIsByteIdenticalAndQueriesMatch) {
  core::Grid grid(301);
  auto& cluster = grid.add_cluster(core::quiet_cluster(10, 301));
  grid.run_for(2 * kMinute);  // every node exported an offer
  services::Trader& trader = cluster.grm().trader();
  ASSERT_GE(trader.offer_count(), 10u);

  cdr::Writer w1;
  trader.save(w1);
  const auto bytes1 = w1.take_buffer();

  services::Trader restored;
  cdr::Reader r(bytes1.data(), bytes1.size());
  ASSERT_TRUE(
      restored.load(services::Trader::kSnapshotVersion, r).is_ok());
  EXPECT_TRUE(restored.check_invariants().is_ok());

  cdr::Writer w2;
  restored.save(w2);
  EXPECT_EQ(w2.buffer(), bytes1);

  // The rebuilt indexes must answer exactly like the original.
  const auto q1 = trader.query(protocol::kNodeServiceType, "cpu_mips >= 0",
                               "max exportable_mips");
  const auto q2 = restored.query(protocol::kNodeServiceType, "cpu_mips >= 0",
                                 "max exportable_mips");
  ASSERT_TRUE(q1.is_ok());
  ASSERT_TRUE(q2.is_ok());
  ASSERT_EQ(q1.value().size(), q2.value().size());
  for (std::size_t i = 0; i < q1.value().size(); ++i) {
    EXPECT_EQ(q1.value()[i]->id, q2.value()[i]->id);
    EXPECT_EQ(q1.value()[i]->provider, q2.value()[i]->provider);
  }
}

TEST(SnapshotComponents, TraderLoadsCommittedV1ImageByteForByte) {
  // A v1 "trader" section exactly as the v1 writer committed it: id counter,
  // offer count, then per offer id / type / provider / properties /
  // exported_at / modified_at — no refresh counter (that field is v2).
  orb::ObjectRef provider;
  provider.host = 7;
  provider.key = ObjectId(3);
  provider.type_id = "IDL:integrade/Lrm:1.0";
  services::PropertySet props;
  props.set("cpu_mips", 1400.0);
  props.set("shareable", true);

  cdr::Writer v1;
  v1.write_u64(2);  // next_id
  v1.write_u32(1);  // offer count
  v1.write_id(services::OfferId(1));
  v1.write_string(protocol::kNodeServiceType);
  cdr::Codec<orb::ObjectRef>::encode(v1, provider);
  cdr::Codec<services::PropertySet>::encode(v1, props);
  v1.write_i64(30 * kSecond);   // exported_at
  v1.write_i64(90 * kSecond);   // modified_at
  const auto v1_bytes = v1.take_buffer();

  services::Trader trader;
  cdr::Reader r(v1_bytes.data(), v1_bytes.size());
  ASSERT_TRUE(trader.load(/*version=*/1, r).is_ok());
  ASSERT_EQ(trader.offer_count(), 1u);
  const auto* offer = trader.lookup(services::OfferId(1));
  ASSERT_NE(offer, nullptr);
  EXPECT_EQ(offer->service_type, protocol::kNodeServiceType);
  EXPECT_EQ(offer->provider, provider);
  EXPECT_EQ(offer->exported_at, 30 * kSecond);
  EXPECT_EQ(offer->modified_at, 90 * kSecond);
  EXPECT_EQ(offer->refreshes, 0);  // migration default
  EXPECT_TRUE(trader.check_invariants().is_ok());

  // Re-saving emits the current (v2) format: v1 payload + refreshes per
  // offer, and that format round-trips byte-identically.
  cdr::Writer w2;
  trader.save(w2);
  const auto v2_bytes = w2.take_buffer();
  EXPECT_EQ(v2_bytes.size(), v1_bytes.size() + 8);  // one offer, one i64
  services::Trader again;
  cdr::Reader r2(v2_bytes.data(), v2_bytes.size());
  ASSERT_TRUE(again.load(services::Trader::kSnapshotVersion, r2).is_ok());
  cdr::Writer w3;
  again.save(w3);
  EXPECT_EQ(w3.buffer(), v2_bytes);

  // A v1 reader would misparse v2 bytes — and future versions are refused.
  cdr::Reader r3(v2_bytes.data(), v2_bytes.size());
  EXPECT_FALSE(trader.load(services::Trader::kSnapshotVersion + 1, r3).is_ok());
}

TEST(SnapshotComponents, TraderRefreshCounterSurvivesSnapshot) {
  services::Trader trader;
  services::PropertySet props;
  props.set("cpu_mips", 1000.0);
  const auto id = trader.export_offer("node", orb::ObjectRef{}, props);
  ASSERT_TRUE(trader.modify(id, props, 10 * kSecond).is_ok());
  ASSERT_TRUE(trader
                  .refresh(id, [](services::PropertySet& p) {
                    p.set("cpu_mips", 900.0);
                  }, 20 * kSecond)
                  .is_ok());
  EXPECT_EQ(trader.lookup(id)->refreshes, 2);

  cdr::Writer w;
  trader.save(w);
  const auto bytes = w.take_buffer();
  services::Trader restored;
  cdr::Reader r(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.load(services::Trader::kSnapshotVersion, r).is_ok());
  EXPECT_EQ(restored.lookup(id)->refreshes, 2);
}

TEST(SnapshotComponents, TraderLoadRejectsGarbageAndKeepsState) {
  services::Trader trader;
  services::PropertySet props;
  props.set("cpu_mips", 1000.0);
  trader.export_offer("node", orb::ObjectRef{}, props);
  const std::vector<std::uint8_t> garbage{9, 9, 9};
  cdr::Reader r(garbage.data(), garbage.size());
  EXPECT_FALSE(
      trader.load(services::Trader::kSnapshotVersion, r).is_ok());
  EXPECT_EQ(trader.offer_count(), 1u);  // untouched on failure
  EXPECT_TRUE(trader.check_invariants().is_ok());
}

TEST(SnapshotComponents, GrmRoundTripIsByteIdenticalWithTasksInFlight) {
  core::Grid grid(302);
  auto config = core::quiet_cluster(8, 302);
  config.standby_grm = true;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  // Freeze mid-run with a mix of running and queued tasks.
  AppBuilder builder("inflight");
  builder.kind(protocol::AppKind::kParametric).tasks(12, 600'000.0);
  cluster.asct().submit(cluster.grm_ref(), builder.build(cluster.asct().ref()));
  grid.run_for(30 * kSecond);
  ASSERT_GT(cluster.grm().running_tasks(), 0);

  cdr::Writer tw;
  cluster.grm().trader().save(tw);
  const auto trader_bytes = tw.take_buffer();
  cdr::Writer gw;
  cluster.grm().save(gw);
  const auto grm_bytes = gw.take_buffer();

  // Load into the (empty) standby: trader first — the GRM section validates
  // its node records against the live offer table.
  grm::Grm& standby = *cluster.standby_grm();
  cdr::Reader tr(trader_bytes.data(), trader_bytes.size());
  ASSERT_TRUE(standby.trader()
                  .load(services::Trader::kSnapshotVersion, tr)
                  .is_ok());
  cdr::Reader gr(grm_bytes.data(), grm_bytes.size());
  const Status loaded = standby.load(grm::Grm::kSnapshotVersion, gr);
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();

  cdr::Writer tw2;
  standby.trader().save(tw2);
  EXPECT_EQ(tw2.buffer(), trader_bytes);
  cdr::Writer gw2;
  standby.save(gw2);
  EXPECT_EQ(gw2.buffer(), grm_bytes);

  // Scheduling-visible state transferred exactly.
  EXPECT_EQ(standby.known_nodes(), cluster.grm().known_nodes());
  EXPECT_EQ(standby.pending_tasks(), cluster.grm().pending_tasks());
  EXPECT_EQ(standby.running_tasks(), cluster.grm().running_tasks());
}

TEST(SnapshotComponents, GrmLoadRejectsTruncatedAndWrongVersion) {
  core::Grid grid(303);
  auto config = core::quiet_cluster(4, 303);
  config.standby_grm = true;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  cdr::Writer tw;
  cluster.grm().trader().save(tw);
  const auto trader_bytes = tw.take_buffer();
  cdr::Writer gw;
  cluster.grm().save(gw);
  const auto grm_bytes = gw.take_buffer();

  grm::Grm& standby = *cluster.standby_grm();
  cdr::Reader tr(trader_bytes.data(), trader_bytes.size());
  ASSERT_TRUE(standby.trader()
                  .load(services::Trader::kSnapshotVersion, tr)
                  .is_ok());

  cdr::Reader wrong(grm_bytes.data(), grm_bytes.size());
  EXPECT_FALSE(standby.load(99, wrong).is_ok());

  // Cut the GRM section at a few interior offsets: a clean error each time,
  // and the standby keeps its (empty) state rather than half-loading.
  for (const std::size_t len :
       {grm_bytes.size() / 4, grm_bytes.size() / 2, grm_bytes.size() - 1}) {
    cdr::Reader cut(grm_bytes.data(), len);
    EXPECT_FALSE(standby.load(grm::Grm::kSnapshotVersion, cut).is_ok())
        << "accepted at " << len;
    EXPECT_EQ(standby.known_nodes(), 0u);
    EXPECT_EQ(standby.pending_tasks(), 0);
  }
}

// Without report journals no TaskResync ever reaches a promoted standby:
// the first per-node status update is its only promotion signal, and it
// alone must wake the dormant image. `promote(standby, lrm)` delivers it.
template <class Promote>
void expect_restored_standby_wakes(Promote promote) {
  core::Grid grid(308);
  auto config = core::quiet_cluster(4, 308);
  config.standby_grm = true;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  // Catch the primary mid-negotiation: reserve requests sent, no reply yet.
  AppBuilder builder("frozen");
  builder.kind(protocol::AppKind::kSequential).tasks(1, 60'000.0);
  const protocol::ApplicationSpec spec = builder.build(cluster.asct().ref());
  const TaskId task = spec.tasks.front().id;
  cluster.asct().submit(cluster.grm_ref(), spec);
  for (int i = 0; i < 10'000; ++i) {
    if (cluster.grm().task_state(task) == grm::TaskState::kNegotiating) break;
    ASSERT_TRUE(grid.engine().step());
  }
  ASSERT_EQ(cluster.grm().task_state(task), grm::TaskState::kNegotiating);

  cdr::Writer tw;
  cluster.grm().trader().save(tw);
  const auto trader_bytes = tw.take_buffer();
  cdr::Writer gw;
  cluster.grm().save(gw);
  const auto grm_bytes = gw.take_buffer();

  grm::Grm& standby = *cluster.standby_grm();
  cdr::Reader tr(trader_bytes.data(), trader_bytes.size());
  ASSERT_TRUE(standby.trader()
                  .load(services::Trader::kSnapshotVersion, tr)
                  .is_ok());
  cdr::Reader gr(grm_bytes.data(), grm_bytes.size());
  ASSERT_TRUE(standby.load(grm::Grm::kSnapshotVersion, gr).is_ok());
  EXPECT_EQ(standby.task_state(task), grm::TaskState::kNegotiating);  // dormant

  promote(standby, cluster.lrm(0));
  EXPECT_EQ(standby.task_state(task), grm::TaskState::kPending);
  EXPECT_EQ(
      standby.metrics().counter_value("tasks_recovered_from_snapshot"), 1);
}

TEST(SnapshotComponents, RestoredStandbyWakesOnFirstStatusUpdate) {
  expect_restored_standby_wakes([](grm::Grm& standby, lrm::Lrm& lrm) {
    standby.handle_update_status(lrm.current_status());
  });
}

TEST(SnapshotComponents, RestoredStandbyWakesOnFirstNodeLoad) {
  // The periodic load an LRM actually sends. The snapshot already knows the
  // node, so the load applies without a pull.
  expect_restored_standby_wakes([](grm::Grm& standby, lrm::Lrm& lrm) {
    standby.handle_node_load(protocol::load_of(lrm.current_status()));
    EXPECT_EQ(standby.metrics().counter_value("status_pulls"), 0);
  });
}

// One node, one app, one queued task: the GRM state the migration tests
// hand-encode in every snapshot layout.
struct GrmImageState {
  protocol::NodeStatus node;
  services::OfferId offer;
  protocol::ApplicationSpec app;
  std::uint64_t pass = 0;  // the app tenant's fair-queue pass
};

// The "grm" section as the writer of `version` laid it out. Versions 1 and
// 2 carry a per-segment heartbeat-epoch table (non-empty here) after the
// RNG states; versions 2 and 3 carry the economy fields; version 3 is the
// current writer's layout.
std::vector<std::uint8_t> encode_grm_image(std::uint32_t version,
                                           const GrmImageState& state) {
  const protocol::TaskDescriptor& task = state.app.tasks.front();
  const bool economy = version >= 2;
  cdr::Writer w;
  w.write_u64(5);  // next reservation
  cdr::Codec<Rng::State>::encode(w, Rng(11).state());
  cdr::Codec<Rng::State>::encode(w, Rng(12).state());
  if (version <= 2) {
    w.write_u32(2);
    w.write_i32(0);
    w.write_u64(3);
    w.write_i32(1);
    w.write_u64(1);
  }

  w.write_u32(1);  // nodes
  cdr::Codec<protocol::NodeStatus>::encode(w, state.node);
  w.write_id(state.offer);
  w.write_i64(90 * kSecond);  // last update

  w.write_u32(1);  // apps
  cdr::Codec<protocol::ApplicationSpec>::encode_base(w, state.app);
  if (economy) {
    w.write_string(state.app.tenant);
    w.write_f64(state.app.bid_budget);
    w.write_i64(state.app.bid_deadline);
  }
  w.write_bool(false);  // adopted_remote
  cdr::Codec<orb::ObjectRef>::encode(w, orb::ObjectRef{});
  w.write_i32(1);  // outstanding
  w.write_i32(0);  // running
  w.write_bool(false);
  w.write_bool(false);

  w.write_u32(1);  // tasks
  cdr::Codec<protocol::TaskDescriptor>::encode(w, task);
  w.write_id(state.app.id);
  w.write_u8(static_cast<std::uint8_t>(grm::TaskState::kPending));
  w.write_id(NodeId{});
  cdr::Codec<orb::ObjectRef>::encode(w, orb::ObjectRef{});
  w.write_i32(1);                // waves
  w.write_i32(0);                // evictions
  w.write_i64(20 * kSecond);     // backoff
  w.write_i64(120 * kSecond);    // eligible_at
  w.write_i32(-1);               // topology segment
  w.write_i64(0);                // remote deadline
  const SimTime deadline =
      state.app.bid_deadline > 0 ? 60 * kSecond + state.app.bid_deadline : 0;
  if (economy) {
    w.write_string(state.app.tenant);
    w.write_i64(deadline);
  }

  w.write_u32(1);  // queue, FIFO order
  w.write_id(task.id);
  if (economy) {
    w.write_u32(1);  // per-entry metadata
    w.write_string(state.app.tenant);
    w.write_i64(deadline);
    w.write_u32(1);  // tenant passes
    w.write_string(state.app.tenant);
    w.write_u64(state.pass);
  }

  w.write_u32(0);  // in-flight reserves
  w.write_u32(0);  // child summaries
  return w.take_buffer();
}

GrmImageState image_state(grm::Grm& into) {
  GrmImageState state;
  state.node.node = NodeId(77);
  state.node.hostname = "migrated-n77";
  state.node.cpu_mips = 1500.0;
  state.node.lrm.host = 9;
  state.node.lrm.key = ObjectId(4);
  state.node.lrm.type_id = "IDL:integrade/Lrm:1.0";
  state.node.shareable = true;
  // Node records must reference a live offer in the (already loaded) Trader.
  state.offer = into.trader().export_offer(
      protocol::kNodeServiceType, state.node.lrm,
      protocol::to_properties(state.node));
  AppBuilder builder("migrated");
  builder.kind(protocol::AppKind::kSequential).tasks(1, 60'000.0);
  state.app = builder.build(orb::ObjectRef{});
  return state;
}

TEST(SnapshotComponents, GrmLoadsV1ImageAndDiscardsEpochTable) {
  core::Grid grid(309);
  auto config = core::quiet_cluster(1, 309);
  config.standby_grm = true;
  auto& cluster = grid.add_cluster(config);
  grm::Grm& standby = *cluster.standby_grm();
  const GrmImageState state = image_state(standby);

  const auto v1 = encode_grm_image(1, state);
  cdr::Reader r(v1.data(), v1.size());
  const Status loaded = standby.load(1, r);
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(standby.known_nodes(), 1u);
  EXPECT_TRUE(standby.app_known(state.app.id));
  EXPECT_EQ(standby.task_state(state.app.tasks.front().id),
            grm::TaskState::kPending);
  EXPECT_EQ(standby.queue_length(), 1u);

  // Re-saving writes the current layout: no epoch table, default economy
  // fields.
  cdr::Writer w;
  standby.save(w);
  EXPECT_EQ(w.buffer(), encode_grm_image(grm::Grm::kSnapshotVersion, state));
}

TEST(SnapshotComponents, GrmLoadsV2ImageAndDiscardsEpochTable) {
  core::Grid grid(310);
  auto config = core::quiet_cluster(1, 310);
  config.standby_grm = true;
  config.sched.enabled = true;
  auto& cluster = grid.add_cluster(config);
  grm::Grm& standby = *cluster.standby_grm();
  GrmImageState state = image_state(standby);
  state.app.tenant = "physics";
  state.app.bid_budget = 40.0;
  state.app.bid_deadline = 30 * kMinute;
  state.pass = 3 * sched::kStrideScale;

  const auto v2 = encode_grm_image(2, state);
  cdr::Reader r(v2.data(), v2.size());
  const Status loaded = standby.load(2, r);
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_NE(standby.app_spec(state.app.id), nullptr);
  EXPECT_EQ(standby.app_spec(state.app.id)->tenant, "physics");
  EXPECT_EQ(standby.app_spec(state.app.id)->bid_deadline, 30 * kMinute);
  EXPECT_EQ(standby.queue_length(), 1u);

  // Re-saving writes version 3: version 2 without the epoch table.
  cdr::Writer w;
  standby.save(w);
  EXPECT_EQ(w.buffer(), encode_grm_image(grm::Grm::kSnapshotVersion, state));
}

TEST(SnapshotComponents, OrbDedupWindowRoundTrips) {
  core::Grid grid(304);
  auto config = core::quiet_cluster(6, 304);
  auto& cluster = grid.add_cluster(config);
  grid.run_for(5 * kMinute);  // two-way traffic populates the dedup window

  cdr::Writer w1;
  cluster.manager_orb().save_dedup(w1);
  const auto bytes1 = w1.take_buffer();
  ASSERT_GT(bytes1.size(), sizeof(std::uint32_t));  // window is non-empty

  // Load into a second grid's fresh manager orb (empty window, same
  // options): save→load→save must reproduce the image bit for bit,
  // including entry recency order.
  core::Grid other(999);
  auto& blank = other.add_cluster(core::ClusterConfig{});
  cdr::Reader r(bytes1.data(), bytes1.size());
  ASSERT_TRUE(blank.manager_orb()
                  .load_dedup(orb::Orb::kDedupSnapshotVersion, r)
                  .is_ok());
  cdr::Writer w2;
  blank.manager_orb().save_dedup(w2);
  EXPECT_EQ(w2.buffer(), bytes1);

  // Truncated images are rejected without merging anything.
  core::Grid third(1000);
  auto& untouched = third.add_cluster(core::ClusterConfig{});
  cdr::Reader cut(bytes1.data(), bytes1.size() / 2);
  EXPECT_FALSE(untouched.manager_orb()
                   .load_dedup(orb::Orb::kDedupSnapshotVersion, cut)
                   .is_ok());
  cdr::Writer w3;
  untouched.manager_orb().save_dedup(w3);
  EXPECT_EQ(w3.buffer().size(), sizeof(std::uint32_t));  // still empty
}

TEST(SnapshotShipping, CoordinatorShipsFullThenDeltasToStore) {
  core::Grid grid(305);
  auto config = core::quiet_cluster(6, 305);
  config.standby_grm = true;
  config.snapshot.enabled = true;
  config.snapshot.period = 10 * kSecond;
  auto& cluster = grid.add_cluster(config);
  ASSERT_NE(cluster.snapshot_coordinator(), nullptr);
  ASSERT_NE(cluster.snapshot_store(), nullptr);

  grid.run_for(5 * kMinute);
  snapshot::SnapshotStore& store = *cluster.snapshot_store();
  EXPECT_TRUE(store.have_full());
  EXPECT_GT(store.metrics().counter_value("installs_full"), 0);
  EXPECT_GT(store.metrics().counter_value("installs_ok"), 0);
  EXPECT_EQ(store.metrics().counter_value("installs_rejected"), 0);
  // The GUPA section ships but the in-cluster standby registers no loader
  // for it (primary and standby share the one GUPA object).
  EXPECT_GT(store.metrics().counter_value("sections_skipped"), 0);
  EXPECT_GT(store.metrics().counter_value("sections_applied"), 0);
  // The standby mirrors the primary's view without having seen a heartbeat.
  EXPECT_EQ(cluster.standby_grm()->known_nodes(), cluster.grm().known_nodes());
}

TEST(SnapshotShipping, StoreRejectsOutOfSequenceAndCorruptImages) {
  core::Grid grid(306);
  auto config = core::quiet_cluster(4, 306);
  config.standby_grm = true;
  config.snapshot.enabled = true;
  config.snapshot.period = 10 * kSecond;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(kMinute);
  snapshot::SnapshotStore& store = *cluster.snapshot_store();
  ASSERT_TRUE(store.have_full());

  // A delta that skips ahead of the store's sequence is refused.
  snapshot::Envelope gap;
  gap.epoch = store.epoch();
  gap.seq = store.seq() + 7;
  gap.delta = true;
  gap.captured_at = grid.engine().now();
  gap.sections.push_back({"trader", 1, {1, 2, 3}});
  EXPECT_FALSE(store.install(snapshot::encode(gap)).is_ok());

  // A corrupted full image is refused by the checksum before any loader
  // runs, and the store (and the standby behind it) keeps working: the next
  // clean periodic ship installs fine.
  const auto rejected_before = store.metrics().counter_value("installs_rejected");
  auto coordinator_image =
      snapshot::encode(cluster.snapshot_coordinator()->capture_full());
  coordinator_image[coordinator_image.size() / 2] ^= 0xff;
  EXPECT_FALSE(store.install(coordinator_image).is_ok());
  EXPECT_EQ(store.metrics().counter_value("installs_rejected"),
            rejected_before + 1);

  const auto ok_before = store.metrics().counter_value("installs_ok");
  grid.run_for(kMinute);
  EXPECT_GT(store.metrics().counter_value("installs_ok"), ok_before);
}

TEST(SnapshotFailover, RestoredStandbyLosesNoTaskAndDuplicatesNone) {
  // End-to-end: snapshots shipping, journal replay armed, primary killed
  // mid-application. Every task must complete exactly once at the ASCT.
  core::Grid grid(307);
  grid.network().set_jitter(0.0);
  auto config = core::quiet_cluster(8, 307);
  config.standby_grm = true;
  config.lrm.reliable_updates = true;
  config.lrm.update_period = 10 * kSecond;
  config.lrm.report_journal_window = 5 * kMinute;
  config.snapshot.enabled = true;
  config.snapshot.period = 10 * kSecond;
  auto& cluster = grid.add_cluster(config);
  sim::FaultInjector faults(grid.engine(), grid.network(), Rng(7));

  grid.run_for(2 * kMinute);
  AppBuilder builder("survivor");
  builder.kind(protocol::AppKind::kParametric).tasks(16, 1'200'000.0);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  grid.run_for(45 * kSecond);  // snapshots of the in-flight app shipped
  ASSERT_TRUE(cluster.snapshot_store()->have_full());

  faults.crash_endpoint(cluster.manager_address());
  ASSERT_TRUE(
      grid.run_until_app_done(cluster, app, grid.engine().now() + 6 * kHour));
  grid.run_for(kMinute);  // drain late notifications / replays

  const auto* progress = cluster.asct().progress(app);
  ASSERT_NE(progress, nullptr);
  EXPECT_TRUE(progress->done);
  EXPECT_EQ(progress->completed, 16);  // nothing lost, nothing double-counted

  // The standby actually started from the installed image (it knew the
  // cluster before its first post-failover heartbeat could have told it).
  grm::Grm& standby = *cluster.standby_grm();
  EXPECT_GT(standby.metrics().counter_value("status_updates_received"), 0);
  EXPECT_TRUE(standby.app_known(app));
}

}  // namespace
}  // namespace integrade
