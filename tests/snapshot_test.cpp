// Control-plane snapshot/restore: envelope integrity, per-component
// round-trip bit-equality, loaders that accept only canonical bytes,
// full-image shipping to the standby, and the end-to-end failover
// contract — restore the latest image, replay the gap, lose nothing,
// double-execute nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "asct/asct.hpp"
#include "cdr/cdr.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "orb/transport.hpp"
#include "protocol/properties.hpp"
#include "services/trader.hpp"
#include "sim/faults.hpp"
#include "snapshot/coordinator.hpp"
#include "snapshot/snapshot.hpp"

namespace integrade {
namespace {

using asct::AppBuilder;

snapshot::Envelope sample_envelope() {
  snapshot::Envelope envelope;
  envelope.captured_at = 42 * kSecond;
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

using Bytes = std::vector<std::uint8_t>;

// `image` with every occurrence of `from`'s bytes replaced by `to`'s.
template <class T>
Bytes replaced(const Bytes& image, T from, T to) {
  Bytes out = image;
  int hits = 0;
  for (std::size_t i = 0; i + sizeof(T) <= out.size(); ++i) {
    if (std::memcmp(out.data() + i, &from, sizeof(T)) == 0) {
      std::memcpy(out.data() + i, &to, sizeof(T));
      ++hits;
    }
  }
  EXPECT_GT(hits, 0);
  return out;
}

TEST(SnapshotComponents, GrmRoundTripIsByteIdenticalWithTasksInFlight) {
  core::Grid grid(302);
  auto config = core::quiet_cluster(8, 302);
  config.standby = core::Standby::kHeartbeat;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  // Freeze mid-run with a mix of running and queued tasks.
  AppBuilder builder("inflight");
  builder.kind(protocol::AppKind::kParametric).tasks(12, 600'000.0);
  cluster.asct().submit(cluster.grm_ref(), builder.build(cluster.asct().ref()));
  grid.run_for(30 * kSecond);
  ASSERT_GT(cluster.grm().running_tasks(), 0);

  cdr::Writer gw;
  cluster.grm().save(gw);
  const auto grm_bytes = gw.take_buffer();

  // Load into the (empty) standby: the grm section alone carries the nodes,
  // and the standby rebuilds its Trader from them.
  grm::Grm& standby = *cluster.standby_grm();
  cdr::Reader gr(grm_bytes.data(), grm_bytes.size());
  const Status loaded = standby.load(grm::Grm::kSnapshotVersion, gr);
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();

  cdr::Writer gw2;
  standby.save(gw2);
  EXPECT_EQ(gw2.buffer(), grm_bytes);

  // Scheduling-visible state transferred exactly.
  EXPECT_EQ(standby.known_nodes(), cluster.grm().known_nodes());
  EXPECT_EQ(standby.pending_tasks(), cluster.grm().pending_tasks());
  EXPECT_EQ(standby.running_tasks(), cluster.grm().running_tasks());

  // The rebuilt Trader holds one offer per node record, written from it.
  services::Trader& primary_trader = cluster.grm().trader();
  services::Trader& standby_trader = standby.trader();
  EXPECT_TRUE(standby_trader.check_invariants().is_ok());
  const auto offers = standby_trader.offers_of_type(protocol::kNodeServiceType);
  ASSERT_EQ(offers.size(), standby.known_nodes());
  ASSERT_EQ(standby_trader.offer_count(), offers.size());
  std::vector<std::int64_t> offered;
  for (const services::ServiceOffer* offer : offers) {
    offered.push_back(offer->properties.get_int(protocol::kPropNodeId).value());
    const auto record = standby.node_view(NodeId(
        static_cast<std::uint64_t>(offered.back())));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(offer->provider, record->lrm);
    EXPECT_EQ(offer->properties, protocol::to_properties(*record));
  }
  std::sort(offered.begin(), offered.end());
  EXPECT_EQ(std::adjacent_find(offered.begin(), offered.end()), offered.end());

  // Every query answers with the primary's providers in the primary's
  // order: ranking, ties and the random shuffle (same seed on both sides).
  for (const char* preference :
       {"first", "max exportable_mips", "min cpu_mips", "random"}) {
    Rng primary_rng(77);
    Rng standby_rng(77);
    const auto q1 = primary_trader.query(protocol::kNodeServiceType,
                                         "cpu_mips >= 0", preference, 0,
                                         &primary_rng);
    const auto q2 = standby_trader.query(protocol::kNodeServiceType,
                                         "cpu_mips >= 0", preference, 0,
                                         &standby_rng);
    ASSERT_TRUE(q1.is_ok());
    ASSERT_TRUE(q2.is_ok());
    ASSERT_EQ(q1.value().size(), cluster.grm().known_nodes()) << preference;
    ASSERT_EQ(q2.value().size(), q1.value().size()) << preference;
    for (std::size_t i = 0; i < q1.value().size(); ++i) {
      EXPECT_EQ(q2.value()[i]->provider, q1.value()[i]->provider)
          << preference << " #" << i;
      EXPECT_EQ(q2.value()[i]->properties, q1.value()[i]->properties)
          << preference << " #" << i;
    }
  }
}

TEST(SnapshotComponents, GrmLoadRejectsTruncatedAndWrongVersion) {
  core::Grid grid(303);
  auto config = core::quiet_cluster(4, 303);
  config.standby = core::Standby::kHeartbeat;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  cdr::Writer gw;
  cluster.grm().save(gw);
  const auto grm_bytes = gw.take_buffer();

  grm::Grm& standby = *cluster.standby_grm();
  for (const std::uint32_t version :
       {grm::Grm::kSnapshotVersion - 1, grm::Grm::kSnapshotVersion + 1, 99U}) {
    cdr::Reader wrong(grm_bytes.data(), grm_bytes.size());
    EXPECT_FALSE(standby.load(version, wrong).is_ok()) << "version " << version;
    EXPECT_EQ(standby.known_nodes(), 0u);
  }

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

  // A node recorded twice would leave one of its two offers without a
  // record: refused, and nothing is exported.
  const Bytes repeated =
      replaced(grm_bytes, cluster.lrm(1).current_status().node.value,
               cluster.lrm(0).current_status().node.value);
  cdr::Reader twice(repeated);
  const Status loaded = standby.load(grm::Grm::kSnapshotVersion, twice);
  EXPECT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.message().find("repeats node"), std::string::npos)
      << loaded.message();
  EXPECT_EQ(standby.known_nodes(), 0u);
  EXPECT_EQ(standby.trader().offer_count(), 0u);
}

// A promoted standby may hear a node's status update before any TaskResync
// reaches it: that first per-node status update alone must wake the
// dormant image. `promote(standby, lrm)` delivers it.
template <class Promote>
void expect_restored_standby_wakes(Promote promote) {
  core::Grid grid(308);
  auto config = core::quiet_cluster(4, 308);
  config.standby = core::Standby::kHeartbeat;
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

  cdr::Writer gw;
  cluster.grm().save(gw);
  const auto grm_bytes = gw.take_buffer();

  grm::Grm& standby = *cluster.standby_grm();
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

// Every corruption the mutation test applies to a section: one bit flipped
// at each byte offset (cycling through the bit positions), each
// truncation, and one appended byte.
template <class Fn>
void for_each_mutant(const Bytes& image, Fn fn) {
  for (std::size_t i = 0; i < image.size(); ++i) {
    Bytes mutant = image;
    mutant[i] ^= static_cast<std::uint8_t>(1U << (i % 8));
    fn("bit flip at byte " + std::to_string(i), mutant);
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    fn("truncation to " + std::to_string(len) + " bytes",
       Bytes(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len)));
  }
  Bytes longer = image;
  longer.push_back(0);
  fn(std::string("one appended byte"), longer);
}

// A loader accepts only canonical bytes. `load(mutant)` loads into a
// component and returns the status plus that component's re-save before
// and after the load: a rejected mutant must leave the re-save unchanged,
// an accepted one must re-save to exactly itself.
struct Probe {
  Status loaded;
  Bytes before;
  Bytes after;
};
template <class Load>
void expect_rejected_or_canonical(const char* section, const Bytes& image,
                                  Load load) {
  int mutants = 0;
  int accepted = 0;
  std::vector<std::string> broken;
  for_each_mutant(image, [&](const std::string& what, const Bytes& mutant) {
    const Probe probe = load(mutant);
    ++mutants;
    if (probe.loaded.is_ok()) ++accepted;
    if (probe.after != (probe.loaded.is_ok() ? mutant : probe.before)) {
      broken.push_back(what);
    }
  });
  EXPECT_TRUE(broken.empty())
      << section << ": " << broken.size() << " of " << mutants
      << " mutants (" << accepted << " accepted) neither rejected nor "
      << "canonical; first: " << (broken.empty() ? "" : broken.front());
}

TEST(SnapshotComponents, EveryCorruptedSectionIsRejectedOrCanonical) {
  core::Grid grid(311);
  auto config = core::quiet_cluster(8, 311);
  config.standby = core::Standby::kHeartbeat;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);
  AppBuilder builder("mutants");
  builder.kind(protocol::AppKind::kParametric).tasks(12, 600'000.0);
  cluster.asct().submit(cluster.grm_ref(), builder.build(cluster.asct().ref()));
  grid.run_for(30 * kSecond);
  ASSERT_GT(cluster.grm().running_tasks(), 0);
  ASSERT_GT(cluster.grm().queue_length(), 0u);

  const auto saved = [](const auto& save) {
    cdr::Writer w;
    save(w);
    return w.take_buffer();
  };
  const Bytes grm_image = saved([&](cdr::Writer& w) { cluster.grm().save(w); });
  const Bytes dedup_image =
      saved([&](cdr::Writer& w) { cluster.manager_orb().save_dedup(w); });
  ASSERT_GT(dedup_image.size(), sizeof(std::uint32_t));

  grm::Grm& standby = *cluster.standby_grm();
  expect_rejected_or_canonical("grm", grm_image, [&](const Bytes& m) {
    Probe probe;
    probe.before = saved([&](cdr::Writer& w) { standby.save(w); });
    cdr::Reader r(m);
    probe.loaded = standby.load(grm::Grm::kSnapshotVersion, r);
    probe.after = saved([&](cdr::Writer& w) { standby.save(w); });
    return probe;
  });

  // load_dedup merges into the window, so each mutant gets a fresh ORB
  // with the manager's options.
  orb::DirectTransport transport;
  const orb::OrbOptions options = cluster.manager_orb().options();
  expect_rejected_or_canonical("orb_dedup", dedup_image, [&](const Bytes& m) {
    orb::Orb fresh(1, transport, nullptr, options);
    Probe probe;
    probe.before = saved([&](cdr::Writer& w) { fresh.save_dedup(w); });
    cdr::Reader r(m);
    probe.loaded = fresh.load_dedup(orb::Orb::kDedupSnapshotVersion, r);
    probe.after = saved([&](cdr::Writer& w) { fresh.save_dedup(w); });
    return probe;
  });
  orb::Orb fresh(1, transport, nullptr, options);
  cdr::Reader old_version(dedup_image);
  EXPECT_FALSE(
      fresh.load_dedup(orb::Orb::kDedupSnapshotVersion - 1, old_version).is_ok());
}

// Calls `fn(description, mutant)` once for every single-bit flip of `image`.
template <class Fn>
void for_each_bit_flip(const Bytes& image, Fn fn) {
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutant = image;
      mutant[i] ^= static_cast<std::uint8_t>(1U << bit);
      fn("bit " + std::to_string(bit) + " of byte " + std::to_string(i), mutant);
    }
  }
}

TEST(SnapshotComponents, GrmLoadKeepsTheQueueEqualToThePendingTasks) {
  // Two nodes and three long tasks: two run, the third waits in the queue.
  core::Grid grid(312);
  auto config = core::quiet_cluster(2, 312);
  config.standby = core::Standby::kHeartbeat;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);
  AppBuilder builder("queued");
  builder.kind(protocol::AppKind::kParametric).tasks(3, 6'000'000.0);
  const protocol::ApplicationSpec spec = builder.build(cluster.asct().ref());
  ASSERT_TRUE(cluster.grm().handle_submit(spec).accepted);
  grid.run_for(kMinute);
  ASSERT_EQ(cluster.grm().running_tasks(), 2);
  ASSERT_EQ(cluster.grm().queue_length(), 1u);

  cdr::Writer gw;
  cluster.grm().save(gw);
  const Bytes grm_image = gw.take_buffer();
  grm::Grm& standby = *cluster.standby_grm();

  // A flipped task state can put a task in the queue that is not pending
  // (kPending -> kNegotiating) or leave a pending one out (kRunning ->
  // kPending). The scheduler pass trusts the queue, so both are refused,
  // and whatever loads keeps the queue equal to the pending tasks.
  int queues_non_pending = 0;
  int leaves_out_pending = 0;
  for_each_bit_flip(grm_image, [&](const std::string& what, const Bytes& m) {
    cdr::Reader r(m);
    const Status loaded = standby.load(grm::Grm::kSnapshotVersion, r);
    if (!loaded.is_ok()) {
      const std::string& why = loaded.message();
      if (why.find("is queued but not pending") != std::string::npos) {
        ++queues_non_pending;
      }
      if (why.find("is pending but not queued") != std::string::npos) {
        ++leaves_out_pending;
      }
      return;
    }
    const auto pending = std::count_if(
        spec.tasks.begin(), spec.tasks.end(), [&](const auto& task) {
          return standby.task_state(task.id) == grm::TaskState::kPending;
        });
    EXPECT_EQ(standby.queue_length(), static_cast<std::size_t>(pending))
        << what;
  });
  EXPECT_GT(queues_non_pending, 0);
  EXPECT_GT(leaves_out_pending, 0);
}

TEST(SnapshotComponents, GrmLoadRefusesBadWorkAndTooShortCheckpointPeriods) {
  core::Grid grid(314);
  auto config = core::quiet_cluster(2, 314);
  config.standby = core::Standby::kHeartbeat;
  auto& cluster = grid.add_cluster(config);
  AppBuilder builder("bounds");
  builder.tasks(1, 60'000.0).checkpoint_period(1'234'567, 64 * kKiB);
  ASSERT_TRUE(
      cluster.grm().handle_submit(builder.build(cluster.asct().ref())).accepted);
  cdr::Writer w;
  cluster.grm().save(w);
  const Bytes image = w.take_buffer();

  grm::Grm& standby = *cluster.standby_grm();
  const std::vector<std::pair<Bytes, std::string>> mutants = {
      {replaced(image, 60'000.0, -1.0), "negative or not finite"},
      {replaced(image, 60'000.0, std::numeric_limits<double>::quiet_NaN()),
       "negative or not finite"},
      {replaced(image, 60'000.0, std::numeric_limits<double>::infinity()),
       "negative or not finite"},
      {replaced(image, SimDuration{1'234'567}, SimDuration{12}),
       "checkpoint period is below 1 s"},
  };
  for (const auto& [mutant, why] : mutants) {
    cdr::Reader r(mutant);
    const Status loaded = standby.load(grm::Grm::kSnapshotVersion, r);
    EXPECT_FALSE(loaded.is_ok()) << why;
    EXPECT_NE(loaded.message().find(why), std::string::npos) << loaded.message();
  }
  cdr::Reader r(image);
  EXPECT_TRUE(standby.load(grm::Grm::kSnapshotVersion, r).is_ok());
}

TEST(SnapshotComponents, EveryAcceptedGrmMutantSchedulesWithoutThrowing) {
  // A one-app, one-task section, saved before any node registered: the
  // task waits in the queue and the first pass ranks it.
  const auto make_cluster = [](core::Grid& grid) -> core::Cluster& {
    auto config = core::quiet_cluster(2, 313);
    config.standby = core::Standby::kHeartbeat;
    return grid.add_cluster(config);
  };
  Bytes image;
  {
    core::Grid grid(313);
    core::Cluster& cluster = make_cluster(grid);
    AppBuilder builder("m");
    builder.tasks(1, 60'000.0);
    ASSERT_TRUE(
        cluster.grm().handle_submit(builder.build(cluster.asct().ref())).accepted);
    ASSERT_EQ(cluster.grm().known_nodes(), 0u);
    cdr::Writer w;
    cluster.grm().save(w);
    image = w.take_buffer();
  }

  // Each accepted mutant is promoted on a fresh standby whose nodes have
  // settled idle, which then schedules for two minutes. A task whose app
  // has no record would throw std::out_of_range from the first pass that
  // ranks it.
  int accepted = 0;
  for_each_bit_flip(image, [&](const std::string& what, const Bytes& m) {
    core::Grid grid(313);
    core::Cluster& cluster = make_cluster(grid);
    grid.run_for(2 * kMinute);
    grm::Grm& standby = *cluster.standby_grm();
    cdr::Reader r(m);
    if (!standby.load(grm::Grm::kSnapshotVersion, r).is_ok()) return;
    ++accepted;
    SCOPED_TRACE(what);
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      standby.handle_update_status(cluster.lrm(i).current_status());
    }
    // Two minutes, or 20,000 events if sooner: a checkpoint period flipped
    // to a few microseconds is a cadence the LRM honours, and simulating
    // all of it would take minutes of host time.
    const SimTime end = grid.engine().now() + 2 * kMinute;
    EXPECT_NO_THROW({
      for (int events = 0; events < 20'000 && grid.engine().step(end); ++events) {
      }
    });
  });
  EXPECT_GT(accepted, 0);
}

TEST(SnapshotShipping, CoordinatorShipsFullThenDeltasToStore) {
  core::Grid grid(305);
  auto config = core::quiet_cluster(6, 305);
  config.standby = core::Standby::kSnapshot;
  auto& cluster = grid.add_cluster(config);
  ASSERT_NE(cluster.snapshot_coordinator(), nullptr);
  ASSERT_NE(cluster.snapshot_store(), nullptr);

  grid.run_for(5 * kMinute);
  // Every period ships one full image — grm and orb_dedup — and the store
  // installs every one of them whole.
  snapshot::SnapshotStore& store = *cluster.snapshot_store();
  EXPECT_TRUE(store.has_image());
  const auto shipped =
      cluster.snapshot_coordinator()->metrics().counter_value("snapshots_shipped");
  const auto installed = store.metrics().counter_value("installs_ok");
  EXPECT_GE(shipped, 29);
  EXPECT_GE(installed, shipped - 1);  // the last one may still be in flight
  EXPECT_EQ(store.metrics().counter_value("installs_rejected"), 0);
  EXPECT_EQ(store.metrics().counter_value("sections_applied"), 2 * installed);
  EXPECT_EQ(cluster.snapshot_coordinator()->metrics().counter_value(
                "snapshot_ship_failures"),
            0);
  // The standby mirrors the primary's view without having seen a heartbeat.
  EXPECT_EQ(cluster.standby_grm()->known_nodes(), cluster.grm().known_nodes());
}

TEST(SnapshotShipping, StoreRejectsOutOfSequenceAndCorruptImages) {
  core::Grid grid(306);
  auto config = core::quiet_cluster(4, 306);
  config.standby = core::Standby::kSnapshot;
  auto& cluster = grid.add_cluster(config);
  cdr::Writer no_nodes;  // a valid grm section saved before any node joined
  cluster.grm().save(no_nodes);
  const Bytes empty_grm = no_nodes.take_buffer();
  grid.run_for(kMinute);
  snapshot::SnapshotStore& store = *cluster.snapshot_store();
  ASSERT_TRUE(store.has_image());

  // An image naming a section no loader is registered for is refused whole,
  // not skipped: not even its valid (empty) grm section is applied. The
  // Trader has no section of its own, so an image naming one is refused.
  const grm::Grm& standby = *cluster.standby_grm();
  const std::size_t nodes = standby.known_nodes();
  ASSERT_GT(nodes, 0u);
  for (const char* name : {"trader", "gupa"}) {
    snapshot::Envelope unknown;
    unknown.captured_at = grid.engine().now();
    unknown.sections.push_back({"grm", grm::Grm::kSnapshotVersion, empty_grm});
    unknown.sections.push_back({name, 2, {0, 0, 0, 0}});
    EXPECT_FALSE(store.install(snapshot::encode(unknown)).is_ok()) << name;
    EXPECT_EQ(standby.known_nodes(), nodes) << name;
    EXPECT_EQ(cluster.standby_grm()->trader().offer_count(), nodes) << name;
  }

  // An image naming a known section twice is refused whole too, though
  // each copy would load: not even the empty grm section is applied.
  const snapshot::Envelope captured = cluster.snapshot_coordinator()->capture();
  auto dedup = std::find_if(
      captured.sections.begin(), captured.sections.end(),
      [](const snapshot::Section& s) { return s.name == "orb_dedup"; });
  ASSERT_NE(dedup, captured.sections.end());
  const snapshot::Section grm_section{"grm", grm::Grm::kSnapshotVersion,
                                      empty_grm};
  for (const char* name : {"grm", "orb_dedup"}) {
    snapshot::Envelope repeated;
    repeated.captured_at = grid.engine().now();
    repeated.sections = {grm_section, *dedup,
                         name == std::string("grm") ? grm_section : *dedup};
    EXPECT_FALSE(store.install(snapshot::encode(repeated)).is_ok()) << name;
    EXPECT_EQ(standby.known_nodes(), nodes) << name;
    EXPECT_EQ(cluster.standby_grm()->trader().offer_count(), nodes) << name;
  }

  // A corrupted full image is refused by the checksum before any loader
  // runs, and the store (and the standby behind it) keeps working: the next
  // clean periodic ship installs fine.
  const auto rejected_before = store.metrics().counter_value("installs_rejected");
  auto coordinator_image =
      snapshot::encode(cluster.snapshot_coordinator()->capture());
  coordinator_image[coordinator_image.size() / 2] ^= 0xff;
  EXPECT_FALSE(store.install(coordinator_image).is_ok());
  EXPECT_EQ(store.metrics().counter_value("installs_rejected"),
            rejected_before + 1);

  const auto ok_before = store.metrics().counter_value("installs_ok");
  grid.run_for(kMinute);
  EXPECT_GT(store.metrics().counter_value("installs_ok"), ok_before);
}

TEST(SnapshotShipping, RefusedGrmSectionLeavesTheStandbyWhole) {
  // With the coordinator stopped the standby installs nothing by itself;
  // the one image it sees carries a section it must refuse: the grm
  // section, or the orb_dedup section behind an acceptable grm section.
  for (const char* refused : {"grm", "orb_dedup"}) {
    core::Grid grid(5);
    auto config = core::quiet_cluster(8, 5);
    config.standby = core::Standby::kSnapshot;
    auto& cluster = grid.add_cluster(config);
    cluster.snapshot_coordinator()->stop();
    grid.run_for(kMinute);
    ASSERT_EQ(cluster.grm().known_nodes(), 8u);

    snapshot::Envelope envelope = cluster.snapshot_coordinator()->capture();
    auto section = std::find_if(
        envelope.sections.begin(), envelope.sections.end(),
        [refused](const snapshot::Section& s) { return s.name == refused; });
    ASSERT_NE(section, envelope.sections.end()) << refused;
    section->version = 999;

    snapshot::SnapshotStore& store = *cluster.snapshot_store();
    EXPECT_FALSE(store.install(snapshot::encode(envelope)).is_ok()) << refused;
    EXPECT_EQ(store.metrics().counter_value("installs_rejected"), 1) << refused;
    EXPECT_FALSE(store.has_image()) << refused;
    grm::Grm& standby = *cluster.standby_grm();
    EXPECT_EQ(standby.trader().offer_count(), 0u) << refused;
    EXPECT_EQ(standby.known_nodes(), 0u) << refused;
  }
}

TEST(SnapshotFailover, RestoredStandbyLosesNoTaskAndDuplicatesNone) {
  // End-to-end: snapshots shipping, journal replay armed, primary killed
  // mid-application. Every task must complete exactly once at the ASCT.
  core::Grid grid(307);
  grid.network().set_jitter(0.0);
  auto config = core::quiet_cluster(8, 307);
  config.lrm.update_period = 10 * kSecond;
  config.standby = core::Standby::kSnapshot;
  auto& cluster = grid.add_cluster(config);
  sim::FaultInjector faults(grid.engine(), grid.network(), Rng(7));

  grid.run_for(2 * kMinute);
  AppBuilder builder("survivor");
  builder.kind(protocol::AppKind::kParametric).tasks(16, 1'200'000.0);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  grid.run_for(45 * kSecond);  // snapshots of the in-flight app shipped
  ASSERT_TRUE(cluster.snapshot_store()->has_image());

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
