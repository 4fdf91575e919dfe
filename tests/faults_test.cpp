// FaultInjector: crashes, partitions, loss/duplication, scripting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "asct/asct.hpp"
#include "common/rng.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace integrade::sim {
namespace {

class FaultsFixture : public ::testing::Test {
 protected:
  FaultsFixture() : network(engine, Rng(1)), faults(engine, network, Rng(2)) {
    network.set_jitter(0.0);
    SegmentSpec lan;
    lan.latency = 100;
    lan.uplink_latency = 1000;
    seg_a = network.add_segment(lan);
    seg_b = network.add_segment(lan);
    network.attach(1, seg_a);
    network.attach(2, seg_a);
    network.attach(3, seg_b);
  }

  int deliveries(EndpointId src, EndpointId dst, int sends) {
    int count = 0;
    for (int i = 0; i < sends; ++i) {
      network.send(src, dst, 10, [&count] { ++count; });
    }
    engine.run();
    return count;
  }

  Engine engine;
  Network network;
  FaultInjector faults;
  SegmentId seg_a{};
  SegmentId seg_b{};
};

TEST_F(FaultsFixture, CrashedEndpointSendsAndReceivesNothing) {
  faults.crash_endpoint(2);
  EXPECT_TRUE(faults.endpoint_down(2));
  EXPECT_EQ(deliveries(1, 2, 3), 0);  // toward the dead node
  EXPECT_EQ(deliveries(2, 1, 3), 0);  // from the dead node
  EXPECT_EQ(deliveries(1, 3, 3), 3);  // unrelated traffic unaffected
  EXPECT_EQ(faults.stats().endpoint_drops, 6);
}

TEST_F(FaultsFixture, RestartRestoresTraffic) {
  faults.crash_endpoint(2);
  faults.restart_endpoint(2);
  EXPECT_FALSE(faults.endpoint_down(2));
  EXPECT_EQ(deliveries(1, 2, 3), 3);
  EXPECT_EQ(faults.stats().crashes, 1);
  EXPECT_EQ(faults.stats().restarts, 1);
}

TEST_F(FaultsFixture, CrashMidFlightDropsAtDelivery) {
  // The message passes the send-time check, then the destination dies
  // before arrival: delivery must not happen.
  bool delivered = false;
  network.send(1, 3, 1'250'000, [&delivered] { delivered = true; });
  engine.schedule_after(1, [this] { faults.crash_endpoint(3); });
  engine.run();
  EXPECT_FALSE(delivered);
}

TEST_F(FaultsFixture, CrashHandlersFire) {
  std::vector<EndpointId> crashed, restarted;
  faults.set_endpoint_handlers(
      [&crashed](EndpointId ep) { crashed.push_back(ep); },
      [&restarted](EndpointId ep) { restarted.push_back(ep); });
  faults.crash_endpoint(7);
  faults.crash_endpoint(7);  // idempotent: one handler call
  faults.restart_endpoint(7);
  EXPECT_EQ(crashed, (std::vector<EndpointId>{7}));
  EXPECT_EQ(restarted, (std::vector<EndpointId>{7}));
}

TEST_F(FaultsFixture, PartitionSeversInterSegmentTrafficOnly) {
  faults.partition(seg_a, seg_b);
  EXPECT_FALSE(faults.reachable(seg_a, seg_b));
  EXPECT_TRUE(faults.reachable(seg_a, seg_a));
  EXPECT_EQ(deliveries(1, 3, 2), 0);  // crosses the partition
  EXPECT_EQ(deliveries(3, 1, 2), 0);  // both directions
  EXPECT_EQ(deliveries(1, 2, 2), 2);  // intra-segment unaffected
  EXPECT_EQ(faults.stats().partition_drops, 4);

  faults.heal(seg_a, seg_b);
  EXPECT_EQ(deliveries(1, 3, 2), 2);
}

TEST_F(FaultsFixture, UplinkDownIsolatesSegment) {
  faults.set_uplink_down(seg_b, true);
  EXPECT_EQ(deliveries(1, 3, 2), 0);
  EXPECT_EQ(deliveries(1, 2, 2), 2);  // intra-segment unaffected
  faults.set_uplink_down(seg_b, false);
  EXPECT_EQ(deliveries(1, 3, 2), 2);
}

TEST_F(FaultsFixture, LossDropsRoughlyTheConfiguredFraction) {
  faults.set_loss(0.3);
  const int delivered = deliveries(1, 2, 2000);
  EXPECT_GT(delivered, 1250);
  EXPECT_LT(delivered, 1550);
  EXPECT_EQ(faults.stats().loss_drops, 2000 - delivered);
}

TEST_F(FaultsFixture, DuplicationDeliversTwice) {
  faults.set_duplication(1.0);
  EXPECT_EQ(deliveries(1, 2, 5), 10);
  EXPECT_EQ(faults.stats().duplicates, 5);
}

TEST_F(FaultsFixture, ExtraDelayDefersDelivery) {
  SimTime base_arrival = 0;
  network.send(1, 2, 10, [&] { base_arrival = engine.now(); });
  engine.run();
  ASSERT_GT(base_arrival, 0);

  faults.set_extra_delay(5 * kSecond);
  SimTime delayed_arrival = 0;
  const SimTime sent_at = engine.now();
  network.send(1, 2, 10, [&] { delayed_arrival = engine.now(); });
  engine.run();
  EXPECT_GT(delayed_arrival - sent_at, base_arrival);
  EXPECT_EQ(faults.stats().delayed, 1);
}

TEST_F(FaultsFixture, ScriptSchedulesAndAutoHeals) {
  FaultScript script;
  script.push_back({.at = 10 * kSecond,
                    .kind = FaultEvent::Kind::kCrash,
                    .endpoint = 2,
                    .duration = 5 * kSecond});
  script.push_back({.at = 20 * kSecond,
                    .kind = FaultEvent::Kind::kPartition,
                    .a = 0,
                    .b = 1,
                    .duration = 5 * kSecond});
  faults.run(script);

  engine.run_until(12 * kSecond);
  EXPECT_TRUE(faults.endpoint_down(2));
  engine.run_until(16 * kSecond);
  EXPECT_FALSE(faults.endpoint_down(2));  // auto-restart

  engine.run_until(22 * kSecond);
  EXPECT_FALSE(faults.reachable(seg_a, seg_b));
  engine.run_until(26 * kSecond);
  EXPECT_TRUE(faults.reachable(seg_a, seg_b));  // auto-heal
}

TEST_F(FaultsFixture, CrashChurnIsBoundedAndBalanced) {
  faults.enable_crash_churn({1, 2, 3}, /*crashes_per_minute=*/6.0,
                            /*mean_downtime=*/30 * kSecond,
                            /*until=*/10 * kMinute);
  engine.run_until(10 * kMinute);
  EXPECT_GT(faults.stats().crashes, 20);
  // Every crash eventually restarts.
  engine.run();
  EXPECT_EQ(faults.stats().restarts, faults.stats().crashes);
  EXPECT_EQ(faults.endpoints_down(), 0u);
}

TEST(FaultsDeterminism, SameSeedSameDropPattern) {
  auto trace = [](std::uint64_t seed) {
    Engine engine;
    Network network(engine, Rng(1));
    network.set_jitter(0.0);
    const SegmentId seg = network.add_segment(SegmentSpec{});
    network.attach(1, seg);
    network.attach(2, seg);
    FaultInjector faults(engine, network, Rng(seed));
    faults.set_loss(0.2);
    std::vector<int> delivered;
    for (int i = 0; i < 200; ++i) {
      network.send(1, 2, 10, [&delivered, i] { delivered.push_back(i); });
    }
    engine.run();
    return delivered;
  };
  EXPECT_EQ(trace(42), trace(42));
  EXPECT_NE(trace(42), trace(43));
}

namespace {

/// Two-segment network harness: endpoints 1 and 2 on different segments
/// exchange scripted messages under 30% loss, with per-destination delivery
/// logs.
struct LossRun {
  std::vector<int> to_ep2;
  std::vector<int> to_ep1;
  std::int64_t drops = 0;
};

LossRun loss_run(double jitter) {
  Engine engine;
  Network network(engine, Rng(1));
  network.set_jitter(jitter);
  SegmentSpec lan;
  lan.latency = 100;
  lan.uplink_latency = 1000;
  network.attach(1, network.add_segment(lan));
  network.attach(2, network.add_segment(lan));

  FaultInjector faults(engine, network, Rng(99));
  faults.set_loss(0.3);

  LossRun out;
  for (int i = 0; i < 150; ++i) {
    engine.schedule_at(1 + i * 10, [&network, &out, i] {
      network.send(1, 2, 10, [&out, i] { out.to_ep2.push_back(i); });
    });
    engine.schedule_at(1 + i * 10, [&network, &out, i] {
      network.send(2, 1, 10, [&out, i] { out.to_ep1.push_back(i); });
    });
  }
  engine.run();
  out.drops = faults.stats().loss_drops;
  return out;
}

}  // namespace

TEST(FaultsDeterminism, LossPlanStreamIsIsolatedFromJitterStream) {
  // The injector draws its loss plan from its own Rng, never the network's
  // jitter stream: the same messages drop whether or not jitter consumes
  // randomness, only delivery times move.
  const LossRun no_jitter = loss_run(0.0);
  const LossRun jitter = loss_run(0.2);
  EXPECT_GT(no_jitter.drops, 0);
  EXPECT_EQ(no_jitter.drops, jitter.drops);
  auto sorted = [](std::vector<int> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(no_jitter.to_ep1), sorted(jitter.to_ep1));
  EXPECT_EQ(sorted(no_jitter.to_ep2), sorted(jitter.to_ep2));
}

TEST(FaultsFailover, ManagerCrashRotatesEveryLrmToStandby) {
  // Reliable per-node status updates double as each LRM's liveness probe of
  // the Cluster Manager. Kill the manager node: every LRM's two-way updates
  // start missing, and after three misses each LRM rotates onto the warm
  // standby on its own and re-announces there.
  core::Grid grid(131);
  auto config = core::quiet_cluster(6, 131, 1000.0, "failover");
  config.lrm.update_period = 10 * kSecond;
  config.standby = core::Standby::kHeartbeat;
  auto& cluster = grid.add_cluster(config);
  FaultInjector faults(grid.engine(), grid.network(), Rng(7));

  grid.run_for(2 * kMinute);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_EQ(cluster.lrm(i).grm(), cluster.grm_ref());
  }

  faults.crash_endpoint(cluster.manager_address());
  grid.run_for(3 * kMinute);

  ASSERT_NE(cluster.standby_grm(), nullptr);
  grm::Grm& standby = *cluster.standby_grm();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.lrm(i).grm(), standby.ref()) << "LRM " << i;
    EXPECT_GE(cluster.lrm(i).metrics().counter_value("grm_failovers"), 1)
        << "LRM " << i;
  }
  EXPECT_EQ(standby.known_nodes(), cluster.size());

  // The standby is a working manager: an application submitted to it runs
  // to completion on the re-announced nodes.
  asct::AppBuilder builder("after-failover");
  builder.kind(protocol::AppKind::kParametric).tasks(3, 30'000.0);
  const AppId app = cluster.asct().submit(standby.ref(),
                                          builder.build(cluster.asct().ref()));
  EXPECT_TRUE(
      grid.run_until_app_done(cluster, app, grid.engine().now() + kHour));
}

TEST(StandbyModes, EachModeTurnsOnWhatItsTableRowSays) {
  // docs/faults.md: kNone sends oneway status updates and journals nothing;
  // kHeartbeat adds the standby, two-way updates that fail over after three
  // misses, and a journal of reports replayed after a TaskResync; kSnapshot
  // adds a full capture every 10 s.
  for (const core::Standby mode : {core::Standby::kNone,
                                   core::Standby::kHeartbeat,
                                   core::Standby::kSnapshot}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::Grid grid(132);
    auto config = core::quiet_cluster(4, 132, 1000.0, "modes");
    config.lrm.update_period = 10 * kSecond;
    config.standby = mode;
    auto& cluster = grid.add_cluster(config);
    FaultInjector faults(grid.engine(), grid.network(), Rng(7));
    grid.run_for(2 * kMinute);

    asct::AppBuilder builder("modes");
    builder.kind(protocol::AppKind::kParametric).tasks(4, 10'000.0);
    const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                            builder.build(cluster.asct().ref()));
    ASSERT_TRUE(grid.run_until_app_done(cluster, app,
                                        grid.engine().now() + 10 * kMinute));
    // Land 5 s past a capture boundary so the count is exact.
    const SimDuration period = 10 * kSecond;
    grid.run_until((grid.engine().now() / period + 1) * period + 5 * kSecond);

    const bool standby = mode != core::Standby::kNone;
    const bool snapshots = mode == core::Standby::kSnapshot;
    EXPECT_EQ(cluster.standby_grm() != nullptr, standby);
    EXPECT_EQ(cluster.snapshot_store() != nullptr, snapshots);
    ASSERT_EQ(cluster.snapshot_coordinator() != nullptr, snapshots);
    if (snapshots) {
      EXPECT_EQ(cluster.snapshot_coordinator()->metrics().counter_value(
                    "snapshots_shipped"),
                grid.engine().now() / period);
    }

    // Only two-way updates notice the dead manager; only a journal has the
    // four completion reports to replay to the manager adopted instead.
    faults.crash_endpoint(cluster.manager_address());
    grid.run_for(2 * kMinute);
    std::int64_t failovers = 0;
    std::int64_t resyncs = 0;
    std::int64_t replayed = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const MetricRegistry& m = cluster.lrm(i).metrics();
      failovers += m.counter_value("grm_failovers");
      resyncs += m.counter_value("task_resyncs_sent");
      replayed += m.counter_value("journal_reports_replayed");
      EXPECT_EQ(cluster.lrm(i).grm(),
                standby ? cluster.standby_grm()->ref() : cluster.grm_ref());
    }
    const auto nodes = static_cast<std::int64_t>(cluster.size());
    EXPECT_EQ(failovers, standby ? nodes : 0);
    EXPECT_EQ(resyncs, standby ? nodes : 0);
    EXPECT_EQ(replayed, standby ? 4 : 0);
  }
}

TEST(FaultsLifetime, DetachingInjectorRestoresCleanNetwork) {
  Engine engine;
  Network network(engine, Rng(1));
  const SegmentId seg = network.add_segment(SegmentSpec{});
  network.attach(1, seg);
  network.attach(2, seg);
  {
    FaultInjector faults(engine, network, Rng(2));
    faults.set_loss(1.0);
    bool delivered = false;
    network.send(1, 2, 10, [&delivered] { delivered = true; });
    engine.run();
    EXPECT_FALSE(delivered);
  }
  // Injector destroyed: the network is whole again.
  bool delivered = false;
  network.send(1, 2, 10, [&delivered] { delivered = true; });
  engine.run();
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace integrade::sim
