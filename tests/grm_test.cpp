// GRM: Trader-backed node registry, constraint building, negotiation waves
// with stale-hint correction, forecast-aware ranking, topology planning,
// requeue on eviction, and checkpoint-based restarts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "grm/grm.hpp"
#include "lrm/lrm.hpp"
#include "orb/transport.hpp"

namespace integrade::grm {
namespace {

using asct::AppBuilder;

class GrmFixture : public ::testing::Test {
 protected:
  GrmFixture() : grid(77) {}

  core::Grid grid;
};

TEST_F(GrmFixture, StatusUpdatesPopulateTrader) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(5, 1));
  grid.run_for(90 * kSecond);
  EXPECT_EQ(cluster.grm().known_nodes(), 5u);
  EXPECT_EQ(cluster.grm().trader().offer_count(protocol::kNodeServiceType), 5u);

  // The stored view matches the LRM's own status.
  const auto own = cluster.lrm(0).current_status();
  const auto view = cluster.grm().node_view(own.node);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->cpu_mips, own.cpu_mips);
  EXPECT_EQ(view->hostname, own.hostname);
}

TEST_F(GrmFixture, StaleOffersSweptAfterTtl) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(3, 2));
  grid.run_for(90 * kSecond);
  ASSERT_EQ(cluster.grm().known_nodes(), 3u);

  // Silence one LRM (power the machine off stops... the LRM keeps sending;
  // instead stop the LRM directly).
  cluster.lrm(0).stop();
  grid.run_for(5 * kMinute);
  EXPECT_EQ(cluster.grm().known_nodes(), 2u);
  EXPECT_GE(cluster.grm().metrics().counter_value("offers_expired"), 1);
}

// Task descriptors whose work is negative or not finite, or whose
// checkpoint period is above 0 but below a second.
std::vector<protocol::TaskDescriptor> refused_descriptors(
    const protocol::TaskDescriptor& good) {
  std::vector<protocol::TaskDescriptor> out;
  for (const MInstr work : {-1.0, std::numeric_limits<MInstr>::quiet_NaN(),
                            std::numeric_limits<MInstr>::infinity()}) {
    out.push_back(good);
    out.back().work = work;
  }
  out.push_back(good);
  out.back().checkpoint_period = kMicrosecond;
  return out;
}

TEST_F(GrmFixture, SubmitRefusesBadWorkAndTooShortCheckpointPeriods) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 3));
  grid.run_for(90 * kSecond);
  AppBuilder builder("bounds");
  builder.tasks(2, 1000.0).checkpoint_period(kSecond, 64 * kKiB);
  const protocol::ApplicationSpec good = builder.build(cluster.asct().ref());
  for (const auto& bad : refused_descriptors(good.tasks.back())) {
    protocol::ApplicationSpec spec = good;
    spec.tasks.back() = bad;
    const auto reply = cluster.grm().handle_submit(spec);
    EXPECT_FALSE(reply.accepted) << bad.work << " " << bad.checkpoint_period;
    EXPECT_NE(reply.reason.find("task "), std::string::npos) << reply.reason;
    EXPECT_FALSE(cluster.grm().app_known(spec.id));
  }
  EXPECT_TRUE(cluster.grm().handle_submit(good).accepted);
}

TEST_F(GrmFixture, RemoteSubmitRefusesBadWorkAndTooShortCheckpointPeriods) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 3));
  grid.run_for(90 * kSecond);
  AppBuilder builder("remote-bounds");
  builder.tasks(1, 1000.0);
  protocol::RemoteSubmit request;
  request.spec = builder.build(cluster.asct().ref());
  const protocol::TaskDescriptor good = request.spec.tasks.front();
  for (const auto& bad : refused_descriptors(good)) {
    request.spec.tasks.front() = bad;
    cluster.grm().handle_remote_submit(request);
    EXPECT_FALSE(cluster.grm().app_known(request.spec.id))
        << bad.work << " " << bad.checkpoint_period;
  }
  request.spec.tasks.front() = good;
  cluster.grm().handle_remote_submit(request);
  EXPECT_TRUE(cluster.grm().app_known(request.spec.id));  // adopted
}

TEST_F(GrmFixture, SubmitValidatesExpressions) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 3));
  grid.run_for(90 * kSecond);

  AppBuilder bad("bad");
  bad.tasks(1, 1000.0).constraint("((cpu_mips >");
  auto spec = bad.build(cluster.asct().ref());
  auto reply = cluster.grm().handle_submit(spec);
  EXPECT_FALSE(reply.accepted);
  EXPECT_NE(reply.reason.find("bad constraint"), std::string::npos);

  AppBuilder bad_pref("badpref");
  bad_pref.tasks(1, 1000.0).preference("downhill x");
  reply = cluster.grm().handle_submit(bad_pref.build(cluster.asct().ref()));
  EXPECT_FALSE(reply.accepted);

  AppBuilder empty("empty");
  auto empty_spec = empty.kind(protocol::AppKind::kSequential)
                        .tasks(1, 1000.0)
                        .build(cluster.asct().ref());
  // A task-less build() asserts in Debug; make the spec empty after the fact.
  empty_spec.tasks.clear();
  reply = cluster.grm().handle_submit(empty_spec);
  EXPECT_FALSE(reply.accepted);

  AppBuilder dup("dup");
  dup.tasks(1, 1000.0);
  auto dup_spec = dup.build(cluster.asct().ref());
  EXPECT_TRUE(cluster.grm().handle_submit(dup_spec).accepted);
  EXPECT_FALSE(cluster.grm().handle_submit(dup_spec).accepted);
}

TEST_F(GrmFixture, ConstraintRoutesToMatchingNode) {
  core::ClusterConfig config = core::quiet_cluster(3, 4);
  config.nodes[1].spec.cpu_mips = 5000.0;  // the only fast node
  auto& cluster = grid.add_cluster(config);
  grid.run_for(90 * kSecond);

  AppBuilder app("picky");
  app.tasks(1, 50'000.0).constraint("cpu_mips >= 4000");
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + kHour));
  EXPECT_GT(cluster.lrm(1).total_work_done(), 49'000.0);
  EXPECT_EQ(cluster.lrm(0).total_work_done(), 0.0);
  EXPECT_EQ(cluster.lrm(2).total_work_done(), 0.0);
}

TEST_F(GrmFixture, PreferenceOrdersCandidates) {
  core::ClusterConfig config = core::quiet_cluster(3, 5);
  config.nodes[0].spec.cpu_mips = 800.0;
  config.nodes[1].spec.cpu_mips = 1600.0;
  config.nodes[2].spec.cpu_mips = 2400.0;
  auto& cluster = grid.add_cluster(config);
  grid.run_for(90 * kSecond);

  AppBuilder app("fastest-first");
  app.tasks(1, 24'000.0).preference("max cpu_mips");
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + kHour));
  EXPECT_GT(cluster.lrm(2).total_work_done(), 23'000.0);
}

TEST_F(GrmFixture, UnsatisfiableConstraintKeepsTaskPending) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 6));
  grid.run_for(90 * kSecond);

  AppBuilder app("impossible");
  app.tasks(1, 1000.0).constraint("cpu_mips >= 999999");
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  grid.run_for(10 * kMinute);
  EXPECT_FALSE(cluster.asct().done(id));
  EXPECT_EQ(cluster.grm().pending_tasks(), 1);
  EXPECT_GT(cluster.grm().metrics().counter_value("waves_no_candidates"), 0);
}

TEST_F(GrmFixture, NegotiationCorrectsStaleHints) {
  // 1 node, long update period: the GRM's trader view stays stale while we
  // submit two apps; the second must discover the truth via negotiation.
  core::ClusterConfig config = core::quiet_cluster(1, 7);
  config.lrm.update_period = 10 * kMinute;
  config.lrm.push_on_state_change = false;
  config.grm.offer_ttl = 30 * kMinute;  // keep the rarely-refreshed offer alive
  auto& cluster = grid.add_cluster(config);
  grid.run_for(11 * kMinute);
  ASSERT_EQ(cluster.grm().known_nodes(), 1u);

  // The owner returns silently: with state-change pushes off and a 10 min
  // update period, the GRM's Trader still advertises the node as idle.
  if (cluster.owner(0) != nullptr) cluster.owner(0)->stop();
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.8;
  cluster.machine(0).set_owner_load(busy);

  AppBuilder app("stale");
  app.tasks(1, 600'000.0);
  cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  grid.run_for(kMinute);

  // Negotiation discovered the truth: the reservation was refused and the
  // piggy-backed status corrected the Trader entry on the spot.
  EXPECT_GE(cluster.grm().metrics().counter_value("reservations_refused_remote"),
            1);
  EXPECT_EQ(cluster.grm().running_tasks(), 0);
  EXPECT_EQ(cluster.grm().pending_tasks(), 1);
  const auto view = cluster.grm().node_view(cluster.lrm(0).node_id());
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->shareable);
}

TEST_F(GrmFixture, EvictionRequeuesAndEventuallyCompletes) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 8));
  grid.run_for(90 * kSecond);

  AppBuilder app("bounce");
  app.tasks(1, 120'000.0);
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  grid.run_for(kMinute);

  // Owner stomps whichever node runs it.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.lrm(i).running_task_count() > 0) {
      node::OwnerLoad busy;
      busy.present = true;
      busy.cpu_fraction = 0.9;
      cluster.machine(i).set_owner_load(busy);
      break;
    }
  }
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + 2 * kHour));
  const auto* progress = cluster.asct().progress(id);
  EXPECT_GE(progress->evictions, 1);
  EXPECT_GE(progress->reschedules, 1);
  EXPECT_EQ(progress->completed, 1);
}

TEST_F(GrmFixture, DuplicateEvictionReportsKeepOneQueueEntry) {
  // Regression: a duplicated eviction frame (dying LRM retrying its last
  // report) used to enqueue the requeued task twice; the double entry was
  // masked by the pop-side state check until a later wave dispatched the
  // ghost. Queue membership must be exactly once.
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 15));
  grid.run_for(90 * kSecond);

  AppBuilder app("dup-evict");
  app.tasks(1, 300'000.0);
  auto spec = app.build(cluster.asct().ref());
  const TaskId task = spec.tasks[0].id;
  const AppId id = cluster.asct().submit(cluster.grm_ref(), spec);
  grid.run_for(kMinute);
  ASSERT_EQ(cluster.grm().running_tasks(), 1);

  // Find the host and kill it silently — crash() reports nothing, so the
  // forged frames below are the only word the GRM gets.
  NodeId host;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.lrm(i).running_task_count() > 0) {
      host = cluster.lrm(i).node_id();
      cluster.lrm(i).crash();
      break;
    }
  }
  ASSERT_TRUE(host.valid());

  protocol::TaskReport report;
  report.task = task;
  report.node = host;
  report.outcome = protocol::TaskOutcome::kEvicted;
  report.detail = "owner reclaim";
  cluster.grm().handle_report(report);
  EXPECT_EQ(cluster.grm().queue_length(), 1u);
  // The duplicated frames: the task is no longer running on the reporter,
  // so these must be ignored, not requeued a second time.
  cluster.grm().handle_report(report);
  cluster.grm().handle_report(report);
  EXPECT_EQ(cluster.grm().queue_length(), 1u);
  EXPECT_EQ(cluster.grm().pending_tasks(), 1);
  EXPECT_GE(cluster.grm().metrics().counter_value("stale_reports_ignored"), 2);

  // The survivor picks the task up and it completes exactly once.
  ASSERT_TRUE(
      grid.run_until_app_done(cluster, id, grid.engine().now() + 2 * kHour));
  EXPECT_EQ(cluster.asct().progress(id)->completed, 1);
  EXPECT_EQ(cluster.grm().queue_length(), 0u);
}

TEST_F(GrmFixture, TopologyPlanPinsGroupsToSegments) {
  auto& cluster = grid.add_cluster(core::segmented_cluster(2, 4, 9));
  grid.run_for(3 * kMinute);  // mostly_idle profiles + 10min grace? grace is default
  grid.run_for(10 * kMinute);

  protocol::TopologySpec topo;
  topo.groups = {{3, 10e6 / 8}, {3, 10e6 / 8}};
  topo.min_inter_bandwidth = 1e6 / 8;

  AppBuilder app("grouped");
  app.kind(protocol::AppKind::kParametric).tasks(6, 30'000.0).topology(topo);
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + 4 * kHour));

  // Count work per segment: both segments must have executed tasks.
  MInstr seg0 = 0;
  MInstr seg1 = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i < 4) {
      seg0 += cluster.lrm(i).total_work_done();
    } else {
      seg1 += cluster.lrm(i).total_work_done();
    }
  }
  EXPECT_GT(seg0, 80'000.0);
  EXPECT_GT(seg1, 80'000.0);
}

TEST_F(GrmFixture, TopologyRejectedWhenBandwidthImpossible) {
  auto& cluster = grid.add_cluster(core::segmented_cluster(2, 4, 10));
  grid.run_for(12 * kMinute);

  protocol::TopologySpec topo;
  topo.groups = {{3, 10e9}};  // 80 Gbps intra: no segment qualifies
  AppBuilder app("impossible-topo");
  app.kind(protocol::AppKind::kParametric).tasks(3, 1000.0).topology(topo);
  auto reply = cluster.grm().handle_submit(app.build(cluster.asct().ref()));
  EXPECT_FALSE(reply.accepted);
  EXPECT_GE(cluster.grm().metrics().counter_value("topology_rejections"), 1);
}

TEST_F(GrmFixture, ForecastAvoidsSoonBusyNodes) {
  // Two nodes: one genuinely idle, one whose pattern says "busy at 09:00".
  // Submit at 08:30 with a 2h estimate — the forecast-aware GRM must pick
  // the idle one.
  core::ClusterConfig config = core::quiet_cluster(2, 11);
  auto& cluster = grid.add_cluster(config);

  // Hand-feed the GUPA a pattern for node 0: busy 09:00-18:00 weekdays.
  const NodeId node0 = cluster.lrm(0).node_id();
  protocol::UsagePatternUpload upload;
  upload.node = node0;
  protocol::UsageCategory cat;
  cat.centroid.assign(48, 0.02);
  for (int s = 18; s < 36; ++s) cat.centroid[static_cast<std::size_t>(s)] = 0.95;
  cat.weight = 1.0;
  cat.weekday_fraction = 5.0 / 7.0;
  upload.categories = {cat};
  upload.days_observed = 28;
  cluster.gupa().upload(upload);

  // 08:30 Monday.
  grid.run_until(8 * kHour + 30 * kMinute);

  AppBuilder app("avoid-busy");
  app.tasks(1, 60'000.0).estimated_duration(2 * kHour);
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + kHour));
  EXPECT_EQ(cluster.lrm(0).total_work_done(), 0.0);
  EXPECT_GT(cluster.lrm(1).total_work_done(), 59'000.0);
  EXPECT_GT(cluster.grm().metrics().counter_value("forecast_queries"), 0);
}

TEST_F(GrmFixture, ConcurrentAppsBothComplete) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(6, 14));
  grid.run_for(90 * kSecond);

  AppBuilder first("first");
  first.kind(protocol::AppKind::kParametric).tasks(6, 120'000.0);
  AppBuilder second("second");
  second.kind(protocol::AppKind::kParametric).tasks(6, 120'000.0);
  const AppId a =
      cluster.asct().submit(cluster.grm_ref(), first.build(cluster.asct().ref()));
  const AppId b =
      cluster.asct().submit(cluster.grm_ref(), second.build(cluster.asct().ref()));

  const SimTime deadline = grid.engine().now() + 6 * kHour;
  ASSERT_TRUE(grid.run_until_app_done(cluster, a, deadline));
  ASSERT_TRUE(grid.run_until_app_done(cluster, b, deadline));
  const auto* pa = cluster.asct().progress(a);
  const auto* pb = cluster.asct().progress(b);
  EXPECT_EQ(pa->completed, 6);
  EXPECT_EQ(pb->completed, 6);
  // Neither app starves: makespans within 3x of each other.
  EXPECT_LT(pa->makespan(), 3 * pb->makespan());
  EXPECT_LT(pb->makespan(), 3 * pa->makespan());
}

TEST_F(GrmFixture, BurstDoesNotStampedeItsOwnCandidates) {
  // A burst of four tasks per node: each pass opens at most one wave per
  // node the hints call free, net of the waves still negotiating, so the
  // GRM's own waves do not converge on the same nodes and refuse each other.
  auto& cluster = grid.add_cluster(core::quiet_cluster(20, 21));
  grid.run_for(2 * kMinute);

  AppBuilder burst("burst");
  burst.kind(protocol::AppKind::kParametric).tasks(80, 60'000.0);
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), burst.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + 2 * kHour));
  EXPECT_EQ(cluster.asct().progress(id)->completed, 80);

  const MetricRegistry& m = cluster.grm().metrics();
  const auto rounds = static_cast<double>(m.counter_value("negotiation_rounds"));
  const auto placed = static_cast<double>(m.counter_value("tasks_placed"));
  const auto refused =
      static_cast<double>(m.counter_value("reservations_refused_remote"));
  ASSERT_GT(placed, 0.0);
  EXPECT_LE(rounds / placed, 1.5);
  EXPECT_LE(refused / rounds, 0.25);
}

TEST_F(GrmFixture, EconomyOffDispatchesInArrivalOrder) {
  // With the economy off every task queues under one anonymous tenant with
  // no deadline: apps naming two tenants, the later one with the earlier
  // deadline bid, still dispatch in arrival order.
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 22));
  grid.run_for(2 * kMinute);

  AppBuilder first("first-in");
  first.kind(protocol::AppKind::kParametric)
      .tasks(2, 60'000.0)
      .tenant("a")
      .bid(1.0, kHour);
  AppBuilder second("second-in");
  second.kind(protocol::AppKind::kParametric)
      .tasks(2, 60'000.0)
      .tenant("b")
      .bid(1.0, 5 * kMinute);
  const auto a = first.build(cluster.asct().ref());
  const auto b = second.build(cluster.asct().ref());
  ASSERT_TRUE(cluster.grm().handle_submit(a).accepted);
  ASSERT_TRUE(cluster.grm().handle_submit(b).accepted);
  grid.run_for(10 * kSecond);

  // Two free nodes take the first two arrivals.
  for (const auto& task : a.tasks) {
    EXPECT_EQ(cluster.grm().task_state(task.id), TaskState::kRunning);
  }
  for (const auto& task : b.tasks) {
    EXPECT_EQ(cluster.grm().task_state(task.id), TaskState::kPending);
  }
  EXPECT_EQ(cluster.grm().running_tasks(""), 2);
  EXPECT_EQ(cluster.grm().running_tasks("a"), 0);
  EXPECT_EQ(cluster.grm().running_tasks("b"), 0);
  EXPECT_EQ(cluster.grm().running_tasks(), 2);
}

TEST_F(GrmFixture, SummariesFlowUpTheHierarchy) {
  auto& parent = grid.add_cluster(core::quiet_cluster(2, 12, 1000.0, "hq"));
  auto& child = grid.add_cluster(core::quiet_cluster(2, 13, 1000.0, "edge"));
  grid.connect(parent, child);
  grid.run_for(3 * kMinute);
  // The parent has heard the child's summary (visible indirectly: remote
  // submits would route; check via metrics of pushes).
  EXPECT_GE(child.grm().metrics().counter_value("status_updates_received"), 1);
  // Child pushed at least two summaries by now (60s cadence).
  // (No direct getter; verified by the parent adopting in integration_test.)
  SUCCEED();
}

TEST_F(GrmFixture, AdmissionRejectsOverQuotaSubmit) {
  core::ClusterConfig config = core::quiet_cluster(3, 21);
  config.sched.enabled = true;
  config.sched.tenants = {{"capped", 1.0, /*max_running=*/0, /*max_queued=*/2}};
  auto& cluster = grid.add_cluster(config);
  grid.run_for(90 * kSecond);

  // Three tasks against a two-deep tenant queue: refused outright, nothing
  // queued, and the rejection is visible in the metrics.
  AppBuilder over("over-quota");
  over.kind(protocol::AppKind::kParametric).tasks(3, 1000.0).tenant("capped");
  auto reply = cluster.grm().handle_submit(over.build(cluster.asct().ref()));
  EXPECT_FALSE(reply.accepted);
  EXPECT_EQ(cluster.grm().metrics().counter_value("sched_admission_rejected"),
            1);
  EXPECT_EQ(cluster.grm().queue_length(), 0u);

  // The same tenant within quota is admitted and runs to completion.
  AppBuilder fits("fits-quota");
  fits.kind(protocol::AppKind::kParametric).tasks(2, 1000.0).tenant("capped");
  const AppId ok =
      cluster.asct().submit(cluster.grm_ref(), fits.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, ok, grid.engine().now() + kHour));
}

/// Steps `grid` one event at a time until `done()` holds, running `check()`
/// after every event; fails if `limit` of sim-time passes first.
template <class Done, class Check>
::testing::AssertionResult step_until(core::Grid& grid, SimDuration limit,
                                      Done done, Check check) {
  const SimTime deadline = grid.engine().now() + limit;
  while (!done()) {
    if (!grid.engine().step(deadline)) {
      return ::testing::AssertionFailure()
             << "not reached within " << to_seconds(limit) << " s";
    }
    check();
    if (::testing::Test::HasFatalFailure()) {
      return ::testing::AssertionFailure() << "check failed";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Index of the LRM running `task`, per the GRM's placement.
std::size_t host_of(core::Cluster& cluster, TaskId task) {
  const Grm::Placement* placement = cluster.grm().placement_of(task);
  EXPECT_NE(placement, nullptr);
  for (std::size_t i = 0; placement != nullptr && i < cluster.size(); ++i) {
    if (cluster.lrm(i).node_id() == placement->node) return i;
  }
  ADD_FAILURE() << "task " << task.value << " has no host";
  return 0;
}

TEST_F(GrmFixture, RunningQuotaHoldsAcrossEveryWayATaskLeaves) {
  // max_running = 1: the tenant never holds two slots, and its next task
  // dispatches once the running one leaves — by completing, by its owner
  // evicting it, by the stale sweep declaring its node dead, and by its app
  // being cancelled. Queue order within the tenant is arrival order.
  core::ClusterConfig config = core::quiet_cluster(5, 31);
  config.sched.enabled = true;
  config.sched.tenants = {{"capped", 1.0, /*max_running=*/1, 0}};
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);
  Grm& grm = cluster.grm();

  AppBuilder short_app("short");
  short_app.tasks(1, 60'000.0).tenant("capped");
  AppBuilder long_app("long");
  long_app.kind(protocol::AppKind::kParametric)
      .tasks(3, 6'000'000.0)
      .tenant("capped");
  AppBuilder tail_app("tail");
  tail_app.tasks(1, 6'000'000.0).tenant("capped");
  const auto s = short_app.build(cluster.asct().ref());
  const auto l = long_app.build(cluster.asct().ref());
  const auto t = tail_app.build(cluster.asct().ref());
  ASSERT_TRUE(grm.handle_submit(s).accepted);
  ASSERT_TRUE(grm.handle_submit(l).accepted);
  ASSERT_TRUE(grm.handle_submit(t).accepted);

  const TaskId s0 = s.tasks[0].id;
  const TaskId l0 = l.tasks[0].id;
  const TaskId l1 = l.tasks[1].id;
  const TaskId l2 = l.tasks[2].id;
  const TaskId t0 = t.tasks[0].id;
  // After every event: one slot at most, and the queue holds exactly the
  // pending tasks (a cancelled task reads as kFailed).
  auto one_slot = [&grm, all = std::vector<TaskId>{s0, l0, l1, l2, t0}] {
    ASSERT_LE(grm.running_tasks("capped"), 1);
    const auto pending = std::count_if(all.begin(), all.end(), [&grm](TaskId id) {
      return grm.task_state(id) == TaskState::kPending;
    });
    ASSERT_EQ(grm.queue_length(), static_cast<std::size_t>(pending));
  };
  auto running = [&grm](TaskId id) {
    return [&grm, id] { return grm.task_state(id) == TaskState::kRunning; };
  };

  ASSERT_TRUE(step_until(grid, kMinute, running(s0), one_slot));
  EXPECT_EQ(grm.running_tasks("capped"), 1);
  EXPECT_EQ(grm.task_state(l0), TaskState::kPending);

  // Completion.
  ASSERT_TRUE(step_until(grid, 10 * kMinute, running(l0), one_slot));
  EXPECT_EQ(grm.task_state(s0), TaskState::kCompleted);
  EXPECT_EQ(grm.running_tasks("capped"), 1);

  // The owner evicts l0; it requeues behind the tenant's queued tasks.
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.9;
  cluster.machine(host_of(cluster, l0)).set_owner_load(busy);
  ASSERT_TRUE(step_until(grid, 10 * kMinute, running(l1), one_slot));
  EXPECT_EQ(grm.task_state(l0), TaskState::kPending);
  EXPECT_EQ(grm.metrics().counter_value("tasks_evicted"), 1);
  EXPECT_EQ(grm.running_tasks("capped"), 1);

  // l1's node crashes and never restarts: the stale sweep reclaims it.
  cluster.lrm(host_of(cluster, l1)).crash();
  ASSERT_TRUE(step_until(grid, 10 * kMinute, running(l2), one_slot));
  EXPECT_EQ(grm.task_state(l1), TaskState::kPending);
  EXPECT_EQ(grm.metrics().counter_value("tasks_node_failed"), 1);
  EXPECT_EQ(grm.running_tasks("capped"), 1);

  // Cancelling "long" drops l2 (and the requeued l0, l1): t0 goes next.
  grm.handle_cancel_app(l.id);
  EXPECT_EQ(grm.running_tasks("capped"), 0);
  ASSERT_TRUE(step_until(grid, 10 * kMinute, running(t0), one_slot));
  EXPECT_EQ(grm.running_tasks("capped"), 1);
  EXPECT_EQ(grm.running_tasks(), 1);
}

/// The GRM's hint of every node in `cluster`, in LRM order.
std::vector<protocol::NodeStatus> hints(core::Cluster& cluster) {
  std::vector<protocol::NodeStatus> out;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto hint = cluster.grm().node_view(cluster.lrm(i).node_id());
    EXPECT_TRUE(hint.has_value());
    out.push_back(hint.value_or(protocol::NodeStatus{}));
  }
  return out;
}

/// Every node in `hosts` has its `before` running count back in the GRM's
/// hint, and is shareable again.
void expect_credited(core::Cluster& cluster,
                     const std::vector<protocol::NodeStatus>& before,
                     const std::vector<NodeId>& hosts) {
  const auto now = hints(cluster);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const NodeId node = cluster.lrm(i).node_id();
    if (std::find(hosts.begin(), hosts.end(), node) == hosts.end()) continue;
    EXPECT_EQ(now[i].running_tasks, before[i].running_tasks) << "node " << i;
    EXPECT_TRUE(now[i].shareable) << "node " << i;
  }
}

TEST_F(GrmFixture, BspCompletionCreditsEveryRankNodeAtOnce) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(6, 61));
  grid.run_for(2 * kMinute);
  Grm& grm = cluster.grm();
  const auto before = hints(cluster);

  AppBuilder app("bsp-done");
  app.bsp(4, 6, 10'000.0, 16 * kKiB, /*ckpt_every=*/0, 0);
  const auto spec = app.build(cluster.asct().ref());
  ASSERT_TRUE(grm.handle_submit(spec).accepted);
  const auto all_running = [&] {
    return std::all_of(spec.tasks.begin(), spec.tasks.end(), [&](const auto& t) {
      return grm.task_state(t.id) == TaskState::kRunning;
    });
  };
  ASSERT_TRUE(step_until(grid, 10 * kMinute, all_running, [] {}));
  std::vector<NodeId> hosts;
  for (const auto& rank : spec.tasks) hosts.push_back(grm.placement_of(rank.id)->node);

  // The coordinator's completion cancels the residents; at that same
  // instant their nodes' hints are free again.
  ASSERT_TRUE(step_until(
      grid, kHour,
      [&] { return grm.task_state(spec.tasks[0].id) == TaskState::kCompleted; },
      [] {}));
  expect_credited(cluster, before, hosts);
}

TEST_F(GrmFixture, CancelCreditsTheNodesOfItsRunningTasks) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(4, 62));
  grid.run_for(2 * kMinute);
  Grm& grm = cluster.grm();
  const auto before = hints(cluster);

  AppBuilder app("cancelled");
  app.kind(protocol::AppKind::kParametric).tasks(3, 6'000'000.0);
  const auto spec = app.build(cluster.asct().ref());
  ASSERT_TRUE(grm.handle_submit(spec).accepted);
  ASSERT_TRUE(step_until(
      grid, 10 * kMinute, [&] { return grm.running_tasks() == 3; }, [] {}));
  std::vector<NodeId> hosts;
  for (const auto& task : spec.tasks) hosts.push_back(grm.placement_of(task.id)->node);

  grm.handle_cancel_app(spec.id);
  expect_credited(cluster, before, hosts);
}

TEST_F(GrmFixture, ResyncOfAPendingTaskLeavesTheQueueAndDebitsItsNode) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(3, 63));
  grid.run_for(2 * kMinute);
  Grm& grm = cluster.grm();

  // No node matches, so the task waits in the queue.
  AppBuilder app("unplaceable");
  app.tasks(1, 60'000.0).constraint("cpu_mips > 1000000");
  const auto spec = app.build(cluster.asct().ref());
  ASSERT_TRUE(grm.handle_submit(spec).accepted);
  grid.run_for(kMinute);
  const TaskId id = spec.tasks[0].id;
  ASSERT_EQ(grm.task_state(id), TaskState::kPending);
  ASSERT_EQ(grm.queue_length(), 1u);

  // An LRM declares it runs the task after all.
  lrm::Lrm& host = cluster.lrm(1);
  const protocol::NodeStatus hint = *grm.node_view(host.node_id());
  protocol::TaskResync resync;
  resync.node = host.node_id();
  resync.lrm = host.current_status().lrm;
  resync.running = {id};
  grm.handle_task_resync(resync);
  EXPECT_EQ(grm.task_state(id), TaskState::kRunning);
  EXPECT_EQ(grm.queue_length(), 0u);
  const protocol::NodeStatus debited = *grm.node_view(host.node_id());
  EXPECT_EQ(debited.running_tasks, hint.running_tasks + 1);
  EXPECT_LT(debited.exportable_cpu, hint.exportable_cpu);
}

TEST_F(GrmFixture, CompletionFromAnotherNodeCancelsThePlacedCopy) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(3, 64));
  grid.run_for(2 * kMinute);
  Grm& grm = cluster.grm();

  AppBuilder app("forged");
  app.tasks(1, 600'000.0);
  const auto spec = app.build(cluster.asct().ref());
  ASSERT_TRUE(grm.handle_submit(spec).accepted);
  const TaskId id = spec.tasks[0].id;
  ASSERT_TRUE(step_until(
      grid, 10 * kMinute,
      [&] { return grm.task_state(id) == TaskState::kRunning; }, [] {}));
  const std::size_t b = host_of(cluster, id);
  const std::size_t a = (b + 1) % cluster.size();
  ASSERT_EQ(cluster.lrm(b).running_task_count(), 1);

  // Node A reports the task done while the GRM has it running on B.
  protocol::TaskReport forged;
  forged.task = id;
  forged.node = cluster.lrm(a).node_id();
  forged.outcome = protocol::TaskOutcome::kCompleted;
  grm.handle_report(forged);
  EXPECT_EQ(grm.task_state(id), TaskState::kCompleted);
  grid.run_for(5 * kSecond);
  EXPECT_EQ(cluster.lrm(b).running_task_count(), 0);

  // Long past the copy's own finish, the app has completed exactly once.
  grid.run_for(30 * kMinute);
  EXPECT_EQ(grm.metrics().counter_value("tasks_completed"), 1);
  EXPECT_EQ(grm.metrics().counter_value("apps_completed"), 1);
}

/// A greedy tenant holding every node of a four-node cluster with
/// preemption on (one preempt request in flight at most), then a second
/// tenant queueing two tasks of its own.
class PreemptionFixture : public GrmFixture {
 protected:
  void start() {
    core::ClusterConfig config = core::quiet_cluster(4, 41);
    config.sched.enabled = true;
    config.sched.preemption = true;
    config.sched.max_preemptions_per_wave = 1;
    cluster = &grid.add_cluster(config);
    grid.run_for(2 * kMinute);

    AppBuilder greedy_app("greedy");
    greedy_app.kind(protocol::AppKind::kParametric)
        .tasks(4, 6'000'000.0)
        .tenant("greedy");
    greedy = greedy_app.build(cluster->asct().ref());
    ASSERT_TRUE(cluster->grm().handle_submit(greedy).accepted);
    grid.run_for(kMinute);
    ASSERT_EQ(cluster->grm().running_tasks("greedy"), 4);

    AppBuilder small_app("small");
    small_app.kind(protocol::AppKind::kParametric)
        .tasks(2, 6'000'000.0)
        .tenant("small");
    small = small_app.build(cluster->asct().ref());
    ASSERT_TRUE(cluster->grm().handle_submit(small).accepted);
  }

  [[nodiscard]] std::int64_t preemptions() const {
    return cluster->grm().metrics().counter_value("sched_preemptions");
  }
  [[nodiscard]] TaskId lowest_greedy_task() const {
    TaskId lowest = greedy.tasks.front().id;
    for (const auto& task : greedy.tasks) lowest = std::min(lowest, task.id);
    return lowest;
  }

  core::Cluster* cluster = nullptr;
  protocol::ApplicationSpec greedy;
  protocol::ApplicationSpec small;
};

TEST_F(PreemptionFixture, EvictsTheLowestGreedyTaskOneRequestAtATime) {
  ASSERT_NO_FATAL_FAILURE(start());
  Grm& grm = cluster->grm();
  const TaskId victim = lowest_greedy_task();
  ASSERT_TRUE(step_until(
      grid, kMinute, [this] { return preemptions() > 0; }, [] {}));
  const std::size_t host = host_of(*cluster, victim);

  // Until the victim's eviction report lands, no second request goes out.
  ASSERT_TRUE(step_until(
      grid, kMinute,
      [&] { return grm.task_state(victim) != TaskState::kRunning; },
      [this] { ASSERT_EQ(preemptions(), 1); }));
  EXPECT_EQ(cluster->lrm(host).metrics().counter_value("tasks_preempted"), 1);
  EXPECT_EQ(grm.task_state(victim), TaskState::kPending);
  for (const auto& task : greedy.tasks) {
    if (task.id != victim) {
      EXPECT_EQ(grm.task_state(task.id), TaskState::kRunning);
    }
  }

  // The freed node goes to the second tenant.
  ASSERT_TRUE(step_until(
      grid, kMinute, [&] { return grm.running_tasks("small") == 1; }, [] {}));
  int on_freed_node = 0;
  for (const auto& task : small.tasks) {
    const Grm::Placement* placement = grm.placement_of(task.id);
    if (placement != nullptr &&
        placement->node == cluster->lrm(host).node_id()) {
      ++on_freed_node;
    }
  }
  EXPECT_EQ(on_freed_node, 1);
}

TEST_F(PreemptionFixture, SweptVictimFreesThePreemptionCap) {
  ASSERT_NO_FATAL_FAILURE(start());
  Grm& grm = cluster->grm();
  const TaskId victim = lowest_greedy_task();
  ASSERT_TRUE(step_until(
      grid, kMinute, [this] { return preemptions() > 0; }, [] {}));

  // The victim's node dies before the request reaches it: no eviction
  // report will ever come, and the request holds the cap until the stale
  // sweep reclaims the node.
  cluster->lrm(host_of(*cluster, victim)).crash();
  ASSERT_TRUE(step_until(
      grid, 10 * kMinute,
      [&] { return grm.task_state(victim) != TaskState::kRunning; },
      [this] { ASSERT_EQ(preemptions(), 1); }));
  EXPECT_EQ(grm.metrics().counter_value("tasks_node_failed"), 1);

  // The cap is free again: the next greedy task is asked to leave.
  ASSERT_TRUE(step_until(
      grid, kMinute, [this] { return preemptions() == 2; }, [] {}));
}

/// One GRM and one LRM on a LAN, with no periodic traffic between them: the
/// LRM starts without a GRM reference, so each test delivers loads itself.
class LoadPullFixture : public ::testing::Test {
 protected:
  LoadPullFixture()
      : network(engine, Rng(1)),
        transport(network),
        manager_orb(1, transport, &engine),
        node_orb(2, transport, &engine),
        machine(NodeId(10), spec()),
        grm(engine, manager_orb, ClusterId(1), Rng(3)) {
    network.set_jitter(0.0);
    const auto lan = network.add_segment(sim::SegmentSpec{});
    network.attach(1, lan);
    network.attach(2, lan);
    grm.start(nullptr, nullptr, &network);
    ncc::SharingPolicy policy;
    policy.idle_grace = kMinute;
    lrm::LrmOptions options;
    options.run_lupa = false;
    lrm = std::make_unique<lrm::Lrm>(engine, node_orb, machine,
                                     ncc::Ncc(policy), Rng(2), options);
    lrm->start(orb::ObjectRef{}, orb::ObjectRef{}, orb::ObjectRef{}, &network);
    engine.run_until(2 * kMinute);  // past the idle grace: shareable
  }

  static node::MachineSpec spec() {
    node::MachineSpec s;
    s.hostname = "lab-n10";
    s.cpu_mips = 1500.0;
    s.platforms = {"linux-x86", "java"};
    return s;
  }

  [[nodiscard]] protocol::NodeLoad load() const {
    return protocol::load_of(lrm->current_status());
  }
  [[nodiscard]] std::int64_t counter(const char* name) {
    return grm.metrics().counter_value(name);
  }

  sim::Engine engine;
  sim::Network network;
  orb::SimNetworkTransport transport;
  orb::Orb manager_orb;
  orb::Orb node_orb;
  node::Machine machine;
  Grm grm;
  std::unique_ptr<lrm::Lrm> lrm;
};

TEST_F(LoadPullFixture, FirstLoadRegistersWithOnePullInFlight) {
  grm.handle_node_load(load());
  grm.handle_node_load(load());
  grm.handle_node_load(load());
  EXPECT_EQ(grm.known_nodes(), 0u);  // the pull's reply is still on the wire
  EXPECT_EQ(counter("status_pulls"), 1);
  EXPECT_EQ(counter("loads_dropped_pending_pull"), 2);
  EXPECT_EQ(counter("status_updates_received"), 3);

  engine.run_until(engine.now() + kSecond);
  ASSERT_EQ(grm.known_nodes(), 1u);
  EXPECT_EQ(counter("status_pulls"), 1);
  EXPECT_EQ(counter("nodes_registered"), 1);
  EXPECT_EQ(grm.trader().offer_count(protocol::kNodeServiceType), 1u);
  const auto view = grm.node_view(NodeId(10));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->hostname, "lab-n10");
  EXPECT_EQ(view->platforms, spec().platforms);
  EXPECT_TRUE(view->shareable);

  // Registered: the next load applies in place, with no second pull.
  grm.handle_node_load(load());
  EXPECT_EQ(counter("status_pulls"), 1);
  EXPECT_EQ(counter("status_updates_received"), 4);
}

TEST_F(LoadPullFixture, FailedPullIsRetriedByTheNextLoad) {
  const protocol::NodeLoad first = load();
  lrm->crash();
  grm.handle_node_load(first);
  engine.run_until(engine.now() + 10 * kSecond);
  EXPECT_EQ(counter("status_pull_failures"), 1);
  EXPECT_EQ(grm.known_nodes(), 0u);

  // Another load while the LRM is still down: a fresh pull, failing again.
  grm.handle_node_load(first);
  engine.run_until(engine.now() + 10 * kSecond);
  EXPECT_EQ(counter("status_pulls"), 2);
  EXPECT_EQ(counter("status_pull_failures"), 2);
  EXPECT_EQ(grm.known_nodes(), 0u);

  lrm->restart();
  grm.handle_node_load(load());
  engine.run_until(engine.now() + kSecond);
  EXPECT_EQ(counter("status_pulls"), 3);
  EXPECT_EQ(counter("status_pull_failures"), 2);
  ASSERT_EQ(grm.known_nodes(), 1u);
  EXPECT_EQ(grm.node_view(NodeId(10))->hostname, "lab-n10");
}

TEST_F(LoadPullFixture, LoadRewritesOnlyDynamicProperties) {
  protocol::NodeStatus registered = lrm->current_status();
  registered.segment = 2;
  grm.handle_update_status(registered);
  ASSERT_EQ(grm.known_nodes(), 1u);

  protocol::NodeLoad next = load();
  next.owner_cpu = 0.25;
  next.exportable_cpu = 0.5;
  next.free_ram = 64 * kMiB;
  next.running_tasks = 3;
  next.timestamp = registered.timestamp + kSecond;
  grm.handle_node_load(next);
  EXPECT_EQ(counter("status_pulls"), 0);

  const auto offers = grm.trader().offers_of_type(protocol::kNodeServiceType);
  ASSERT_EQ(offers.size(), 1u);
  const services::PropertySet& props = offers.front()->properties;
  EXPECT_EQ(props.get_string(protocol::kPropHostname), "lab-n10");
  EXPECT_EQ(props.get_real(protocol::kPropCpuMips), 1500.0);
  EXPECT_EQ(props.get_int(protocol::kPropSegment), 2);
  ASSERT_TRUE(props.get(protocol::kPropPlatforms).is_list());
  EXPECT_EQ(props.get(protocol::kPropPlatforms).as_list().size(), 2u);
  EXPECT_EQ(props.get_real(protocol::kPropExportableMips), 0.5 * 1500.0);
  EXPECT_EQ(props.get_real(protocol::kPropOwnerCpu), 0.25);
  EXPECT_EQ(props.get_int(protocol::kPropFreeRam), 64);
  EXPECT_EQ(props.get_int(protocol::kPropRunningTasks), 3);

  const auto view = grm.node_view(NodeId(10));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->segment, 2);
  EXPECT_EQ(view->hostname, "lab-n10");
  EXPECT_EQ(view->exportable_cpu, 0.5);
  EXPECT_EQ(view->timestamp, next.timestamp);
}

/// Every offer holds exactly what its node record says. The GRM writes
/// offers by slot, so a value written to the wrong slot, or a write refused
/// by a Trader on which the node type was never declared, shows here.
void expect_offers_match_records(Grm& grm) {
  const auto offers = grm.trader().offers_of_type(protocol::kNodeServiceType);
  ASSERT_EQ(offers.size(), grm.known_nodes());
  for (const services::ServiceOffer* offer : offers) {
    const auto node = NodeId(static_cast<std::uint64_t>(
        offer->properties.get_int(protocol::kPropNodeId).value_or(-1)));
    const auto view = grm.node_view(node);
    ASSERT_TRUE(view.has_value()) << to_string(node);
    EXPECT_EQ(offer->properties, protocol::to_properties(*view))
        << to_string(node);
  }
  const Status invariants = grm.trader().check_invariants();
  EXPECT_TRUE(invariants.is_ok()) << invariants.message();
}

TEST_F(GrmFixture, OffersEqualTheirNodeRecordsAfterHeartbeatsAndAPull) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(4, 9));
  grid.run_for(90 * kSecond);  // each node registered by a pull, then loads
  ASSERT_EQ(cluster.grm().known_nodes(), 4u);
  // Placements and completions move the GRM's hints between loads.
  AppBuilder app("slots");
  app.tasks(6, 200'000.0);
  cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  grid.run_for(20 * kSecond);
  EXPECT_GT(cluster.grm().running_tasks(), 0);
  expect_offers_match_records(cluster.grm());

  // A node swept and pulled again, then a full refresh of a known node.
  cluster.lrm(0).crash();
  grid.run_for(5 * kMinute);
  cluster.lrm(0).restart();
  grid.run_for(30 * kSecond);
  ASSERT_EQ(cluster.grm().known_nodes(), 4u);
  EXPECT_GE(cluster.grm().metrics().counter_value("status_pulls"), 5);
  protocol::NodeStatus full = cluster.lrm(1).current_status();
  full.hostname = "renamed";
  full.segment = 5;
  full.platforms = {"java"};
  full.owner_cpu = 0.125;
  cluster.grm().handle_update_status(full);
  expect_offers_match_records(cluster.grm());
  EXPECT_EQ(cluster.grm().node_view(full.node)->hostname, "renamed");
}

TEST_F(GrmFixture, StandbyOffersEqualTheirNodeRecordsAfterLoadAndHeartbeats) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(4, 10));
  grid.run_for(90 * kSecond);
  ASSERT_EQ(cluster.grm().known_nodes(), 4u);
  cdr::Writer image;
  cluster.grm().save(image);
  const auto bytes = image.take_buffer();

  sim::Engine engine;
  orb::DirectTransport transport;
  orb::Orb orb(1, transport, &engine);
  Grm standby(engine, orb, ClusterId(1), Rng(5));
  standby.start(nullptr, nullptr, nullptr);
  cdr::Reader r(bytes);
  ASSERT_TRUE(standby.load(Grm::kSnapshotVersion, r).is_ok());
  expect_offers_match_records(standby);

  // Heartbeats after the load rewrite the rebuilt Trader's offers.
  for (std::size_t i = 0; i < 4; ++i) {
    protocol::NodeLoad load = protocol::load_of(cluster.lrm(i).current_status());
    load.owner_cpu = 0.5;
    load.grid_cpu = 0.25;
    load.exportable_cpu = 0.25;
    load.free_ram = 96 * kMiB;
    load.running_tasks = 1;
    load.timestamp += kMinute;
    standby.handle_node_load(load);
  }
  ASSERT_EQ(standby.known_nodes(), 4u);
  expect_offers_match_records(standby);
}

TEST_F(GrmFixture, SweptNodeRegistersAgainWhenLoadsResume) {
  auto& cluster = grid.add_cluster(core::quiet_cluster(3, 2));
  grid.run_for(90 * kSecond);
  ASSERT_EQ(cluster.grm().known_nodes(), 3u);
  auto& metrics = cluster.grm().metrics();
  const auto pulls = metrics.counter_value("status_pulls");
  EXPECT_EQ(pulls, 3);  // one registration pull per node

  cluster.lrm(0).crash();
  grid.run_for(5 * kMinute);
  ASSERT_EQ(cluster.grm().known_nodes(), 2u);
  EXPECT_GE(metrics.counter_value("offers_expired"), 1);

  cluster.lrm(0).restart();
  grid.run_for(10 * kSecond);
  EXPECT_EQ(cluster.grm().known_nodes(), 3u);
  EXPECT_EQ(metrics.counter_value("status_pulls"), pulls + 1);
  EXPECT_EQ(cluster.grm().trader().offer_count(protocol::kNodeServiceType), 3u);
  const auto view = cluster.grm().node_view(cluster.lrm(0).node_id());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->hostname, cluster.lrm(0).current_status().hostname);
}

}  // namespace
}  // namespace integrade::grm
