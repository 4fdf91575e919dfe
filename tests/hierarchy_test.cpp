// Inter-cluster protocol details: summary propagation, the RemoteSubmit
// walk, adoption bookkeeping, completion relay, and scale smoke tests.
#include <gtest/gtest.h>

#include "asct/asct.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

namespace integrade::grm {
namespace {

using asct::AppBuilder;

TEST(Hierarchy, OriginAppCompletesOnlyAfterRemoteExecution) {
  core::Grid grid(91);
  auto& parent = grid.add_cluster(core::quiet_cluster(4, 91, 1000.0, "hub"));
  auto& leaf = grid.add_cluster(core::quiet_cluster(1, 92, 1000.0, "leaf"));
  grid.connect(parent, leaf);
  grid.run_for(3 * kMinute);

  // Two node-filling tasks: one runs at the leaf, one must roam to the hub.
  AppBuilder app("two");
  app.kind(protocol::AppKind::kParametric).tasks(2, 300'000.0).ram(100 * kMiB);
  const AppId id =
      leaf.asct().submit(leaf.grm_ref(), app.build(leaf.asct().ref()));

  // Shortly after the forward, the app must NOT be done (delegation is not
  // completion), even though adoption has already happened.
  grid.run_for(3 * kMinute);
  EXPECT_GT(leaf.grm().metrics().counter_value("remote_forwards"), 0);
  EXPECT_GT(parent.grm().metrics().counter_value("remote_adoptions"), 0);
  EXPECT_FALSE(leaf.asct().done(id));

  ASSERT_TRUE(grid.run_until_app_done(leaf, id, grid.engine().now() + 2 * kHour));
  const auto* progress = leaf.asct().progress(id);
  EXPECT_EQ(progress->completed, 2);
  // Both clusters did real work.
  EXPECT_GT(leaf.total_work_done(), 250'000.0);
  EXPECT_GT(parent.total_work_done(), 250'000.0);
}

TEST(Hierarchy, AdoptedFragmentDoesNotDoubleNotifyAsct) {
  core::Grid grid(93);
  auto& parent = grid.add_cluster(core::quiet_cluster(4, 93, 1000.0, "hub"));
  auto& leaf = grid.add_cluster(core::quiet_cluster(1, 94, 1000.0, "leaf"));
  grid.connect(parent, leaf);
  grid.run_for(3 * kMinute);

  AppBuilder app("three");
  app.kind(protocol::AppKind::kParametric).tasks(3, 120'000.0).ram(100 * kMiB);
  const AppId id =
      leaf.asct().submit(leaf.grm_ref(), app.build(leaf.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(leaf, id, grid.engine().now() + 2 * kHour));

  // Exactly 3 completion events and exactly 1 app-completed event arrive.
  int completed_events = 0;
  int done_events = 0;
  for (const auto& event : leaf.asct().events()) {
    if (event.app != id) continue;
    if (event.kind == protocol::AppEventKind::kTaskCompleted) ++completed_events;
    if (event.kind == protocol::AppEventKind::kAppCompleted) ++done_events;
  }
  EXPECT_EQ(completed_events, 3);
  EXPECT_EQ(done_events, 1);
}

TEST(Hierarchy, TtlPreventsInfiniteWalks) {
  // A lone cluster with no capacity: the forward has nowhere to go and the
  // task keeps requeueing locally rather than walking forever.
  core::Grid grid(95);
  auto config = core::quiet_cluster(1, 95, 1000.0, "lonely");
  config.nodes[0].profile = node::busy_server_profile();
  config.nodes[0].profile.presence_prob.fill(0.999);
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  AppBuilder app("stuck");
  app.tasks(1, 1000.0);
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  grid.run_for(30 * kMinute);
  EXPECT_FALSE(cluster.asct().done(id));
  // Never forwarded (no parent, no children); still pending, not lost.
  EXPECT_EQ(cluster.grm().metrics().counter_value("remote_forwards"), 0);
  EXPECT_EQ(cluster.grm().pending_tasks(), 1);
}

TEST(Hierarchy, RemoteTimeoutReclaimsUnadoptedTask) {
  // Parent exists but has zero capacity: forwards go out, nobody adopts,
  // and the origin reclaims the task after the timeout.
  core::Grid grid(96);
  auto parent_config = core::quiet_cluster(1, 96, 1000.0, "empty-hub");
  parent_config.nodes[0].profile = node::busy_server_profile();
  parent_config.nodes[0].profile.presence_prob.fill(0.999);
  auto& parent = grid.add_cluster(parent_config);

  auto leaf_config = core::quiet_cluster(1, 97, 1000.0, "leaf");
  leaf_config.nodes[0].profile = node::busy_server_profile();
  leaf_config.nodes[0].profile.presence_prob.fill(0.999);
  auto& leaf = grid.add_cluster(leaf_config);
  grid.connect(parent, leaf);
  grid.run_for(3 * kMinute);

  AppBuilder app("nowhere");
  app.tasks(1, 1000.0);
  const AppId id =
      leaf.asct().submit(leaf.grm_ref(), app.build(leaf.asct().ref()));
  grid.run_for(kHour);
  EXPECT_FALSE(leaf.asct().done(id));
  EXPECT_GT(leaf.grm().metrics().counter_value("remote_forwards"), 0);
  EXPECT_GT(leaf.grm().metrics().counter_value("remote_timeouts"), 0);
  // The task cycles between local retries and fresh walks — never lost,
  // never falsely completed, never executing on a busy node.
  EXPECT_EQ(leaf.grm().running_tasks(), 0);
}

TEST(HierarchyScale, FiveHundredNodesRegisterAndSchedule) {
  core::Grid grid(99);
  auto config = core::quiet_cluster(500, 99);
  config.lrm.run_lupa = false;  // keep the smoke test lean
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);
  EXPECT_EQ(cluster.grm().known_nodes(), 500u);

  AppBuilder app("wide");
  app.kind(protocol::AppKind::kParametric).tasks(200, 60'000.0);
  const AppId id =
      cluster.asct().submit(cluster.grm_ref(), app.build(cluster.asct().ref()));
  ASSERT_TRUE(grid.run_until_app_done(cluster, id, grid.engine().now() + 4 * kHour));
  EXPECT_EQ(cluster.asct().progress(id)->completed, 200);

  int nodes_used = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.lrm(i).total_work_done() > 0) ++nodes_used;
  }
  EXPECT_GT(nodes_used, 100);  // work spread wide, not funneled
}

}  // namespace
}  // namespace integrade::grm
