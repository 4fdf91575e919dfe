// Application cancellation: ASCT -> GRM -> LRM/coordinator teardown.
#include <gtest/gtest.h>

#include "asct/asct.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

namespace integrade {
namespace {

using asct::AppBuilder;

TEST(Cancel, SequentialAppStopsEverywhere) {
  core::Grid grid(51);
  auto& cluster = grid.add_cluster(core::quiet_cluster(4, 51));
  grid.run_for(2 * kMinute);

  AppBuilder app("doomed");
  app.kind(protocol::AppKind::kParametric).tasks(4, 600'000.0);
  const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                         app.build(cluster.asct().ref()));
  grid.run_for(2 * kMinute);
  EXPECT_GT(cluster.grm().running_tasks(), 0);

  cluster.asct().cancel(cluster.grm_ref(), id);
  grid.run_for(kMinute);

  // Tasks are gone from every LRM; the ledger shows the app failed.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.lrm(i).running_task_count(), 0);
  }
  EXPECT_FALSE(cluster.grm().app_known(id));
  const auto* progress = cluster.asct().progress(id);
  EXPECT_TRUE(progress->failed);
  EXPECT_FALSE(progress->done);
  EXPECT_EQ(cluster.grm().metrics().counter_value("apps_cancelled"), 1);

  // The freed capacity is immediately reusable.
  AppBuilder next("successor");
  next.tasks(1, 30'000.0);
  const AppId next_id = cluster.asct().submit(cluster.grm_ref(),
                                              next.build(cluster.asct().ref()));
  EXPECT_TRUE(grid.run_until_app_done(cluster, next_id,
                                      grid.engine().now() + kHour));
}

TEST(Cancel, BspAppTearsDownResidentsAndCheckpoints) {
  core::Grid grid(52);
  auto& cluster = grid.add_cluster(core::quiet_cluster(6, 52));
  grid.run_for(2 * kMinute);

  AppBuilder app("doomed-bsp");
  app.bsp(4, 200, 10'000.0, 64 * kKiB, /*ckpt_every=*/4, /*ckpt_bytes=*/kMiB);
  const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                         app.build(cluster.asct().ref()));
  grid.run_for(5 * kMinute);  // several supersteps and checkpoints in
  EXPECT_GT(cluster.repository().checkpoint_count(), 0u);

  cluster.asct().cancel(cluster.grm_ref(), id);
  grid.run_for(kMinute);

  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.lrm(i).running_task_count(), 0);
  }
  EXPECT_EQ(cluster.repository().checkpoint_count(), 0u);  // GC'd
  EXPECT_EQ(cluster.coordinator().stats(id), nullptr);     // forgotten
  EXPECT_TRUE(cluster.asct().progress(id)->failed);

  // No zombie supersteps: the cluster goes quiet.
  const auto work_before = cluster.total_work_done();
  grid.run_for(10 * kMinute);
  EXPECT_DOUBLE_EQ(cluster.total_work_done(), work_before);
}

TEST(Cancel, CancelThenResubmitRunsFresh) {
  // Regression: handle_cancel_app used to leave kFailed task tombstones
  // carrying live retry/remote-timeout state. Resubmitting the same spec
  // (same app and task ids) silently no-op'd the record emplace, so the
  // "new" tasks inherited the dead app's retry state or never ran.
  core::Grid grid(54);
  auto& cluster = grid.add_cluster(core::quiet_cluster(3, 54));
  grid.run_for(2 * kMinute);

  AppBuilder app("phoenix");
  app.kind(protocol::AppKind::kParametric).tasks(3, 400'000.0);
  const auto spec = app.build(cluster.asct().ref());
  const AppId id = cluster.asct().submit(cluster.grm_ref(), spec);
  grid.run_for(2 * kMinute);
  EXPECT_GT(cluster.grm().running_tasks(), 0);

  // Owners stomp every node: the evicted tasks requeue, so the cancel
  // lands while they wait for a free node — the buggy state.
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.9;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.machine(i).set_owner_load(busy);
  }
  grid.run_for(2 * kMinute);
  cluster.asct().cancel(cluster.grm_ref(), id);
  grid.run_for(kMinute);
  EXPECT_FALSE(cluster.grm().app_known(id));
  EXPECT_EQ(cluster.grm().pending_tasks(), 0);  // erased, not tombstoned

  // Owners leave; resubmit the identical spec. It must be admitted as a
  // brand-new app and complete, proving no per-task state survived.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.machine(i).set_owner_load(node::OwnerLoad{});
  }
  const AppId again = cluster.asct().submit(cluster.grm_ref(), spec);
  EXPECT_EQ(again, id);
  ASSERT_TRUE(
      grid.run_until_app_done(cluster, again, grid.engine().now() + 2 * kHour));
  EXPECT_EQ(cluster.asct().progress(again)->completed, 3);
}

TEST(Cancel, UnknownAppIsHarmless) {
  core::Grid grid(53);
  auto& cluster = grid.add_cluster(core::quiet_cluster(2, 53));
  grid.run_for(2 * kMinute);
  cluster.asct().cancel(cluster.grm_ref(), AppId(424242));
  grid.run_for(kMinute);  // no crash, no effect
  EXPECT_EQ(cluster.grm().metrics().counter_value("apps_cancelled"), 0);
}

}  // namespace
}  // namespace integrade
