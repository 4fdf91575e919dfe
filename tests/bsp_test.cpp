// BSP coordinator: superstep cycle timing, exchange cost, checkpoint
// cadence, and rollback semantics.
#include <gtest/gtest.h>

#include "asct/asct.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

namespace integrade::bsp {
namespace {

using asct::AppBuilder;

struct BspRun {
  core::Grid grid;
  core::Cluster* cluster;

  explicit BspRun(std::uint64_t seed, int nodes = 8)
      : grid(seed), cluster(&grid.add_cluster(core::quiet_cluster(nodes, seed))) {
    grid.run_for(2 * kMinute);
  }

  AppId submit(int processes, int supersteps, MInstr work, Bytes comm,
               int ckpt_every, Bytes ckpt_bytes) {
    AppBuilder builder("bsp");
    builder.bsp(processes, supersteps, work, comm, ckpt_every, ckpt_bytes);
    return cluster->asct().submit(cluster->grm_ref(),
                                  builder.build(cluster->asct().ref()));
  }
};

TEST(BspCoordinator, CompletesAllSupersteps) {
  BspRun run(21);
  const AppId app = run.submit(4, 25, 2'000.0, 0, 0, 0);
  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 4 * kHour));
  const auto* stats = run.cluster->coordinator().stats(app);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->supersteps_completed, 25);
  EXPECT_EQ(stats->chunks_issued, 4 * 25);
  EXPECT_EQ(stats->checkpoints_committed, 0);  // checkpointing off
}

TEST(BspCoordinator, CheckpointCadence) {
  BspRun run(22);
  const AppId app = run.submit(4, 20, 2'000.0, 0, /*every=*/4, 256 * kKiB);
  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 4 * kHour));
  const auto* stats = run.cluster->coordinator().stats(app);
  // Checkpoints after supersteps 3,7,11,15,19 -> 5 commits.
  EXPECT_EQ(stats->checkpoints_committed, 5);
  // Repository cleaned after completion.
  EXPECT_EQ(run.cluster->repository().checkpoint_count(), 0u);
}

TEST(BspCoordinator, ExchangeVolumeBillsTheNetwork) {
  BspRun with_comm(23);
  const auto base_bytes = with_comm.grid.network().stats().bytes;
  const AppId app = with_comm.submit(4, 10, 1'000.0, kMiB, 0, 0);
  ASSERT_TRUE(with_comm.grid.run_until_app_done(
      *with_comm.cluster, app, with_comm.grid.engine().now() + 4 * kHour));
  const auto exchanged = with_comm.grid.network().stats().bytes - base_bytes;
  // At least P * steps * comm bytes of h-relation traffic.
  EXPECT_GE(exchanged, 4 * 10 * static_cast<std::int64_t>(kMiB));
}

TEST(BspCoordinator, BarrierWaitsForSlowestRank) {
  // Heterogeneous nodes: the superstep rate is set by the slowest machine.
  core::Grid grid(24);
  core::ClusterConfig config = core::quiet_cluster(4, 24);
  config.nodes[0].spec.cpu_mips = 4000.0;
  config.nodes[1].spec.cpu_mips = 4000.0;
  config.nodes[2].spec.cpu_mips = 4000.0;
  config.nodes[3].spec.cpu_mips = 500.0;  // straggler
  auto& cluster = grid.add_cluster(config);
  grid.run_for(2 * kMinute);

  AppBuilder builder("straggler");
  builder.bsp(4, 10, 5'000.0, 0, 0, 0);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  const SimTime start = grid.engine().now();
  ASSERT_TRUE(grid.run_until_app_done(cluster, app, start + 4 * kHour));
  const auto* stats = cluster.coordinator().stats(app);
  // Slowest rank: 5000 MInstr / 500 MIPS = 10 s per superstep; 10 steps.
  EXPECT_GE(stats->elapsed(), 100 * kSecond);
}

TEST(BspCoordinator, RollbackReplaysFromLastCheckpoint) {
  BspRun run(25, 6);
  const AppId app = run.submit(4, 30, 20'000.0, 0, /*every=*/5, 128 * kKiB);
  run.grid.run_for(6 * kMinute);  // partway in (20s/superstep)

  // Evict one rank by owner return.
  int victim = -1;
  for (std::size_t i = 0; i < run.cluster->size(); ++i) {
    if (run.cluster->lrm(i).running_task_count() > 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0);
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.9;
  run.cluster->machine(static_cast<std::size_t>(victim)).set_owner_load(busy);
  run.grid.run_for(kMinute);
  run.cluster->machine(static_cast<std::size_t>(victim))
      .set_owner_load(node::OwnerLoad{});

  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 12 * kHour));
  const auto* stats = run.cluster->coordinator().stats(app);
  EXPECT_GE(stats->rollbacks, 1);
  EXPECT_GT(stats->supersteps_replayed, 0);
  // Replay per rollback is bounded by the checkpoint interval (5) plus the
  // in-flight superstep.
  EXPECT_LE(stats->supersteps_replayed, stats->rollbacks * 6);
  EXPECT_EQ(stats->supersteps_completed, 30 + stats->supersteps_replayed);
}

TEST(BspCoordinator, NoCheckpointMeansFullRestart) {
  BspRun run(26, 6);
  const AppId app = run.submit(4, 30, 20'000.0, 0, /*every=*/0, 0);
  run.grid.run_for(6 * kMinute);

  int victim = -1;
  for (std::size_t i = 0; i < run.cluster->size(); ++i) {
    if (run.cluster->lrm(i).running_task_count() > 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0);
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.9;
  run.cluster->machine(static_cast<std::size_t>(victim)).set_owner_load(busy);
  run.grid.run_for(kMinute);
  run.cluster->machine(static_cast<std::size_t>(victim))
      .set_owner_load(node::OwnerLoad{});

  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 12 * kHour));
  const auto* stats = run.cluster->coordinator().stats(app);
  ASSERT_GE(stats->rollbacks, 1);
  // Everything executed before the first eviction replays.
  EXPECT_GE(stats->supersteps_replayed, 10);
}

TEST(BspCoordinator, StatsForUnknownAppIsNull) {
  BspRun run(27, 2);
  EXPECT_EQ(run.cluster->coordinator().stats(AppId(424242)), nullptr);
}

// --- content-addressed checkpoint data plane ---

struct DataPlaneRun {
  core::Grid grid;
  core::Cluster* cluster;

  explicit DataPlaneRun(std::uint64_t seed, int nodes = 8)
      : grid(seed), cluster(nullptr) {
    core::ClusterConfig config = core::quiet_cluster(nodes, seed);
    config.ckpt.enabled = true;
    cluster = &grid.add_cluster(config);
    grid.run_for(2 * kMinute);
  }

  AppId submit(int processes, int supersteps, MInstr work, int ckpt_every,
               Bytes ckpt_bytes) {
    AppBuilder builder("bsp-dp");
    builder.bsp(processes, supersteps, work, 0, ckpt_every, ckpt_bytes);
    return cluster->asct().submit(cluster->grm_ref(),
                                  builder.build(cluster->asct().ref()));
  }
};

TEST(BspDataPlane, DedupCutsCheckpointTraffic) {
  DataPlaneRun run(31);
  const AppId app = run.submit(4, 20, 2'000.0, /*every=*/2, 4 * kMiB);
  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 8 * kHour));
  const auto* stats = run.cluster->coordinator().stats(app);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->checkpoints_committed, 10);
  // Every one of the 4 ranks checkpointed 4 MiB ten times...
  EXPECT_EQ(stats->ckpt_image_bytes,
            10 * 4 * 4 * static_cast<std::int64_t>(kMiB));
  // ...but after the first save only dirty chunks cross the wire, so total
  // shipped bytes (repository + 2 replicas) stay well under the logical
  // volume of a whole-image scheme shipping to the repository alone.
  EXPECT_GT(stats->ckpt_chunks_deduped, stats->ckpt_chunks_shipped);
  EXPECT_LT(stats->ckpt_bytes_shipped, stats->ckpt_image_bytes / 2);
  // The repository's chunk store saw >=3x dedup across supersteps.
  const auto* repo_store = run.cluster->repository().data_plane();
  ASSERT_NE(repo_store, nullptr);
  EXPECT_GE(repo_store->dedup_ratio(), 3.0);
  // Commit-time pruning reclaimed superseded versions' chunks (refcounted
  // GC through CheckpointRepository::prune).
  EXPECT_GT(repo_store->bytes_reclaimed(), 0);
}

/// The repository and every provider store hold no checkpoint.
void expect_no_checkpoint_stored(core::Cluster& cluster, const char* after) {
  const ckpt::CheckpointRepository& repository = cluster.repository();
  EXPECT_EQ(repository.checkpoint_count(), 0u) << after;
  EXPECT_EQ(repository.data_plane()->manifest_count(), 0u) << after;
  EXPECT_EQ(repository.data_plane()->chunk_count(), 0u) << after;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const ckpt::ChunkStore& store = cluster.ckpt_agent(i)->store();
    EXPECT_EQ(store.manifest_count(), 0u) << after << ", node " << i;
    EXPECT_EQ(store.chunk_count(), 0u) << after << ", node " << i;
  }
}

/// Six minutes into the run, an owner returns for a minute to the first
/// node running a task: the BSP rank there rolls back and moves.
void owner_returns_to_a_rank(DataPlaneRun& run) {
  run.grid.run_for(6 * kMinute);
  int victim = -1;
  for (std::size_t i = 0; i < run.cluster->size(); ++i) {
    if (run.cluster->lrm(i).running_task_count() > 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(victim, 0);
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.9;
  run.cluster->machine(static_cast<std::size_t>(victim)).set_owner_load(busy);
  run.grid.run_for(kMinute);
  run.cluster->machine(static_cast<std::size_t>(victim))
      .set_owner_load(node::OwnerLoad{});
}

TEST(BspDataPlane, RollbackRestoresThroughChunkStores) {
  DataPlaneRun run(32, 6);
  const AppId app = run.submit(4, 30, 20'000.0, /*every=*/5, kMiB);
  ASSERT_NO_FATAL_FAILURE(owner_returns_to_a_rank(run));

  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 12 * kHour));
  const auto* stats = run.cluster->coordinator().stats(app);
  EXPECT_GE(stats->rollbacks, 1);
  EXPECT_GE(stats->restores, 1);
  EXPECT_EQ(stats->supersteps_completed, 30 + stats->supersteps_replayed);
  // Restores went through the data plane: ranks re-used locally cached
  // chunks or pulled from peers/repository rather than re-shipping whole
  // images from the manager.
  EXPECT_GT(stats->restore_chunks_local + stats->restore_chunks_from_peers +
                stats->restore_chunks_from_repository,
            0);
}

TEST(BspDataPlane, FinishedAppsLeaveNoCheckpointInAnyStore) {
  // A finished app's checkpoints can never be restored again: a minute
  // after it completes, the repository and every provider store are empty.
  DataPlaneRun run(31);
  const auto expect_empty_stores = [&](const char* after) {
    expect_no_checkpoint_stored(*run.cluster, after);
  };

  const AppId bsp = run.submit(4, 8, 2'000.0, /*every=*/2, kMiB);
  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, bsp,
                                          run.grid.engine().now() + 8 * kHour));
  run.grid.run_for(kMinute);
  expect_empty_stores("a BSP app");

  AppBuilder bag("bag");
  bag.kind(protocol::AppKind::kParametric)
      .tasks(8, 150'000.0)
      .checkpoint_period(30 * kSecond, 256 * kKiB);
  const AppId parametric = run.cluster->asct().submit(
      run.cluster->grm_ref(), bag.build(run.cluster->asct().ref()));
  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, parametric,
                                          run.grid.engine().now() + 8 * kHour));
  run.grid.run_for(kMinute);
  expect_empty_stores("a parametric app");
}

TEST(BspDataPlane, NodesARankLeftKeepNoCheckpoint) {
  // The rank that moves leaves that app's checkpoints in its old node's
  // store. Commit prunes and the finish-time drop still reach it, so a
  // minute after the app finishes every store is empty.
  DataPlaneRun run(32, 6);
  const AppId app = run.submit(4, 30, 20'000.0, /*every=*/5, kMiB);
  ASSERT_NO_FATAL_FAILURE(owner_returns_to_a_rank(run));

  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 12 * kHour));
  ASSERT_GE(run.cluster->coordinator().stats(app)->rollbacks, 1);
  run.grid.run_for(kMinute);
  expect_no_checkpoint_stored(*run.cluster, "a BSP app with a rollback");
}

TEST(BspDataPlane, SequentialCheckpointsFlowThroughAgent) {
  DataPlaneRun run(33, 4);
  AppBuilder builder("seq-dp");
  builder.tasks(2, 300'000.0).checkpoint_period(20 * kSecond, 2 * kMiB);
  const AppId app = run.cluster->asct().submit(
      run.cluster->grm_ref(), builder.build(run.cluster->asct().ref()));
  ASSERT_TRUE(run.grid.run_until_app_done(*run.cluster, app,
                                          run.grid.engine().now() + 4 * kHour));
  // The repository store holds deduped manifests from the LRM timer path.
  const auto* repo_store = run.cluster->repository().data_plane();
  ASSERT_NE(repo_store, nullptr);
  EXPECT_GT(repo_store->installs(), 0);
  EXPECT_GE(repo_store->dedup_ratio(), 2.0);
}

}  // namespace
}  // namespace integrade::bsp
