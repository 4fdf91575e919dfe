// LRM: reservation admission, execution, owner-priority throttling,
// eviction, checkpointing, and the information update protocol.
#include <gtest/gtest.h>

#include <limits>

#include "lrm/lrm.hpp"
#include "orb/transport.hpp"
#include "sim/network.hpp"

namespace integrade::lrm {
namespace {

using protocol::AppKind;
using protocol::TaskOutcome;

/// Captures everything the LRM reports outward.
class Collector final : public orb::SkeletonBase {
 public:
  Collector() {
    register_op<protocol::TaskReport, cdr::Empty>(
        "report", [this](const protocol::TaskReport& r) -> Result<cdr::Empty> {
          reports.push_back(r);
          return cdr::Empty{};
        });
    register_op<protocol::NodeLoad, cdr::Empty>(
        "update_status",
        [this](const protocol::NodeLoad& load) -> Result<cdr::Empty> {
          updates.push_back(load);
          return cdr::Empty{};
        });
    register_op<protocol::UsagePatternUpload, cdr::Empty>(
        "upload_pattern",
        [this](const protocol::UsagePatternUpload& u) -> Result<cdr::Empty> {
          uploads.push_back(u);
          return cdr::Empty{};
        });
    register_op<ckpt::Checkpoint, cdr::Empty>(
        "store_checkpoint",
        [this](const ckpt::Checkpoint& c) -> Result<cdr::Empty> {
          (void)repo.store(c);
          return cdr::Empty{};
        });
    register_op<protocol::BspChunkDone, cdr::Empty>(
        "chunk_done",
        [this](const protocol::BspChunkDone& d) -> Result<cdr::Empty> {
          chunks.push_back(d);
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override { return "IDL:test/Collector:1.0"; }

  std::vector<protocol::TaskReport> reports;
  std::vector<protocol::NodeLoad> updates;
  std::vector<protocol::UsagePatternUpload> uploads;
  std::vector<protocol::BspChunkDone> chunks;
  ckpt::CheckpointRepository repo;
};

class LrmFixture : public ::testing::Test {
 protected:
  LrmFixture()
      : network(engine, Rng(1)),
        transport(network),
        manager_orb(1, transport, &engine),
        node_orb(2, transport, &engine),
        machine(NodeId(10), spec()) {
    network.set_jitter(0.0);
    const auto lan = network.add_segment(sim::SegmentSpec{});
    network.attach(1, lan);
    network.attach(2, lan);

    collector = std::make_shared<Collector>();
    collector_ref = manager_orb.activate(collector);

    ncc::SharingPolicy policy;
    policy.idle_grace = kMinute;
    LrmOptions options;
    options.update_period = 30 * kSecond;
    options.run_lupa = false;
    lrm = std::make_unique<Lrm>(engine, node_orb, machine, ncc::Ncc(policy),
                                Rng(2), options);
    lrm->start(collector_ref, collector_ref, collector_ref, &network);
    // Owner quiet from t=0; run past the grace period.
    engine.run_until(2 * kMinute);
  }

  static node::MachineSpec spec() {
    node::MachineSpec s;
    s.cpu_mips = 1000.0;
    s.ram = 256 * kMiB;
    return s;
  }

  protocol::ReservationRequest reserve_request(std::uint64_t id,
                                               double cpu = 1.0,
                                               Bytes ram = 16 * kMiB) {
    protocol::ReservationRequest req;
    req.id = ReservationId(id);
    req.task = TaskId(id);
    req.cpu_fraction = cpu;
    req.ram = ram;
    req.hold = 30 * kSecond;
    return req;
  }

  protocol::ExecuteRequest execute_request(std::uint64_t id, MInstr work,
                                           AppKind kind = AppKind::kSequential) {
    protocol::ExecuteRequest req;
    req.reservation = ReservationId(id);
    req.task.id = TaskId(id);
    req.task.app = AppId(1);
    req.task.kind = kind;
    req.task.work = work;
    req.task.ram_needed = 16 * kMiB;
    req.report_to = collector_ref;
    return req;
  }

  sim::Engine engine;
  sim::Network network;
  orb::SimNetworkTransport transport;
  orb::Orb manager_orb;
  orb::Orb node_orb;
  node::Machine machine;
  std::shared_ptr<Collector> collector;
  orb::ObjectRef collector_ref;
  std::unique_ptr<Lrm> lrm;
};

TEST_F(LrmFixture, ReserveExecuteComplete) {
  auto reply = lrm->handle_reserve(reserve_request(1));
  ASSERT_TRUE(reply.granted) << reply.reason;

  auto exec = lrm->handle_execute(execute_request(1, 60'000.0));  // 60s
  ASSERT_TRUE(exec.accepted) << exec.reason;
  EXPECT_EQ(lrm->running_task_count(), 1);

  engine.run_until(engine.now() + 2 * kMinute);
  ASSERT_EQ(collector->reports.size(), 1u);
  EXPECT_EQ(collector->reports[0].outcome, TaskOutcome::kCompleted);
  EXPECT_NEAR(collector->reports[0].work_done, 60'000.0, 100.0);
  EXPECT_EQ(lrm->running_task_count(), 0);
}

TEST_F(LrmFixture, CompletionTimeScalesWithCpuShare) {
  // Two equal tasks sharing the CPU take twice as long as one.
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1, 0.5)).granted);
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(2, 0.5)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 30'000.0)).accepted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(2, 30'000.0)).accepted);
  const SimTime start = engine.now();
  engine.run_until(start + 5 * kMinute);
  ASSERT_EQ(collector->reports.size(), 2u);
  // 30000 MInstr at 0.5*1000 MIPS = 60 s each (they run concurrently).
  for (const auto& report : collector->reports) {
    EXPECT_EQ(report.outcome, TaskOutcome::kCompleted);
  }
}

TEST_F(LrmFixture, ReservationRefusedWhenOwnerActive) {
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.7;
  machine.set_owner_load(busy);
  auto reply = lrm->handle_reserve(reserve_request(1));
  EXPECT_FALSE(reply.granted);
  EXPECT_NE(reply.reason.find("not shareable"), std::string::npos);
}

TEST_F(LrmFixture, ReservationRefusedWhenRamExhausted) {
  auto reply = lrm->handle_reserve(reserve_request(1, 0.5, 120 * kMiB));
  ASSERT_TRUE(reply.granted);
  auto second = lrm->handle_reserve(reserve_request(2, 0.4, 120 * kMiB));
  EXPECT_FALSE(second.granted);  // 240 > 128 MiB exportable (50% cap)
  EXPECT_EQ(second.reason, "insufficient RAM");
}

TEST_F(LrmFixture, NegativeRamIsRefusedAndLeavesFreeRamIntact) {
  // A request's RAM comes off the wire. A negative one admitted would make
  // the committed-RAM sum meaningless, and a huge one would overflow it.
  const Bytes free_ram = lrm->current_status().free_ram;
  auto negative = lrm->handle_reserve(reserve_request(1, 0.5, -16 * kMiB));
  EXPECT_FALSE(negative.granted);
  EXPECT_EQ(negative.reason, "negative RAM request");
  auto huge = lrm->handle_reserve(
      reserve_request(2, 0.5, std::numeric_limits<Bytes>::max()));
  EXPECT_FALSE(huge.granted);
  EXPECT_EQ(huge.reason, "insufficient RAM");

  // Execute checks the task's own figure, with or without a reservation.
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(3)).granted);
  auto forged = execute_request(3, 1000.0);
  forged.task.ram_needed = std::numeric_limits<Bytes>::min();
  EXPECT_FALSE(lrm->handle_execute(forged).accepted);
  forged.reservation = ReservationId();
  EXPECT_FALSE(lrm->handle_execute(forged).accepted);
  EXPECT_EQ(lrm->running_task_count(), 0);

  engine.run_until(engine.now() + kMinute);  // reservation 3's hold ends
  EXPECT_EQ(lrm->current_status().free_ram, free_ram);
}

TEST_F(LrmFixture, ExecuteRefusesBadWorkAndTooShortCheckpointPeriods) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  for (const MInstr work : {-1.0, std::numeric_limits<MInstr>::quiet_NaN(),
                            std::numeric_limits<MInstr>::infinity()}) {
    const auto reply = lrm->handle_execute(execute_request(1, work));
    EXPECT_FALSE(reply.accepted) << work;
    EXPECT_EQ(reply.reason, "task work is negative or not finite");
  }
  // A period of a microsecond would checkpoint every microsecond.
  auto fast = execute_request(1, 1000.0);
  fast.task.checkpoint_period = kSecond - 1;
  const auto reply = lrm->handle_execute(fast);
  EXPECT_FALSE(reply.accepted);
  EXPECT_EQ(reply.reason, "task checkpoint period is below 1 s");
  EXPECT_EQ(lrm->running_task_count(), 0);

  fast.task.checkpoint_period = kSecond;
  EXPECT_TRUE(lrm->handle_execute(fast).accepted);
}

TEST_F(LrmFixture, HugeWorkSchedulesItsCompletionOnceNotEveryMicrosecond) {
  // 1e300 MInstr at 1000 MIPS is an ETA far past SimDuration. It must
  // clamp to "never", not wrap to a past time that re-fires every tick.
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 1e300)).accepted);
  const auto fired = engine.events_fired();
  const SimTime end = engine.now() + 10 * kSecond;
  for (int i = 0; i < 100'000 && engine.step(end); ++i) {
  }
  EXPECT_LT(engine.events_fired() - fired, 100);
  EXPECT_EQ(lrm->running_task_count(), 1);
}

TEST_F(LrmFixture, ReservationGrantClampedByAvailableCpu) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1, 0.9)).granted);
  // Second full request still granted but clamped to the remainder.
  auto reply = lrm->handle_reserve(reserve_request(2, 1.0));
  EXPECT_TRUE(reply.granted);
  // Third finds less than the useful minimum.
  auto third = lrm->handle_reserve(reserve_request(3, 1.0));
  EXPECT_FALSE(third.granted);
}

TEST_F(LrmFixture, ShareableOnlyWhenAReservationWouldBeGranted) {
  // A sliver of CPU below the admission threshold is exportable, but the
  // node must not call itself shareable: its load would advertise a node
  // the next reserve refuses.
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1, 0.97)).granted);
  const protocol::NodeStatus& status = lrm->current_status();
  EXPECT_GT(status.exportable_cpu, 0.0);
  EXPECT_LT(status.exportable_cpu, protocol::kMinUsefulCpu);
  EXPECT_FALSE(status.shareable);
  const auto reply = lrm->handle_reserve(reserve_request(2));
  EXPECT_FALSE(reply.granted);
  EXPECT_EQ(reply.reason, "insufficient CPU");
}

TEST_F(LrmFixture, ReservationExpiresAfterHold) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  engine.run_until(engine.now() + kMinute);  // hold was 30s
  auto exec = lrm->handle_execute(execute_request(1, 1000.0));
  EXPECT_FALSE(exec.accepted);
  EXPECT_EQ(lrm->metrics().counter_value("reservations_expired"), 1);
}

TEST_F(LrmFixture, ExecuteWithoutReservationRejectedUnlessDirect) {
  auto exec = lrm->handle_execute(execute_request(99, 1000.0));
  EXPECT_FALSE(exec.accepted);

  // Direct-execute (invalid reservation id) admits inline.
  auto direct = execute_request(100, 1000.0);
  direct.reservation = ReservationId();
  EXPECT_TRUE(lrm->handle_execute(direct).accepted);
}

TEST_F(LrmFixture, OwnerReturnEvictsImmediatelyWithPartialWork) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 600'000.0)).accepted);
  engine.run_until(engine.now() + kMinute);  // ~60s of progress

  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.8;
  machine.set_owner_load(busy);
  engine.run_until(engine.now() + kSecond);

  ASSERT_EQ(collector->reports.size(), 1u);
  EXPECT_EQ(collector->reports[0].outcome, TaskOutcome::kEvicted);
  EXPECT_GT(collector->reports[0].work_done, 30'000.0);
  EXPECT_LT(collector->reports[0].work_done, 120'000.0);
  EXPECT_EQ(lrm->running_task_count(), 0);
  EXPECT_EQ(lrm->metrics().counter_value("owner_reclaims"), 1);
}

TEST_F(LrmFixture, MachineFailureReportsNodeFailed) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 600'000.0)).accepted);
  machine.set_up(false);
  engine.run_until(engine.now() + kSecond);
  ASSERT_EQ(collector->reports.size(), 1u);
  EXPECT_EQ(collector->reports[0].outcome, TaskOutcome::kNodeFailed);
}

TEST_F(LrmFixture, PartialShareThrottlesInsteadOfEvicting) {
  ncc::SharingPolicy policy;
  policy.require_owner_away = false;
  policy.cpu_export_cap = 1.0;
  lrm->ncc().set_policy(policy);

  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 120'000.0)).accepted);

  // Owner uses 75% of the CPU for a while: the grid task slows to 25%.
  node::OwnerLoad busy;
  busy.present = true;
  busy.cpu_fraction = 0.75;
  machine.set_owner_load(busy);
  engine.run_until(engine.now() + 4 * kMinute);
  EXPECT_EQ(collector->reports.size(), 0u);  // still running, not evicted
  EXPECT_EQ(lrm->running_task_count(), 1);

  // Owner leaves; the task speeds back up and finishes.
  machine.set_owner_load(node::OwnerLoad{});
  engine.run_until(engine.now() + 2 * kMinute);
  ASSERT_EQ(collector->reports.size(), 1u);
  EXPECT_EQ(collector->reports[0].outcome, TaskOutcome::kCompleted);
}

TEST_F(LrmFixture, CancelRemovesTaskSilently) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 600'000.0)).accepted);
  lrm->handle_cancel(TaskId(1));
  EXPECT_EQ(lrm->running_task_count(), 0);
  engine.run_until(engine.now() + kMinute);
  EXPECT_TRUE(collector->reports.empty());
}

TEST_F(LrmFixture, StatusUpdatesFlowPeriodically) {
  engine.run_until(engine.now() + 3 * kMinute);
  ASSERT_GE(collector->updates.size(), 5u);
  const protocol::NodeLoad load = collector->updates.back();
  EXPECT_EQ(load.node, NodeId(10));
  EXPECT_TRUE(load.shareable);

  // The static descriptor travels only on the pull a GRM makes through the
  // reference the load carries.
  std::optional<protocol::NodeStatus> pulled;
  orb::call<cdr::Empty, protocol::NodeStatus>(
      manager_orb, load.lrm, "get_status", cdr::Empty{},
      [&pulled](Result<protocol::NodeStatus> reply) {
        if (reply.is_ok()) pulled = reply.value();
      });
  engine.run_until(engine.now() + kSecond);
  ASSERT_TRUE(pulled.has_value());
  EXPECT_EQ(pulled->node, NodeId(10));
  EXPECT_EQ(pulled->cpu_mips, 1000.0);
}

TEST_F(LrmFixture, CheckpointsStoredAndRestoreSeedsProgress) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  auto exec = execute_request(1, 600'000.0);
  exec.task.checkpoint_period = 30 * kSecond;
  exec.task.checkpoint_bytes = 64 * kKiB;
  exec.task.bsp_rank = 0;
  ASSERT_TRUE(lrm->handle_execute(exec).accepted);
  engine.run_until(engine.now() + 2 * kMinute);

  EXPECT_GE(lrm->metrics().counter_value("checkpoints_taken"), 3);
  const auto* checkpoint = collector->repo.latest(AppId(1), 0);
  ASSERT_NE(checkpoint, nullptr);
  auto state = cdr::decode_message<ckpt::SequentialState>(checkpoint->state);
  ASSERT_TRUE(state.is_ok());
  EXPECT_GT(state.value().work_done, 50'000.0);

  // Kill and restart from the checkpoint: completion happens sooner than a
  // cold start would allow.
  lrm->handle_cancel(TaskId(1));
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(2)).granted);
  auto resumed = execute_request(2, 600'000.0);
  resumed.task.id = TaskId(1);
  resumed.restore_state = checkpoint->state;
  ASSERT_TRUE(lrm->handle_execute(resumed).accepted);
  EXPECT_EQ(lrm->metrics().counter_value("tasks_restored"), 1);
}

TEST_F(LrmFixture, BspChunksComputeAndNotify) {
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1)).granted);
  auto exec = execute_request(1, 100'000.0, AppKind::kBsp);
  exec.task.bsp_rank = 2;
  exec.task.bsp_processes = 4;
  exec.task.bsp_supersteps = 10;
  ASSERT_TRUE(lrm->handle_execute(exec).accepted);

  // Resident without a chunk: no progress, no completion.
  engine.run_until(engine.now() + kMinute);
  EXPECT_TRUE(collector->reports.empty());
  EXPECT_TRUE(collector->chunks.empty());

  protocol::BspComputeRequest chunk;
  chunk.task = TaskId(1);
  chunk.rank = 2;
  chunk.superstep = 0;
  chunk.work = 10'000.0;  // 10s at full speed
  chunk.notify = collector_ref;
  lrm->handle_bsp_compute(chunk);
  engine.run_until(engine.now() + kMinute);

  ASSERT_EQ(collector->chunks.size(), 1u);
  EXPECT_EQ(collector->chunks[0].superstep, 0);
  EXPECT_EQ(collector->chunks[0].rank, 2);
  EXPECT_EQ(collector->chunks[0].node, NodeId(10));
  EXPECT_EQ(lrm->running_task_count(), 1);  // still resident
}

TEST_F(LrmFixture, ShareRedistributesWhenTaskFinishes) {
  // Unequal works at equal share: the small one finishes, the big one
  // accelerates. Verify total time < sequential sum.
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(1, 0.5)).granted);
  ASSERT_TRUE(lrm->handle_reserve(reserve_request(2, 0.5)).granted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(1, 10'000.0)).accepted);
  ASSERT_TRUE(lrm->handle_execute(execute_request(2, 50'000.0)).accepted);
  const SimTime start = engine.now();
  engine.run_until(start + 5 * kMinute);
  ASSERT_EQ(collector->reports.size(), 2u);
  // Work conservation: exactly the sum of both tasks was executed, and the
  // machine was never idle between start and the final completion (small
  // task finishes ~20s in at half speed; big one accelerates to full).
  EXPECT_NEAR(lrm->total_work_done(), 60'000.0, 500.0);
}

}  // namespace
}  // namespace integrade::lrm
