// LRM state-machine property tests: random interleavings of reservations,
// executions, cancellations, owner activity, and power events, checked
// against invariants after every step:
//
//   I1  grid CPU in use never exceeds the owner's leftover or the NCC cap;
//   I2  each task produces at most one terminal report;
//   I3  a completed task reports work_done == its descriptor's work;
//   I4  work is conserved: the node's total equals the sum of all reported
//       progress plus the progress of tasks still resident at the end;
//   I5  RAM commitments never exceed the exportable RAM when granted.
#include <gtest/gtest.h>

#include <map>

#include "lrm/lrm.hpp"
#include "orb/transport.hpp"
#include "sim/network.hpp"

namespace integrade::lrm {
namespace {

class Recorder final : public orb::SkeletonBase {
 public:
  Recorder() {
    register_op<protocol::TaskReport, cdr::Empty>(
        "report", [this](const protocol::TaskReport& r) -> Result<cdr::Empty> {
          reports.push_back(r);
          return cdr::Empty{};
        });
    register_op<protocol::NodeLoad, cdr::Empty>(
        "update_status",
        [](const protocol::NodeLoad&) -> Result<cdr::Empty> {
          return cdr::Empty{};
        });
    register_op<ckpt::Checkpoint, cdr::Empty>(
        "store_checkpoint",
        [](const ckpt::Checkpoint&) -> Result<cdr::Empty> {
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override { return "IDL:test/R:1.0"; }

  std::vector<protocol::TaskReport> reports;
};

class LrmMachineModel {
 public:
  explicit LrmMachineModel(std::uint64_t seed)
      : rng_(seed),
        network_(engine_, Rng(seed ^ 1)),
        transport_(network_),
        manager_orb_(1, transport_, &engine_),
        node_orb_(2, transport_, &engine_),
        machine_(NodeId(10), spec()) {
    network_.set_jitter(0.0);
    const auto lan = network_.add_segment(sim::SegmentSpec{});
    network_.attach(1, lan);
    network_.attach(2, lan);
    recorder_ = std::make_shared<Recorder>();
    recorder_ref_ = manager_orb_.activate(recorder_);

    ncc::SharingPolicy policy;
    policy.idle_grace = 30 * kSecond;
    policy.cpu_export_cap = 0.9;
    policy.ram_export_cap = 0.5;
    LrmOptions options;
    options.run_lupa = false;
    lrm_ = std::make_unique<Lrm>(engine_, node_orb_, machine_,
                                 ncc::Ncc(policy), Rng(seed ^ 2), options);
    lrm_->start(recorder_ref_, orb::ObjectRef{}, recorder_ref_, &network_);
    engine_.run_until(kMinute);  // past the grace period
  }

  static node::MachineSpec spec() {
    node::MachineSpec s;
    s.cpu_mips = 1000.0;
    s.ram = 256 * kMiB;
    return s;
  }

  void random_step() {
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1: {  // reserve (various sizes)
        protocol::ReservationRequest req;
        req.id = ReservationId(next_id_++);
        req.task = TaskId(next_id_++);
        req.cpu_fraction = rng_.uniform(0.1, 1.0);
        req.ram = rng_.uniform_int(1, 96) * kMiB;
        req.hold = 30 * kSecond;
        const auto reply = lrm_->handle_reserve(req);
        if (reply.granted) held_.push_back(req);
        break;
      }
      case 2:
      case 3:
      case 4: {  // execute the oldest held reservation
        if (held_.empty()) break;
        const auto reservation = held_.front();
        held_.erase(held_.begin());
        protocol::ExecuteRequest req;
        req.reservation = reservation.id;
        req.task.id = reservation.task;
        req.task.app = AppId(1);
        req.task.work = rng_.uniform(5'000.0, 120'000.0);
        req.task.ram_needed = reservation.ram;
        req.report_to = recorder_ref_;
        const auto reply = lrm_->handle_execute(req);
        if (reply.accepted) submitted_[req.task.id] = req.task.work;
        break;
      }
      case 5: {  // cancel a random known task (may already be gone)
        if (submitted_.empty()) break;
        auto it = submitted_.begin();
        std::advance(it, rng_.uniform_int(
                             0, static_cast<std::int64_t>(submitted_.size()) - 1));
        lrm_->handle_cancel(it->first);
        cancelled_.insert(it->first);
        break;
      }
      case 6: {  // owner returns (eviction storm)
        node::OwnerLoad busy;
        busy.present = true;
        busy.cpu_fraction = rng_.uniform(0.3, 1.0);
        machine_.set_owner_load(busy);
        break;
      }
      case 7: {  // owner leaves again
        machine_.set_owner_load(node::OwnerLoad{});
        break;
      }
      case 8: {  // power blip
        machine_.set_up(false);
        engine_.run_until(engine_.now() + rng_.uniform_int(1, 20) * kSecond);
        machine_.set_up(true);
        break;
      }
      default:  // let time pass
        engine_.run_until(engine_.now() + rng_.uniform_int(1, 90) * kSecond);
        break;
    }
    engine_.run_until(engine_.now() + kSecond);
    check_invariants();
  }

  void check_invariants() {
    const auto status = lrm_->current_status();
    // I1: the grid never eats into the owner's demand and never exceeds cap.
    EXPECT_LE(status.grid_cpu,
              std::min(0.9, 1.0 - status.owner_cpu) + 1e-6);
    EXPECT_GE(status.grid_cpu, -1e-9);
    // I5: free exportable RAM never negative.
    EXPECT_GE(status.free_ram, 0);

    // I2: at most one terminal report per task.
    std::map<TaskId, int> per_task;
    for (const auto& report : recorder_->reports) ++per_task[report.task];
    for (const auto& [task, count] : per_task) {
      EXPECT_EQ(count, 1) << "task " << to_string(task)
                          << " reported " << count << " times";
    }
  }

  void finish() {
    // Quiesce: owner leaves, run long enough for everything to complete.
    machine_.set_owner_load(node::OwnerLoad{});
    engine_.run_until(engine_.now() + 2 * kHour);

    // I3: completed tasks did exactly their work.
    double reported_work = 0;
    for (const auto& report : recorder_->reports) {
      reported_work += report.work_done;
      if (report.outcome == protocol::TaskOutcome::kCompleted) {
        auto it = submitted_.find(report.task);
        ASSERT_NE(it, submitted_.end());
        EXPECT_NEAR(report.work_done, it->second, 1.0);
      }
    }
    // Every accepted, never-cancelled task reached a terminal report after
    // quiescing (cancelled tasks report nothing, by design).
    std::map<TaskId, int> per_task;
    for (const auto& report : recorder_->reports) ++per_task[report.task];
    for (const auto& [task, work] : submitted_) {
      if (cancelled_.contains(task)) continue;
      EXPECT_TRUE(per_task.contains(task))
          << "task " << to_string(task) << " never reported";
    }

    // I4: work conservation. The node executed at least everything that
    // terminal reports account for (cancelled tasks' partial progress is in
    // total_work_done but unreported), and nothing beyond physical limits.
    EXPECT_GE(lrm_->total_work_done() + 1.0, reported_work);
    const double max_possible = 1000.0 * to_seconds(engine_.now());
    EXPECT_LE(lrm_->total_work_done(), max_possible + 1.0);
  }

  Rng rng_;
  sim::Engine engine_;
  sim::Network network_;
  orb::SimNetworkTransport transport_;
  orb::Orb manager_orb_;
  orb::Orb node_orb_;
  node::Machine machine_;
  std::shared_ptr<Recorder> recorder_;
  orb::ObjectRef recorder_ref_;
  std::unique_ptr<Lrm> lrm_;
  std::uint64_t next_id_ = 1;
  std::vector<protocol::ReservationRequest> held_;
  std::map<TaskId, double> submitted_;
  std::set<TaskId> cancelled_;
};

class LrmProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, LrmProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

TEST_P(LrmProperty, RandomOperationSequencesKeepInvariants) {
  LrmMachineModel model(GetParam());
  for (int step = 0; step < 250; ++step) {
    model.random_step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  model.finish();
}

}  // namespace
}  // namespace integrade::lrm
