#include "baselines/boinc.hpp"

namespace integrade::baselines {

using protocol::TaskOutcome;

namespace {

constexpr SimDuration kCallTimeout = 5 * kSecond;

class BoincServant final : public orb::SkeletonBase {
 public:
  explicit BoincServant(BoincMaster& master) {
    register_op<cdr::Empty, protocol::WorkReply>(
        "request_work",
        [&master](const cdr::Empty&) -> Result<protocol::WorkReply> {
          return master.handle_request_work();
        });
    register_op<protocol::TaskReport, cdr::Empty>(
        "report",
        [&master](const protocol::TaskReport& r) -> Result<cdr::Empty> {
          master.handle_report(r);
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:baselines/BoincMaster:1.0";
  }
};

}  // namespace

BoincMaster::BoincMaster(sim::Engine& engine, orb::Orb& orb)
    : engine_(engine), orb_(orb) {}

BoincMaster::~BoincMaster() { stop(); }

void BoincMaster::start() {
  started_ = true;
  self_ref_ = orb_.activate(std::make_shared<BoincServant>(*this));
}

void BoincMaster::stop() {
  if (!started_) return;
  started_ = false;
  orb_.deactivate(self_ref_.key);
}

bool BoincMaster::enqueue(const protocol::ApplicationSpec& spec) {
  if (spec.kind == protocol::AppKind::kBsp) {
    metrics_.counter("bsp_rejected").add();
    return false;
  }
  for (const auto& task : spec.tasks) queue_.push_back(task);
  outstanding_[spec.id] += static_cast<int>(spec.tasks.size());
  return true;
}

protocol::WorkReply BoincMaster::handle_request_work() {
  metrics_.counter("work_requests").add();
  protocol::WorkReply reply;
  if (queue_.empty()) return reply;
  reply.has_work = true;
  reply.task = queue_.front();
  queue_.pop_front();
  in_flight_[reply.task.id] = reply.task;
  metrics_.counter("units_dispatched").add();
  return reply;
}

void BoincMaster::handle_report(const protocol::TaskReport& report) {
  auto it = in_flight_.find(report.task);
  if (it == in_flight_.end()) return;

  if (report.outcome == TaskOutcome::kCompleted) {
    auto app_it = outstanding_.find(it->second.app);
    if (app_it != outstanding_.end()) --app_it->second;
    in_flight_.erase(it);
    ++completed_;
    metrics_.counter("units_completed").add();
    return;
  }
  // Eviction: back in the queue, from scratch (the unit changes machines;
  // any client-local checkpoint is lost).
  metrics_.counter("units_evicted").add();
  queue_.push_back(it->second);
  in_flight_.erase(it);
}

bool BoincMaster::app_done(AppId app) const {
  auto it = outstanding_.find(app);
  return it != outstanding_.end() && it->second == 0;
}

BoincWorker::BoincWorker(sim::Engine& engine, orb::Orb& orb, lrm::Lrm& lrm,
                         BoincOptions options)
    : engine_(engine), orb_(orb), lrm_(lrm), options_(options) {}

void BoincWorker::start(const orb::ObjectRef& master) {
  master_ = master;
  // Stagger the first poll so a lab of workers does not stampede.
  timer_.start(engine_, options_.poll_period, [this] { poll(); },
               options_.poll_period / 7 + 1);
}

void BoincWorker::stop() { timer_.stop(); }

void BoincWorker::poll() {
  if (fetching_ || lrm_.running_task_count() > 0) return;
  if (!lrm_.current_status().shareable) return;

  fetching_ = true;
  orb::call<cdr::Empty, protocol::WorkReply>(
      orb_, master_, "request_work", cdr::Empty{},
      [this](Result<protocol::WorkReply> reply) {
        fetching_ = false;
        if (!reply.is_ok() || !reply.value().has_work) return;
        // Run through the node's LRM in direct-execute mode, reporting
        // straight back to the master.
        protocol::ExecuteRequest execute;
        execute.reservation = ReservationId();  // direct
        execute.task = reply.value().task;
        execute.report_to = master_;
        const auto exec_reply = lrm_.handle_execute(execute);
        if (!exec_reply.accepted) {
          // Owner came back between poll and dispatch: hand the unit back.
          protocol::TaskReport report;
          report.task = execute.task.id;
          report.node = lrm_.node_id();
          report.outcome = TaskOutcome::kEvicted;
          report.detail = "worker no longer idle";
          orb::oneway(orb_, master_, "report", report);
        }
      },
      kCallTimeout);
}

}  // namespace integrade::baselines
