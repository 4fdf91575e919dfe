#include "baselines/condor.hpp"

#include <algorithm>

#include "protocol/properties.hpp"

namespace integrade::baselines {

using protocol::TaskOutcome;

namespace {

/// Machines not heard from within this window drop out of the pool.
constexpr SimDuration kAdTtl = 150 * kSecond;
constexpr SimDuration kRetryBackoff = 20 * kSecond;
/// Rank expression over machine ads (Condor RANK); best first.
constexpr const char* kRank = "max exportable_mips";
constexpr SimDuration kCallTimeout = 5 * kSecond;
constexpr int kMaxTriesPerPass = 4;

class CondorServant final : public orb::SkeletonBase {
 public:
  explicit CondorServant(CondorScheduler& scheduler) {
    register_op<protocol::NodeStatus, cdr::Empty>(
        "update_status",
        [&scheduler](const protocol::NodeStatus& s) -> Result<cdr::Empty> {
          scheduler.handle_update_status(s);
          return cdr::Empty{};
        });
    register_op<protocol::ApplicationSpec, protocol::SubmitReply>(
        "submit", [&scheduler](const protocol::ApplicationSpec& spec)
                      -> Result<protocol::SubmitReply> {
          return scheduler.handle_submit(spec);
        });
    register_op<protocol::TaskReport, cdr::Empty>(
        "report",
        [&scheduler](const protocol::TaskReport& r) -> Result<cdr::Empty> {
          scheduler.handle_report(r);
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:baselines/Condor:1.0";
  }
};

}  // namespace

CondorScheduler::CondorScheduler(sim::Engine& engine, orb::Orb& orb, Rng rng)
    : engine_(engine), orb_(orb), rng_(rng) {}

CondorScheduler::~CondorScheduler() { stop(); }

void CondorScheduler::start() {
  started_ = true;
  self_ref_ = orb_.activate(std::make_shared<CondorServant>(*this));
}

void CondorScheduler::stop() {
  if (!started_) return;
  started_ = false;
  orb_.deactivate(self_ref_.key);
}

void CondorScheduler::handle_update_status(const protocol::NodeStatus& status) {
  Ad& ad = ads_[status.node];
  ad.status = status;
  ad.last_update = engine_.now();
  ad.claimed = status.running_tasks > 0;
  if (status.shareable) kick();
}

protocol::SubmitReply CondorScheduler::handle_submit(
    const protocol::ApplicationSpec& spec) {
  protocol::SubmitReply reply;
  reply.app = spec.id;
  if (spec.kind == protocol::AppKind::kBsp) {
    // Condor's parallel support requires partially reserved (dedicated)
    // nodes (paper §2 / [Wri01]); plain cycle-scavenging pools refuse.
    reply.accepted = false;
    reply.reason = "parallel (BSP) applications unsupported on scavenged nodes";
    metrics_.counter("bsp_rejected").add();
    return reply;
  }
  for (const auto& task : spec.tasks) {
    Job job;
    job.desc = task;
    // Condor checkpoints sequential jobs only when re-linked; here the app
    // signals that by setting checkpoint_period, which we keep as-is.
    job.app = spec.id;
    jobs_[task.id] = std::move(job);
    queue_.push_back(task.id);
  }
  app_outstanding_[spec.id] += static_cast<int>(spec.tasks.size());
  app_notify_[spec.id] = spec.notify;
  kick();
  reply.accepted = true;
  return reply;
}

void CondorScheduler::kick(SimDuration delay) {
  if (pass_scheduled_ || !started_) return;
  pass_scheduled_ = true;
  engine_.schedule_after(delay, [this] {
    pass_scheduled_ = false;
    pass();
  });
}

void CondorScheduler::pass() {
  // Drop stale ads.
  const SimTime cutoff = engine_.now() - kAdTtl;
  for (auto it = ads_.begin(); it != ads_.end();) {
    if (it->second.last_update < cutoff) {
      it = ads_.erase(it);
    } else {
      ++it;
    }
  }

  const std::size_t budget = queue_.size();
  std::deque<TaskId> deferred;
  SimTime next_eligible = kTimeNever;
  for (std::size_t i = 0; i < budget && !queue_.empty(); ++i) {
    const TaskId id = queue_.front();
    queue_.pop_front();
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.running || it->second.done) continue;
    if (it->second.eligible_at > engine_.now()) {
      deferred.push_back(id);
      next_eligible = std::min(next_eligible, it->second.eligible_at);
      continue;
    }
    try_run(it->second, kMaxTriesPerPass);
  }
  for (TaskId id : deferred) queue_.push_back(id);
  if (next_eligible != kTimeNever) {
    kick(std::max<SimDuration>(1, next_eligible - engine_.now()));
  }
}

void CondorScheduler::try_run(Job& job, int tries_left) {
  if (tries_left <= 0) {
    job.eligible_at = engine_.now() + kRetryBackoff;
    queue_.push_back(job.desc.id);
    kick(kRetryBackoff);
    return;
  }

  // Matchmake: best unclaimed ad by RANK that satisfies requirements.
  auto rank = services::Preference::parse(kRank);
  std::string req_expr = "shareable == true and exportable_cpu > 0";
  if (job.desc.ram_needed > 0) {
    req_expr += " and free_ram_mb >= " + std::to_string(job.desc.ram_needed / kMiB);
  }
  if (!job.desc.binary_platform.empty()) {
    req_expr += " and '" + job.desc.binary_platform + "' in platforms";
  }
  auto constraint = services::Constraint::parse(req_expr);
  if (!constraint.is_ok() || !rank.is_ok()) return;

  std::vector<const Ad*> matches;
  std::vector<services::PropertySet> props;
  for (const auto& [_, ad] : ads_) {
    if (ad.claimed) continue;
    auto p = protocol::to_properties(ad.status);
    if (constraint.value().matches(p)) {
      matches.push_back(&ad);
      props.push_back(std::move(p));
    }
  }
  if (matches.empty()) {
    metrics_.counter("no_match").add();
    job.eligible_at = engine_.now() + kRetryBackoff;
    queue_.push_back(job.desc.id);
    kick(kRetryBackoff);
    return;
  }
  std::vector<const services::PropertySet*> prop_ptrs;
  prop_ptrs.reserve(props.size());
  for (const auto& p : props) prop_ptrs.push_back(&p);
  const auto order = rank.value().rank(prop_ptrs, &rng_);
  const Ad* best = matches[order.front()];

  // Claim by executing directly — trusting the ad (no negotiation).
  ads_[best->status.node].claimed = true;
  protocol::ExecuteRequest execute;
  execute.reservation = ReservationId();  // invalid => direct execute
  execute.task = job.desc;
  execute.report_to = self_ref_;

  const TaskId id = job.desc.id;
  const NodeId node = best->status.node;
  metrics_.counter("claims_attempted").add();
  orb::call<protocol::ExecuteRequest, protocol::ExecuteReply>(
      orb_, best->status.lrm, "execute", execute,
      [this, id, node, tries_left](Result<protocol::ExecuteReply> reply) {
        auto it = jobs_.find(id);
        if (it == jobs_.end()) return;
        if (!reply.is_ok() || !reply.value().accepted) {
          // The ad was stale — the defining failure mode of hint-trusting
          // schedulers (E3's "failure-if-trusted" column).
          metrics_.counter("stale_claims").add();
          auto ad_it = ads_.find(node);
          if (ad_it != ads_.end()) ad_it->second.status.shareable = false;
          try_run(it->second, tries_left - 1);
          return;
        }
        it->second.running = true;
        metrics_.counter("jobs_started").add();
      },
      kCallTimeout);
}

void CondorScheduler::handle_report(const protocol::TaskReport& report) {
  auto it = jobs_.find(report.task);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  job.running = false;
  auto ad_it = ads_.find(report.node);
  if (ad_it != ads_.end()) ad_it->second.claimed = false;

  if (report.outcome == TaskOutcome::kCompleted) {
    job.done = true;
    ++completed_tasks_;
    metrics_.counter("jobs_completed").add();
    auto app_it = app_outstanding_.find(job.app);
    if (app_it != app_outstanding_.end() && --app_it->second == 0) {
      auto notify = app_notify_.find(job.app);
      if (notify != app_notify_.end() && notify->second.valid()) {
        protocol::AppEvent event;
        event.app = job.app;
        event.kind = protocol::AppEventKind::kAppCompleted;
        event.at = engine_.now();
        orb::oneway(orb_, notify->second, "app_event", event);
      }
    }
    return;
  }

  // Eviction: restart. Without the checkpoint library the job loses all
  // progress (Condor's default for non-relinked jobs).
  ++job.restarts;
  metrics_.counter("jobs_evicted").add();
  job.eligible_at = engine_.now() + 1 * kSecond;
  queue_.push_back(job.desc.id);
  kick(1 * kSecond);
}

bool CondorScheduler::app_done(AppId app) const {
  auto it = app_outstanding_.find(app);
  return it != app_outstanding_.end() && it->second == 0;
}

}  // namespace integrade::baselines
