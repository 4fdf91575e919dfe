#include "sched/sched.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "snapshot/state_codecs.hpp"

namespace integrade::sched {

// ---------------------------------------------------------------------------
// TenantRegistry
// ---------------------------------------------------------------------------

void TenantRegistry::configure(const SchedOptions& options) {
  specs_.clear();
  for (const TenantSpec& spec : options.tenants) {
    specs_[spec.name] = spec;
  }
}

const TenantSpec& TenantRegistry::spec(const std::string& tenant) const {
  static const TenantSpec kUnlisted;
  auto it = specs_.find(tenant);
  return it != specs_.end() ? it->second : kUnlisted;
}

double TenantRegistry::weight(const std::string& tenant) const {
  const double w = spec(tenant).weight;
  return (std::isfinite(w) && w > 0.0) ? w : 1.0;
}

double TenantRegistry::entitled_slots(const std::string& tenant, int slots,
                                      const TenantCounts& counts,
                                      const std::string& also_active) const {
  auto holds = [&counts](const std::string& name) {
    const auto it = counts.find(name);
    return it != counts.end() && it->second > 0;
  };
  double total_weight = weight(tenant);
  if (!also_active.empty() && also_active != tenant && !holds(also_active)) {
    total_weight += weight(also_active);
  }
  for (const auto& [name, count] : counts) {
    if (count > 0 && name != tenant) total_weight += weight(name);
  }
  if (total_weight <= 0.0) return static_cast<double>(slots);
  return static_cast<double>(slots) * weight(tenant) / total_weight;
}

// ---------------------------------------------------------------------------
// FairQueue
// ---------------------------------------------------------------------------

void FairQueue::configure(const SchedOptions& options) {
  options_ = options;
  TenantRegistry registry;
  registry.configure(options);
  for (auto& [name, tenant] : tenants_) {
    tenant.stride = static_cast<std::uint64_t>(
        static_cast<double>(kStrideScale) / registry.weight(name));
    if (tenant.stride == 0) tenant.stride = 1;
  }
}

std::uint64_t FairQueue::stride_for(const std::string& tenant) const {
  TenantRegistry registry;
  registry.configure(options_);
  const auto stride = static_cast<std::uint64_t>(
      static_cast<double>(kStrideScale) / registry.weight(tenant));
  return stride == 0 ? 1 : stride;
}

std::uint64_t FairQueue::min_active_pass() const {
  std::uint64_t min_pass = 0;
  bool any = false;
  for (const auto& [name, tenant] : tenants_) {
    if (tenant.entries.empty()) continue;
    if (!any || tenant.pass < min_pass) {
      min_pass = tenant.pass;
      any = true;
    }
  }
  return any ? min_pass : 0;
}

void FairQueue::insert_entry(Tenant& t, const Entry& entry) {
  // EDF within the tenant: deadline 0 sorts as "never", ties FIFO by seq.
  auto key = [](const Entry& e) {
    return std::pair<SimTime, std::uint64_t>(
        e.deadline == 0 ? kTimeNever : e.deadline, e.seq);
  };
  auto it = std::upper_bound(
      t.entries.begin(), t.entries.end(), entry,
      [&key](const Entry& a, const Entry& b) { return key(a) < key(b); });
  t.entries.insert(it, entry);
}

bool FairQueue::push(TaskId task, const std::string& tenant, SimTime deadline) {
  if (members_.contains(task)) return false;  // exactly-once membership
  Entry entry;
  entry.task = task;
  entry.deadline = deadline;
  entry.seq = next_seq_++;
  auto [it, inserted] = tenants_.try_emplace(tenant);
  Tenant& t = it->second;
  if (inserted) t.stride = stride_for(tenant);
  if (t.entries.empty()) {
    // A tenant joining (or returning after idling) starts at the current
    // virtual time, not at zero — otherwise it would monopolise dispatch
    // until its stale pass caught up.
    t.pass = std::max(t.pass, min_active_pass());
  }
  insert_entry(t, entry);
  members_.emplace(task, tenant);
  return true;
}

bool FairQueue::erase(TaskId task) {
  auto member = members_.find(task);
  if (member == members_.end()) return false;
  auto it = tenants_.find(member->second);
  if (it != tenants_.end()) {
    auto& entries = it->second.entries;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [task](const Entry& e) { return e.task == task; }),
                  entries.end());
  }
  members_.erase(member);
  return true;
}

bool FairQueue::contains(TaskId task) const { return members_.contains(task); }

std::size_t FairQueue::tenant_size(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.entries.size();
}

void FairQueue::account_dispatch(const std::string& tenant, MInstr work) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  // A task's work comes from outside input, so saturate: the cast of a
  // double past 2^64 is undefined, and a wrapped pass would put the tenant
  // at the front of the queue.
  constexpr std::uint64_t kMaxPass = std::numeric_limits<std::uint64_t>::max();
  const double work_units = work > 0 ? work / kWorkUnitMInstr : 0.0;
  const std::uint64_t units =
      work_units < 0x1p64
          ? std::max<std::uint64_t>(1, static_cast<std::uint64_t>(work_units))
          : kMaxPass;
  auto& state = it->second;
  state.pass = units > (kMaxPass - state.pass) / state.stride
                   ? kMaxPass
                   : state.pass + state.stride * units;
}

std::string FairQueue::tenant_of(TaskId task) const {
  auto it = members_.find(task);
  return it == members_.end() ? std::string() : it->second;
}

std::vector<std::pair<std::string, TaskId>> FairQueue::queued_heads() const {
  std::vector<std::pair<std::string, TaskId>> heads;
  for (const auto& [name, tenant] : tenants_) {
    if (!tenant.entries.empty()) {
      heads.emplace_back(name, tenant.entries.front().task);
    }
  }
  return heads;
}

std::vector<FairQueue::Entry> FairQueue::arrival_order() const {
  std::vector<Entry> all;
  all.reserve(members_.size());
  for (const auto& [name, tenant] : tenants_) {
    all.insert(all.end(), tenant.entries.begin(), tenant.entries.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  return all;
}

std::vector<TaskId> FairQueue::fifo_order() const {
  std::vector<TaskId> out;
  out.reserve(members_.size());
  for (const Entry& e : arrival_order()) out.push_back(e.task);
  return out;
}

std::uint64_t FairQueue::pass_of(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.pass;
}

QueueImage FairQueue::save() const {
  QueueImage image;
  for (const Entry& e : arrival_order()) {
    image.ids.push_back(e.task);
    image.entries.push_back({tenant_of(e.task), e.deadline});
  }
  for (const auto& [name, tenant] : tenants_) {
    image.passes.push_back({name, tenant.pass});
  }
  return image;
}

Status FairQueue::load(const QueueImage& image) {
  const auto reject = [](const std::string& why) {
    return Status(ErrorCode::kInternal, "queue snapshot " + why);
  };
  if (image.entries.size() != image.ids.size()) {
    return reject("has " + std::to_string(image.entries.size()) +
                  " metadata entries for " + std::to_string(image.ids.size()) +
                  " queued tasks");
  }
  if (!snapshot::strictly_ascending(
          image.passes, [](const TenantPass& p) { return p.tenant; })) {
    return reject("passes not in strictly ascending tenant order");
  }
  FairQueue queue;
  queue.configure(options_);
  for (std::size_t i = 0; i < image.ids.size(); ++i) {
    const QueuedEntry& entry = image.entries[i];
    if (!queue.push(image.ids[i], entry.tenant, entry.deadline)) {
      return reject("queues task " + to_string(image.ids[i]) + " twice");
    }
  }
  for (const TenantPass& p : image.passes) {
    auto [it, inserted] = queue.tenants_.try_emplace(p.tenant);
    if (inserted) it->second.stride = queue.stride_for(p.tenant);
    it->second.pass = p.pass;
  }
  if (queue.tenants_.size() != image.passes.size()) {
    return reject("lacks the pass of a queued tenant");
  }
  *this = std::move(queue);
  return Status::ok();
}

}  // namespace integrade::sched
