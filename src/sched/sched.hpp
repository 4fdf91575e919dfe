// Scheduling economy: tenants, quotas, fair-share, deadline bids.
//
// InteGrade's GRM originally ran a plain FIFO `std::deque<TaskId>` — one
// greedy tenant submitting a large batch starves every other user of the
// grid indefinitely. This module supplies the economy layer the ROADMAP
// names, in the spirit of Gridbus-style economic brokering but enforced at
// InteGrade's existing GRM/ASCT/NCC split rather than a separate broker:
//
//  * `TenantRegistry` — named tenants with weights and quotas (max tasks
//    running / queued). An unknown tenant gets weight 1 and no quotas, so
//    the economy works without pre-registration.
//  * `FairQueue` — a weighted stride scheduler over per-tenant sub-queues.
//    Each tenant carries a pass value advanced by stride = kStrideScale /
//    weight per unit of dispatched work; the tenant with the lowest pass
//    dispatches next, so long-run CPU share converges to the weight ratio.
//    Within a tenant, earliest-deadline-first (bids), then FIFO.
//  * Admission control — per-tenant queue-depth quotas applied at submit
//    time, refusing work the grid cannot credibly serve.
//
// Determinism: every container is ordered (std::map keyed by tenant name or
// task id), ties break on names then sequence numbers, and nothing here
// reads a clock or draws randomness. With the economy off the GRM queues
// every task under one anonymous tenant with no deadline, so dispatch is the
// arrival (FIFO) order. Membership is deduplicated: a requeue racing a
// duplicate eviction report keeps exactly one entry.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace integrade::sched {

/// Pass/stride fixed-point scale. A weight-1.0 tenant strides by this much
/// per unit of work; weight 4.0 strides a quarter as fast and therefore
/// dispatches four times as often under contention.
inline constexpr std::uint64_t kStrideScale = 1ULL << 20;

/// Work normalisation: one stride "unit" per this many millions of
/// instructions, so big tasks charge their tenant proportionally more.
inline constexpr double kWorkUnitMInstr = 1000.0;

struct TenantSpec {
  std::string name;
  double weight = 1.0;   // relative fair share (> 0)
  int max_running = 0;   // concurrent placed tasks; 0 = unlimited
  int max_queued = 0;    // queued (pending) tasks; 0 = unlimited
};

struct SchedOptions {
  /// Read by the GRM at intake only. On: tasks take their app's tenant,
  /// deadline and bid, and the admission quotas apply. Off: every task
  /// queues under one anonymous tenant with no deadline (FIFO dispatch).
  bool enabled = false;
  /// Tenants not listed get weight 1 and no quotas.
  std::vector<TenantSpec> tenants;
  /// Preempt an over-share tenant's running task (checkpoint-migrate, not
  /// kill) when an under-share tenant's task finds no free candidates.
  bool preemption = false;
  int max_preemptions_per_wave = 1;
};

/// Tasks each tenant holds, by tenant name. The GRM counts them from its
/// task map where it needs them; nothing here tracks them.
using TenantCounts = std::map<std::string, int>;

/// Resolves tenant names to specs and holds the one entitlement formula —
/// the inputs to quota checks and fair-share math.
class TenantRegistry {
 public:
  void configure(const SchedOptions& options);

  /// The tenant's spec; an unlisted tenant shares one default spec (weight
  /// 1, no quotas, empty name).
  [[nodiscard]] const TenantSpec& spec(const std::string& tenant) const;
  [[nodiscard]] double weight(const std::string& tenant) const;

  /// Weight-proportional entitlement of `tenant` out of `slots` total
  /// slots, counting only tenants with a positive entry in `counts` plus
  /// `tenant` itself. `also_active` names one extra tenant to count as
  /// active even when it holds nothing — the preemption path passes the
  /// requester here, since a tenant with queued demand and zero running
  /// tasks must still dilute the incumbents' shares (otherwise a
  /// monopolist is always exactly at-entitlement and no preemption can
  /// ever fire). Weights sum in a fixed order: `tenant`, then
  /// `also_active`, then the others by name.
  [[nodiscard]] double entitled_slots(const std::string& tenant, int slots,
                                      const TenantCounts& counts,
                                      const std::string& also_active = "") const;

 private:
  std::map<std::string, TenantSpec> specs_;
};

/// One queued task's scheduling metadata in a queue image.
struct QueuedEntry {
  std::string tenant;
  SimTime deadline = 0;  // absolute; 0 = none
};
constexpr auto wire_fields(const QueuedEntry*) {
  using S = QueuedEntry;
  return cdr::fields(&S::tenant, &S::deadline);
}

/// One tenant's stride pass in a queue image.
struct TenantPass {
  std::string tenant;
  std::uint64_t pass = 0;
};
constexpr auto wire_fields(const TenantPass*) {
  using S = TenantPass;
  return cdr::fields(&S::tenant, &S::pass);
}

/// A FairQueue as the GRM's snapshot section carries it.
struct QueueImage {
  std::vector<TaskId> ids;            // FIFO (arrival) order
  std::vector<QueuedEntry> entries;   // one per id, same order
  std::vector<TenantPass> passes;     // every tenant, name-ascending
};
constexpr auto wire_fields(const QueueImage*) {
  using S = QueueImage;
  return cdr::fields(&S::ids, &S::entries, &S::passes);
}

/// The GRM's ready queue. Membership is deduplicated (push of a task already
/// queued is a no-op returning false); dispatch order is weighted stride
/// across tenants with EDF inside each tenant.
class FairQueue {
 public:
  void configure(const SchedOptions& options);

  /// Enqueue. `deadline` is an absolute SimTime (0 = none). Returns false —
  /// and changes nothing — if the task is already queued.
  bool push(TaskId task, const std::string& tenant, SimTime deadline);
  /// Remove a task wherever it sits in the queue (cancel path).
  bool erase(TaskId task);
  [[nodiscard]] bool contains(TaskId task) const;
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] std::size_t tenant_size(const std::string& tenant) const;

  /// Dequeue the next task per policy. `blocked(tenant)` lets the caller
  /// veto tenants at their running quota; a blocked tenant's tasks are
  /// skipped this pass. Returns nullopt when nothing dispatchable remains.
  template <class BlockedFn>
  std::optional<TaskId> pop(BlockedFn&& blocked);
  std::optional<TaskId> pop() {
    return pop([](const std::string&) { return false; });
  }

  /// Charge `tenant` for dispatched work: pass += stride * work units.
  void account_dispatch(const std::string& tenant, MInstr work);

  /// Tenant of a queued task ("" when unknown/unqueued).
  [[nodiscard]] std::string tenant_of(TaskId task) const;

  /// Head (EDF-first) queued task of every tenant with queued entries, in
  /// tenant-name order. The preemption sweep walks these to find tenants
  /// whose queued demand entitles them to vacate an over-share incumbent.
  [[nodiscard]] std::vector<std::pair<std::string, TaskId>> queued_heads() const;

  /// Queued task ids in FIFO (arrival) order.
  [[nodiscard]] std::vector<TaskId> fifo_order() const;

  /// Stride passes per tenant (exposed for tests and snapshot).
  [[nodiscard]] std::uint64_t pass_of(const std::string& tenant) const;

  /// Snapshot image: queued ids in FIFO order, their tenant and deadline,
  /// and every tenant's pass so long-run shares survive a failover.
  [[nodiscard]] QueueImage save() const;
  /// Replace the queue from an image save() could have written: one entry
  /// per id, no id twice, passes name-ascending and covering every queued
  /// tenant. On error the queue is untouched.
  Status load(const QueueImage& image);

 private:
  struct Entry {
    TaskId task;
    SimTime deadline = 0;   // absolute; 0 = none
    std::uint64_t seq = 0;  // global arrival order
  };
  struct Tenant {
    std::uint64_t pass = 0;
    std::uint64_t stride = kStrideScale;
    std::deque<Entry> entries;  // EDF order (deadline, then seq)
  };

  /// Every queued entry, in arrival (seq) order.
  [[nodiscard]] std::vector<Entry> arrival_order() const;
  [[nodiscard]] std::uint64_t stride_for(const std::string& tenant) const;
  void insert_entry(Tenant& t, const Entry& entry);
  [[nodiscard]] std::uint64_t min_active_pass() const;

  SchedOptions options_;
  std::map<std::string, Tenant> tenants_;
  std::map<TaskId, std::string> members_;
  std::uint64_t next_seq_ = 0;
};

template <class BlockedFn>
std::optional<TaskId> FairQueue::pop(BlockedFn&& blocked) {
  const std::map<std::string, Tenant>::iterator end = tenants_.end();
  auto best = end;
  for (auto it = tenants_.begin(); it != end; ++it) {
    if (it->second.entries.empty()) continue;
    if (blocked(it->first)) continue;
    // Lowest pass wins; std::map iteration order breaks ties by name.
    if (best == end || it->second.pass < best->second.pass) best = it;
  }
  if (best == end) return std::nullopt;
  const Entry entry = best->second.entries.front();
  best->second.entries.pop_front();
  members_.erase(entry.task);
  return entry.task;
}

}  // namespace integrade::sched
