#include "protocol/messages.hpp"

#include <cmath>

namespace integrade::protocol {

const char* task_refusal(const TaskDescriptor& task) {
  if (!std::isfinite(task.work) || task.work < 0) {
    return "task work is negative or not finite";
  }
  if (task.checkpoint_period > 0 && task.checkpoint_period < kMinCheckpointPeriod) {
    return "task checkpoint period is below 1 s";
  }
  return nullptr;
}

NodeLoad load_of(const NodeStatus& s) {
  NodeLoad load;
  fill_load(s, load);
  return load;
}

void fill_load(const NodeStatus& s, NodeLoad& load) {
  load.node = s.node;
  load.lrm = s.lrm;
  load.owner_cpu = s.owner_cpu;
  load.grid_cpu = s.grid_cpu;
  load.exportable_cpu = s.exportable_cpu;
  load.free_ram = s.free_ram;
  load.owner_present = s.owner_present;
  load.shareable = s.shareable;
  load.running_tasks = s.running_tasks;
  load.timestamp = s.timestamp;
}

void apply_load(const NodeLoad& load, NodeStatus& s) {
  s.lrm = load.lrm;
  s.owner_cpu = load.owner_cpu;
  s.grid_cpu = load.grid_cpu;
  s.exportable_cpu = load.exportable_cpu;
  s.free_ram = load.free_ram;
  s.owner_present = load.owner_present;
  s.shareable = load.shareable;
  s.running_tasks = load.running_tasks;
  s.timestamp = load.timestamp;
}

const char* app_kind_name(AppKind k) {
  switch (k) {
    case AppKind::kSequential: return "sequential";
    case AppKind::kParametric: return "parametric";
    case AppKind::kBsp: return "bsp";
  }
  return "?";
}

const char* app_event_kind_name(AppEventKind k) {
  switch (k) {
    case AppEventKind::kTaskScheduled: return "task_scheduled";
    case AppEventKind::kTaskCompleted: return "task_completed";
    case AppEventKind::kTaskEvicted: return "task_evicted";
    case AppEventKind::kTaskRescheduled: return "task_rescheduled";
    case AppEventKind::kAppCompleted: return "app_completed";
    case AppEventKind::kAppFailed: return "app_failed";
  }
  return "?";
}

const char* task_outcome_name(TaskOutcome o) {
  switch (o) {
    case TaskOutcome::kCompleted: return "completed";
    case TaskOutcome::kEvicted: return "evicted";
    case TaskOutcome::kNodeFailed: return "node_failed";
    case TaskOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

}  // namespace integrade::protocol
