#include "protocol/messages.hpp"

namespace integrade::protocol {

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
