// NodeStatus <-> Trader property set conversion.
//
// The GRM stores node status in its Trading service (paper §5), so a node's
// registration becomes a property set, each periodic NodeLoad rewrites its
// dynamic properties, and a scheduling query becomes a constraint over these
// property names. The names below are the public schema ASCT
// constraint expressions are written against; README documents them.
// kNodeSchema lists them in slot order: a Trader on which the type is
// declared with it (the GRM's) keeps a node offer's values in these slots,
// and the GRM writes them by slot.
#pragma once

#include <array>

#include "protocol/messages.hpp"
#include "services/property.hpp"

namespace integrade::services {
class SlotWriter;
}  // namespace integrade::services

namespace integrade::protocol {

/// Service type under which node offers are exported.
inline constexpr const char* kNodeServiceType = "integrade::Node";

// Property-name schema.
inline constexpr const char* kPropNodeId = "node_id";
inline constexpr const char* kPropHostname = "hostname";
inline constexpr const char* kPropCpuMips = "cpu_mips";
inline constexpr const char* kPropRamTotal = "ram_total_mb";
inline constexpr const char* kPropDiskTotal = "disk_total_mb";
inline constexpr const char* kPropOs = "os";
inline constexpr const char* kPropArch = "arch";
inline constexpr const char* kPropPlatforms = "platforms";
inline constexpr const char* kPropSegment = "segment";
inline constexpr const char* kPropDedicated = "dedicated";
inline constexpr const char* kPropOwnerCpu = "owner_cpu";
inline constexpr const char* kPropGridCpu = "grid_cpu";
inline constexpr const char* kPropExportableCpu = "exportable_cpu";
inline constexpr const char* kPropExportableMips = "exportable_mips";
inline constexpr const char* kPropFreeRam = "free_ram_mb";
inline constexpr const char* kPropOwnerPresent = "owner_present";
inline constexpr const char* kPropShareable = "shareable";
inline constexpr const char* kPropRunningTasks = "running_tasks";
inline constexpr const char* kPropTimestamp = "timestamp_us";

/// The node schema's slots: kNodeSchema[slot] is the slot's name. The nine
/// dynamic properties (kSlotOwnerCpu on) come last.
enum NodeSlot : std::size_t {
  kSlotNodeId,
  kSlotHostname,
  kSlotCpuMips,
  kSlotRamTotal,
  kSlotDiskTotal,
  kSlotOs,
  kSlotArch,
  kSlotPlatforms,
  kSlotSegment,
  kSlotDedicated,
  kSlotOwnerCpu,
  kSlotGridCpu,
  kSlotExportableCpu,
  kSlotExportableMips,
  kSlotFreeRam,
  kSlotOwnerPresent,
  kSlotShareable,
  kSlotRunningTasks,
  kSlotTimestamp,
  kNodeSlots,
};

inline constexpr std::array<const char*, kNodeSlots> kNodeSchema = {
    kPropNodeId,        kPropHostname,     kPropCpuMips,
    kPropRamTotal,      kPropDiskTotal,    kPropOs,
    kPropArch,          kPropPlatforms,    kPropSegment,
    kPropDedicated,     kPropOwnerCpu,     kPropGridCpu,
    kPropExportableCpu, kPropExportableMips, kPropFreeRam,
    kPropOwnerPresent,  kPropShareable,    kPropRunningTasks,
    kPropTimestamp,
};

services::PropertySet to_properties(const NodeStatus& status);

/// Overwrite `props` in place with `status`'s fields, by name. Equivalent
/// to `props = to_properties(status)` but reuses the set's existing map
/// nodes and key strings.
void update_properties(const NodeStatus& status, services::PropertySet& props);

/// Overwrite every slot of a node offer with `status`'s fields: the full
/// refresh, equal to update_properties by slot.
void write_status_slots(const NodeStatus& status, services::SlotWriter& slots);

/// Overwrite only the nine dynamic slots (owner_cpu through timestamp_us,
/// with exportable_mips from `status.cpu_mips`): the per-heartbeat refresh
/// of an existing offer, and the GRM's own hint corrections between
/// heartbeats. The static properties stay as registration wrote them.
void write_load_slots(const NodeStatus& status, services::SlotWriter& slots);

/// Reconstruct the scheduling-relevant fields from a property set. Fields
/// not represented in the schema (e.g. the LRM object ref, which the Trader
/// keeps as the offer's provider) are left defaulted.
NodeStatus from_properties(const services::PropertySet& props);

}  // namespace integrade::protocol
