// NodeStatus <-> Trader property set conversion.
//
// The GRM stores node status in its Trading service (paper §5), so a node's
// registration becomes a property set, each periodic NodeLoad rewrites its
// dynamic properties, and a scheduling query becomes a constraint over these
// property names. The names below are the public schema ASCT
// constraint expressions are written against; README documents them.
#pragma once

#include "protocol/messages.hpp"
#include "services/property.hpp"

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

services::PropertySet to_properties(const NodeStatus& status);

/// Overwrite `props` in place with `status`'s fields. Equivalent to
/// `props = to_properties(status)` but reuses the set's existing map nodes
/// and key strings.
void update_properties(const NodeStatus& status, services::PropertySet& props);

/// Overwrite only the nine dynamic properties (owner_cpu through
/// timestamp_us, with exportable_mips from `status.cpu_mips`) in place: the
/// per-heartbeat refresh of an existing offer, and the GRM's own hint
/// corrections between heartbeats. The static properties stay as
/// registration wrote them.
void update_load_properties(const NodeStatus& status,
                            services::PropertySet& props);

/// Reconstruct the scheduling-relevant fields from a property set. Fields
/// not represented in the schema (e.g. the LRM object ref, which the Trader
/// keeps as the offer's provider) are left defaulted.
NodeStatus from_properties(const services::PropertySet& props);

}  // namespace integrade::protocol
