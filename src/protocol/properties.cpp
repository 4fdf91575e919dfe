#include "protocol/properties.hpp"

#include "services/trader.hpp"

namespace integrade::protocol {

namespace {

std::int64_t to_mb(Bytes b) { return b / kMiB; }

// The node schema's one mapping from status fields to slots: `put(slot,
// value)` once per field, the nine dynamic ones in put_load.
template <class Put>
void put_load(const NodeStatus& s, Put&& put) {
  put(kSlotOwnerCpu, s.owner_cpu);
  put(kSlotGridCpu, s.grid_cpu);
  put(kSlotExportableCpu, s.exportable_cpu);
  put(kSlotExportableMips, s.exportable_cpu * s.cpu_mips);
  put(kSlotFreeRam, to_mb(s.free_ram));
  put(kSlotOwnerPresent, s.owner_present);
  put(kSlotShareable, s.shareable);
  put(kSlotRunningTasks, static_cast<std::int64_t>(s.running_tasks));
  put(kSlotTimestamp, static_cast<std::int64_t>(s.timestamp));
}

template <class Put>
void put_status(const NodeStatus& s, Put&& put) {
  put(kSlotNodeId, static_cast<std::int64_t>(s.node.value));
  put(kSlotHostname, s.hostname);
  put(kSlotCpuMips, s.cpu_mips);
  put(kSlotRamTotal, to_mb(s.ram_total));
  put(kSlotDiskTotal, to_mb(s.disk_total));
  put(kSlotOs, s.os);
  put(kSlotArch, s.arch);
  cdr::ValueList platforms;
  platforms.reserve(s.platforms.size());
  for (const auto& p : s.platforms) platforms.emplace_back(p);
  put(kSlotPlatforms, std::move(platforms));
  put(kSlotSegment, static_cast<std::int64_t>(s.segment));
  put(kSlotDedicated, s.dedicated);
  put_load(s, put);
}

}  // namespace

services::PropertySet to_properties(const NodeStatus& s) {
  services::PropertySet props;
  update_properties(s, props);
  return props;
}

void update_properties(const NodeStatus& s, services::PropertySet& props) {
  put_status(s, [&props](NodeSlot slot, auto&& value) {
    props.set(kNodeSchema[slot],
              cdr::Value(std::forward<decltype(value)>(value)));
  });
}

void write_status_slots(const NodeStatus& s, services::SlotWriter& slots) {
  put_status(s, [&slots](NodeSlot slot, auto&& value) {
    slots.set(slot, std::forward<decltype(value)>(value));
  });
}

void write_load_slots(const NodeStatus& s, services::SlotWriter& slots) {
  put_load(s, [&slots](NodeSlot slot, auto&& value) {
    slots.set(slot, std::forward<decltype(value)>(value));
  });
}

NodeStatus from_properties(const services::PropertySet& props) {
  NodeStatus s;
  s.node = NodeId(static_cast<std::uint64_t>(props.get_int(kPropNodeId).value_or(-1)));
  s.hostname = props.get_string(kPropHostname).value_or("");
  s.cpu_mips = props.get_real(kPropCpuMips).value_or(0.0);
  s.ram_total = props.get_int(kPropRamTotal).value_or(0) * kMiB;
  s.disk_total = props.get_int(kPropDiskTotal).value_or(0) * kMiB;
  s.os = props.get_string(kPropOs).value_or("");
  s.arch = props.get_string(kPropArch).value_or("");
  const auto& platforms = props.get(kPropPlatforms);
  if (platforms.is_list()) {
    for (const auto& v : platforms.as_list()) {
      if (v.is_string()) s.platforms.push_back(v.as_string());
    }
  }
  s.segment = static_cast<std::int32_t>(props.get_int(kPropSegment).value_or(0));
  s.dedicated = props.get_bool(kPropDedicated).value_or(false);
  s.owner_cpu = props.get_real(kPropOwnerCpu).value_or(0.0);
  s.grid_cpu = props.get_real(kPropGridCpu).value_or(0.0);
  s.exportable_cpu = props.get_real(kPropExportableCpu).value_or(0.0);
  s.free_ram = props.get_int(kPropFreeRam).value_or(0) * kMiB;
  s.owner_present = props.get_bool(kPropOwnerPresent).value_or(false);
  s.shareable = props.get_bool(kPropShareable).value_or(false);
  s.running_tasks =
      static_cast<std::int32_t>(props.get_int(kPropRunningTasks).value_or(0));
  s.timestamp = props.get_int(kPropTimestamp).value_or(0);
  return s;
}

}  // namespace integrade::protocol
