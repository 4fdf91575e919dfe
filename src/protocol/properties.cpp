#include "protocol/properties.hpp"

namespace integrade::protocol {

namespace {

std::int64_t to_mb(Bytes b) { return b / kMiB; }

}  // namespace

services::PropertySet to_properties(const NodeStatus& s) {
  services::PropertySet props;
  update_properties(s, props);
  return props;
}

void update_properties(const NodeStatus& s, services::PropertySet& props) {
  props.set(kPropNodeId, cdr::Value(static_cast<std::int64_t>(s.node.value)));
  props.set(kPropHostname, cdr::Value(s.hostname));
  props.set(kPropCpuMips, cdr::Value(s.cpu_mips));
  props.set(kPropRamTotal, cdr::Value(to_mb(s.ram_total)));
  props.set(kPropDiskTotal, cdr::Value(to_mb(s.disk_total)));
  props.set(kPropOs, cdr::Value(s.os));
  props.set(kPropArch, cdr::Value(s.arch));
  cdr::ValueList platforms;
  platforms.reserve(s.platforms.size());
  for (const auto& p : s.platforms) platforms.emplace_back(p);
  props.set(kPropPlatforms, cdr::Value(std::move(platforms)));
  props.set(kPropSegment, cdr::Value(static_cast<std::int64_t>(s.segment)));
  props.set(kPropDedicated, cdr::Value(s.dedicated));
  update_load_properties(s, props);
}

void update_load_properties(const NodeStatus& s, services::PropertySet& props) {
  props.set(kPropOwnerCpu, cdr::Value(s.owner_cpu));
  props.set(kPropGridCpu, cdr::Value(s.grid_cpu));
  props.set(kPropExportableCpu, cdr::Value(s.exportable_cpu));
  props.set(kPropExportableMips, cdr::Value(s.exportable_cpu * s.cpu_mips));
  props.set(kPropFreeRam, cdr::Value(to_mb(s.free_ram)));
  props.set(kPropOwnerPresent, cdr::Value(s.owner_present));
  props.set(kPropShareable, cdr::Value(s.shareable));
  props.set(kPropRunningTasks,
            cdr::Value(static_cast<std::int64_t>(s.running_tasks)));
  props.set(kPropTimestamp, cdr::Value(static_cast<std::int64_t>(s.timestamp)));
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
