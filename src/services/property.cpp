#include "services/property.hpp"

#include <sstream>

namespace integrade::services {

const cdr::Value& PropertySet::get(const std::string& name) const {
  static const cdr::Value kNull;
  auto it = props_.find(name);
  return it == props_.end() ? kNull : it->second;
}

std::optional<std::int64_t> PropertySet::get_int(const std::string& name) const {
  const auto& v = get(name);
  if (v.is_int()) return v.as_int();
  return std::nullopt;
}

std::optional<double> PropertySet::get_real(const std::string& name) const {
  const auto& v = get(name);
  if (v.is_numeric()) return v.to_real();
  return std::nullopt;
}

std::optional<std::string> PropertySet::get_string(const std::string& name) const {
  const auto& v = get(name);
  if (v.is_string()) return v.as_string();
  return std::nullopt;
}

std::optional<bool> PropertySet::get_bool(const std::string& name) const {
  const auto& v = get(name);
  if (v.is_bool()) return v.as_bool();
  return std::nullopt;
}

std::string PropertySet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : props_) {
    if (!first) os << ", ";
    first = false;
    os << k << " = " << v.to_string();
  }
  os << '}';
  return os.str();
}

}  // namespace integrade::services

namespace integrade::cdr {

void Codec<services::PropertySet>::encode(Writer& w,
                                          const services::PropertySet& ps) {
  w.write_u32(static_cast<std::uint32_t>(ps.size()));
  for (const auto& [name, value] : ps.entries()) {
    w.write_string(name);
    Codec<Value>::encode(w, value);
  }
}

services::PropertySet Codec<services::PropertySet>::decode(Reader& r) {
  services::PropertySet ps;
  const std::uint32_t n = r.read_u32();
  std::string previous;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.read_string();
    // Entries encode in map order; an unsorted or repeated name would
    // re-encode to different bytes.
    if (i > 0 && !(previous < name)) r.fail();
    ps.set(name, Codec<Value>::decode(r));
    previous = std::move(name);
  }
  return ps;
}

}  // namespace integrade::cdr
