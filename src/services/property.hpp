// Property sets: the currency of the Trading service.
//
// A service offer (here: a node advertising resources to the GRM) is a bag
// of named typed values — `cpu_mips = 1400`, `os = 'linux'`,
// `platforms = ['linux-x86', 'java']`. Constraint expressions evaluate
// against a PropertySet; preferences rank offers by an expression over it.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cdr/value.hpp"

namespace integrade::services {

class PropertySet {
 public:
  PropertySet() = default;
  PropertySet(std::initializer_list<std::pair<const std::string, cdr::Value>> init)
      : props_(init) {}

  void set(const std::string& name, cdr::Value value) {
    props_[name] = std::move(value);
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return props_.contains(name);
  }

  /// Null value when absent (constraint evaluation treats null as undefined).
  [[nodiscard]] const cdr::Value& get(const std::string& name) const;

  [[nodiscard]] std::optional<std::int64_t> get_int(const std::string& name) const;
  [[nodiscard]] std::optional<double> get_real(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get_string(const std::string& name) const;
  [[nodiscard]] std::optional<bool> get_bool(const std::string& name) const;

  void erase(const std::string& name) { props_.erase(name); }
  [[nodiscard]] std::size_t size() const { return props_.size(); }
  [[nodiscard]] bool empty() const { return props_.empty(); }

  [[nodiscard]] const std::map<std::string, cdr::Value>& entries() const {
    return props_;
  }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const PropertySet&) const = default;

 private:
  std::map<std::string, cdr::Value> props_;
};

}  // namespace integrade::services

namespace integrade::cdr {

template <>
struct Codec<services::PropertySet> {
  static void encode(Writer& w, const services::PropertySet& ps);
  static services::PropertySet decode(Reader& r);
};

}  // namespace integrade::cdr
