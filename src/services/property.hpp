// Property sets: the currency of the Trading service.
//
// A service offer (here: a node advertising resources to the GRM) is a bag
// of named typed values — `cpu_mips = 1400`, `os = 'linux'`,
// `platforms = ['linux-x86', 'java']`. Constraint expressions evaluate
// against a PropertySet; preferences rank offers by an expression over it.
#pragma once

#include <cstdint>
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
  PropertySet(const PropertySet&) = default;
  PropertySet(PropertySet&& other) noexcept : props_(std::move(other.props_)) {
    ++other.names_version_;
  }
  PropertySet& operator=(const PropertySet& other) {
    props_ = other.props_;
    ++names_version_;
    return *this;
  }
  PropertySet& operator=(PropertySet&& other) noexcept {
    props_ = std::move(other.props_);
    ++names_version_;
    ++other.names_version_;
    return *this;
  }

  /// Returns the stored value, which stays at this address until its name
  /// is erased or the set is replaced.
  cdr::Value& set(const std::string& name, cdr::Value value) {
    auto [it, added] = props_.insert_or_assign(name, std::move(value));
    if (added) ++names_version_;
    return it->second;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return props_.contains(name);
  }

  /// Null value when absent (constraint evaluation treats null as undefined).
  [[nodiscard]] const cdr::Value& get(const std::string& name) const;

  /// The stored value, or nullptr when absent: one lookup where has() and
  /// get() take two.
  [[nodiscard]] const cdr::Value* find(const std::string& name) const {
    auto it = props_.find(name);
    return it == props_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::optional<std::int64_t> get_int(const std::string& name) const;
  [[nodiscard]] std::optional<double> get_real(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get_string(const std::string& name) const;
  [[nodiscard]] std::optional<bool> get_bool(const std::string& name) const;

  void erase(const std::string& name) {
    if (props_.erase(name) > 0) ++names_version_;
  }
  [[nodiscard]] std::size_t size() const { return props_.size(); }
  [[nodiscard]] bool empty() const { return props_.empty(); }

  [[nodiscard]] const std::map<std::string, cdr::Value>& entries() const {
    return props_;
  }

  /// Visit every (name, value) in name order with the value writable in
  /// place; names cannot change, so names_version() does not.
  template <class Fn>
  void for_each_value(Fn&& fn) {
    for (auto& [name, value] : props_) fn(name, value);
  }

  /// Changes whenever a name is added or erased or the whole set is
  /// replaced (assigned, or moved from): whenever a value's address may
  /// have changed. The Trader rebinds an offer's slots when it does.
  [[nodiscard]] std::uint64_t names_version() const { return names_version_; }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const PropertySet& other) const {
    return props_ == other.props_;
  }

 private:
  std::map<std::string, cdr::Value> props_;
  std::uint64_t names_version_ = 0;
};

}  // namespace integrade::services

namespace integrade::cdr {

template <>
struct Codec<services::PropertySet> {
  static void encode(Writer& w, const services::PropertySet& ps);
  static services::PropertySet decode(Reader& r);
};

}  // namespace integrade::cdr
