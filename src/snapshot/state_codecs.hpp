// Wire layouts for small pieces of component-internal state that
// control-plane snapshots persist (snapshot/snapshot.hpp), and the ordering
// rule every section loader applies. Header-only so components can
// serialize these without linking the snapshot library.
#pragma once

#include <algorithm>

#include "cdr/cdr.hpp"
#include "common/rng.hpp"

namespace integrade {

constexpr auto wire_fields(const Rng::State*) {
  using S = Rng::State;
  return cdr::fields(&S::s, &S::have_spare_normal, &S::spare_normal);
}

namespace snapshot {

/// True when `key` strictly increases along `records`. save() writes keyed
/// records in ascending key order, so a loader that requires this accepts
/// no repeated key and no order that would re-save differently.
template <class Records, class Key>
bool strictly_ascending(const Records& records, Key key) {
  return std::adjacent_find(records.begin(), records.end(),
                            [&key](const auto& a, const auto& b) {
                              return !(key(a) < key(b));
                            }) == records.end();
}

}  // namespace snapshot
}  // namespace integrade
