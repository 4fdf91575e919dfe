// Wire layouts for small pieces of component-internal state that
// control-plane snapshots persist (snapshot/snapshot.hpp). Header-only so
// components can serialize these without linking the snapshot library.
#pragma once

#include "cdr/cdr.hpp"
#include "common/rng.hpp"

namespace integrade {

constexpr auto wire_fields(const Rng::State*) {
  using S = Rng::State;
  return cdr::fields(&S::s, &S::have_spare_normal, &S::spare_normal);
}

}  // namespace integrade
