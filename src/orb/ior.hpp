// Interoperable object references.
//
// An ObjectRef is InteGrade's IOR: enough information for any node's ORB to
// reach a remote servant — the hosting endpoint (node address), the object
// key within that node's object adapter, and the repository type id used
// for sanity checks at invocation time.
#pragma once

#include <string>

#include "cdr/cdr.hpp"
#include "common/types.hpp"
#include "sim/network.hpp"

namespace integrade::orb {

/// Network address of a node's ORB endpoint (maps onto sim::EndpointId).
using NodeAddress = sim::EndpointId;

struct ObjectRef {
  NodeAddress host = 0;
  ObjectId key;
  std::string type_id;  // e.g. "IDL:integrade/Lrm:1.0"

  [[nodiscard]] bool valid() const { return key.valid(); }
  bool operator==(const ObjectRef&) const = default;
};
constexpr auto wire_fields(const ObjectRef*) {
  using S = ObjectRef;
  return cdr::fields(&S::host, &S::key, &S::type_id);
}

/// A nil reference, in the CORBA sense.
inline ObjectRef nil_ref() { return ObjectRef{}; }

}  // namespace integrade::orb
