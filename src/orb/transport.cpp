#include "orb/transport.hpp"

#include <cassert>
#include <utility>

namespace integrade::orb {

void DirectTransport::bind(NodeAddress self, FrameHandler handler) {
  handlers_[self] = std::move(handler);
}

void DirectTransport::unbind(NodeAddress self) { handlers_.erase(self); }

void DirectTransport::send(NodeAddress from, NodeAddress to,
                           std::vector<std::uint8_t> frame) {
  auto bh = blackholes_.find(to);
  if (bh != blackholes_.end() && bh->second) return;
  auto it = handlers_.find(to);
  if (it == handlers_.end()) return;  // unknown host: drop
  it->second(from, frame);
}

void DirectTransport::set_blackhole(NodeAddress to, bool enabled) {
  blackholes_[to] = enabled;
}

void SimNetworkTransport::bind(NodeAddress self, FrameHandler handler) {
  assert(self < (NodeAddress{1} << 24) && "endpoint ids index a table");
  if (self >= handlers_.size()) handlers_.resize(self + 1);
  handlers_[self] = std::move(handler);
}

void SimNetworkTransport::unbind(NodeAddress self) {
  if (self < handlers_.size()) handlers_[self] = nullptr;
}

void SimNetworkTransport::send(NodeAddress from, NodeAddress to,
                               std::vector<std::uint8_t> frame) {
  const auto bytes = static_cast<Bytes>(frame.size());
  network_.send(from, to, bytes,
                [this, f = std::move(frame)](NodeAddress src, NodeAddress dst) {
                  deliver(src, dst, f);
                });
}

void SimNetworkTransport::deliver(NodeAddress from, NodeAddress to,
                                  const std::vector<std::uint8_t>& frame) {
  if (to >= handlers_.size() || !handlers_[to]) return;  // host left mid-flight
  handlers_[to](from, frame);
}

}  // namespace integrade::orb
