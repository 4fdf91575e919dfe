// Transport abstraction beneath the ORB.
//
// The ORB hands fully framed byte vectors to a Transport and receives frames
// addressed to its endpoint. Two implementations:
//   * SimNetworkTransport — routes frames over the discrete-event network
//     model with real latency/bandwidth/loss semantics; all experiments use
//     this one.
//   * DirectTransport — delivers synchronously in depth-first order with no
//     delay; unit tests use it to exercise marshaling and dispatch logic
//     without an engine.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "orb/ior.hpp"
#include "sim/network.hpp"

namespace integrade::orb {

using FrameHandler = std::function<void(NodeAddress source,
                                        const std::vector<std::uint8_t>& frame)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Register the handler that receives frames addressed to `self`.
  virtual void bind(NodeAddress self, FrameHandler handler) = 0;
  virtual void unbind(NodeAddress self) = 0;

  /// Fire-and-forget; delivery failure surfaces only as caller timeout.
  virtual void send(NodeAddress from, NodeAddress to,
                    std::vector<std::uint8_t> frame) = 0;
};

class DirectTransport final : public Transport {
 public:
  void bind(NodeAddress self, FrameHandler handler) override;
  void unbind(NodeAddress self) override;
  void send(NodeAddress from, NodeAddress to,
            std::vector<std::uint8_t> frame) override;

  /// Drop every frame addressed to `to` (simulates a dead host in tests).
  void set_blackhole(NodeAddress to, bool enabled);

 private:
  std::unordered_map<NodeAddress, FrameHandler> handlers_;
  std::unordered_map<NodeAddress, bool> blackholes_;
};

/// Each frame rides in its network delivery event; the handlers are a table
/// indexed by endpoint id, like the network's own.
class SimNetworkTransport final : public Transport {
 public:
  explicit SimNetworkTransport(sim::Network& network) : network_(network) {}

  void bind(NodeAddress self, FrameHandler handler) override;
  void unbind(NodeAddress self) override;
  void send(NodeAddress from, NodeAddress to,
            std::vector<std::uint8_t> frame) override;

  [[nodiscard]] sim::Network& network() { return network_; }

 private:
  void deliver(NodeAddress from, NodeAddress to,
               const std::vector<std::uint8_t>& frame);

  sim::Network& network_;
  std::vector<FrameHandler> handlers_;  // by endpoint id; empty if unbound
};

}  // namespace integrade::orb
