// Simulated network: LAN segments joined by a backbone.
//
// The paper's topology-aware scheduling example asks for "two groups of 50
// nodes, each group connected internally by a 100 Mbps network and the two
// groups connected by a 10 Mbps network". This model captures exactly that
// structure: endpoints live on segments; intra-segment traffic sees the
// segment's bandwidth/latency; inter-segment traffic crosses both segments'
// uplinks and the backbone, and its bandwidth is the minimum along the path.
//
// Delivery time = path latency + message_bytes / path_bandwidth (+ jitter).
// Per-endpoint and per-segment byte counters feed the E2 overhead bench.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace integrade::sim {

class FaultInjector;

using SegmentId = std::int32_t;
using EndpointId = std::uint64_t;  // shared with orb::NodeAddress

struct SegmentSpec {
  std::string name;
  BytesPerSec bandwidth = 100.0 * 1000 * 1000 / 8;  // 100 Mbps default LAN
  SimDuration latency = 200 * kMicrosecond;
  // Uplink to the backbone, for inter-segment traffic.
  BytesPerSec uplink_bandwidth = 10.0 * 1000 * 1000 / 8;  // 10 Mbps default
  SimDuration uplink_latency = 2 * kMillisecond;
};

struct NetworkStats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

class Network {
 public:
  Network(Engine& engine, Rng rng) : engine_(engine), rng_(rng) {}

  SegmentId add_segment(SegmentSpec spec);

  /// Attach an endpoint to a segment. Endpoint ids are caller-chosen (the
  /// ORB uses node ids) and must be unique.
  void attach(EndpointId endpoint, SegmentId segment);
  [[nodiscard]] bool attached(EndpointId endpoint) const;
  [[nodiscard]] SegmentId segment_of(EndpointId endpoint) const;
  [[nodiscard]] const SegmentSpec& segment(SegmentId id) const;

  /// Detach (machine unplugged / crashed). In-flight messages to it drop.
  void detach(EndpointId endpoint);

  /// Effective bandwidth between two endpoints (min along path).
  [[nodiscard]] BytesPerSec path_bandwidth(EndpointId a, EndpointId b) const;
  [[nodiscard]] SimDuration path_latency(EndpointId a, EndpointId b) const;

  /// Deliver `bytes` from `src` to `dst`, invoking `on_delivered` at the
  /// simulated arrival time. If either side detaches (or its endpoint is
  /// crashed by the FaultInjector) before arrival the message is silently
  /// dropped (datagram semantics; the ORB layers timeouts on top).
  void send(EndpointId src, EndpointId dst, Bytes bytes,
            std::function<void()> on_delivered);

  /// Install (or clear, with nullptr) a fault injector consulted on every
  /// send. Normally managed by the FaultInjector's own ctor/dtor.
  void set_faults(FaultInjector* faults) { faults_ = faults; }
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

  /// Relative jitter applied to transfer time, default 5%.
  void set_jitter(double fraction) { jitter_ = fraction; }

  [[nodiscard]] NetworkStats stats() const { return stats_; }
  [[nodiscard]] std::int64_t bytes_on_segment(SegmentId id) const;
  [[nodiscard]] std::int64_t backbone_bytes() const { return backbone_bytes_; }

 private:
  Engine& engine_;
  Rng rng_;
  FaultInjector* faults_ = nullptr;
  double jitter_ = 0.05;
  std::vector<SegmentSpec> segments_;
  std::unordered_map<EndpointId, SegmentId> endpoint_segment_;
  NetworkStats stats_;
  std::int64_t backbone_bytes_ = 0;
  std::vector<std::int64_t> segment_bytes_;  // one entry per segment
};

}  // namespace integrade::sim
