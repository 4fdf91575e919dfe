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
//
// Endpoint ids are small dense integers (Grid::allocate_endpoint hands them
// out in sequence), so the endpoint -> segment table is a vector indexed by
// id, and each message is one engine event carrying the caller's closure,
// both endpoints and the arrival check.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
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
  /// ORB uses node ids), must be unique, and index a table: keep them small.
  void attach(EndpointId endpoint, SegmentId segment);
  [[nodiscard]] bool attached(EndpointId endpoint) const {
    return endpoint < segment_of_.size() && segment_of_[endpoint] != kDetached;
  }
  [[nodiscard]] SegmentId segment_of(EndpointId endpoint) const;
  [[nodiscard]] const SegmentSpec& segment(SegmentId id) const;

  /// Detach (machine unplugged / crashed). In-flight messages to it drop.
  void detach(EndpointId endpoint);

  /// Effective bandwidth between two endpoints (min along path).
  [[nodiscard]] BytesPerSec path_bandwidth(EndpointId a, EndpointId b) const;
  [[nodiscard]] SimDuration path_latency(EndpointId a, EndpointId b) const;

  /// Deliver `bytes` from `src` to `dst`, invoking `on_delivered` at the
  /// simulated arrival time, as `on_delivered(src, dst)` when it takes the
  /// endpoints and as `on_delivered()` otherwise. If either side detaches (or
  /// its endpoint is crashed by the FaultInjector) before arrival the message
  /// is silently dropped (datagram semantics; the ORB layers timeouts on
  /// top). A duplicated message delivers a copy of `on_delivered`.
  template <class F>
  void send(EndpointId src, EndpointId dst, Bytes bytes, F&& on_delivered) {
    const Route route = plan(src, dst, bytes);
    if (route.copies == 0) return;
    auto deliver = [this, src, dst, fn = std::forward<F>(on_delivered)]() mutable {
      if (!arrives(src, dst)) return;
      if constexpr (std::is_invocable_v<decltype(fn)&, EndpointId, EndpointId>) {
        fn(src, dst);
      } else {
        fn();
      }
    };
    if (route.copies > 1) engine_.schedule_at(route.arrival, deliver);
    engine_.schedule_at(route.arrival, std::move(deliver));
  }

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
  static constexpr SegmentId kDetached = -1;

  /// A message's arrival time and copies (0: dropped).
  struct Route {
    SimTime arrival = 0;
    int copies = 0;
  };
  /// Route one message sent now and bill its bytes.
  Route plan(EndpointId src, EndpointId dst, Bytes bytes);
  /// Both ends still attached and up: the message is delivered.
  [[nodiscard]] bool arrives(EndpointId src, EndpointId dst) const;
  [[nodiscard]] BytesPerSec bandwidth_between(SegmentId a, SegmentId b) const;
  [[nodiscard]] SimDuration latency_between(SegmentId a, SegmentId b) const;

  Engine& engine_;
  Rng rng_;
  FaultInjector* faults_ = nullptr;
  double jitter_ = 0.05;
  std::vector<SegmentSpec> segments_;
  std::vector<SegmentId> segment_of_;  // by endpoint id; kDetached if none
  NetworkStats stats_;
  std::int64_t backbone_bytes_ = 0;
  std::vector<std::int64_t> segment_bytes_;  // one entry per segment
};

}  // namespace integrade::sim
