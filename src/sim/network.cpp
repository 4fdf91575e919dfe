#include "sim/network.hpp"

#include <algorithm>
#include <cassert>

#include "sim/faults.hpp"

namespace integrade::sim {

SegmentId Network::add_segment(SegmentSpec spec) {
  assert(spec.bandwidth > 0 && spec.uplink_bandwidth > 0);
  segments_.push_back(std::move(spec));
  segment_bytes_.push_back(0);
  return static_cast<SegmentId>(segments_.size() - 1);
}

void Network::attach(EndpointId endpoint, SegmentId segment) {
  assert(segment >= 0 && static_cast<std::size_t>(segment) < segments_.size());
  assert(endpoint < (EndpointId{1} << 24) && "endpoint ids index a table");
  assert(!attached(endpoint) && "endpoint already attached");
  if (endpoint >= segment_of_.size()) segment_of_.resize(endpoint + 1, kDetached);
  segment_of_[endpoint] = segment;
}

SegmentId Network::segment_of(EndpointId endpoint) const {
  assert(attached(endpoint));
  return segment_of_[endpoint];
}

const SegmentSpec& Network::segment(SegmentId id) const {
  return segments_.at(static_cast<std::size_t>(id));
}

void Network::detach(EndpointId endpoint) {
  if (attached(endpoint)) segment_of_[endpoint] = kDetached;
}

BytesPerSec Network::bandwidth_between(SegmentId a, SegmentId b) const {
  const auto& seg_a = segments_[static_cast<std::size_t>(a)];
  if (a == b) return seg_a.bandwidth;
  const auto& seg_b = segments_[static_cast<std::size_t>(b)];
  return std::min({seg_a.bandwidth, seg_a.uplink_bandwidth, seg_b.uplink_bandwidth,
                   seg_b.bandwidth});
}

SimDuration Network::latency_between(SegmentId a, SegmentId b) const {
  const auto& seg_a = segments_[static_cast<std::size_t>(a)];
  if (a == b) return seg_a.latency;
  const auto& seg_b = segments_[static_cast<std::size_t>(b)];
  return seg_a.latency + seg_a.uplink_latency + seg_b.uplink_latency + seg_b.latency;
}

BytesPerSec Network::path_bandwidth(EndpointId a, EndpointId b) const {
  return bandwidth_between(segment_of(a), segment_of(b));
}

SimDuration Network::path_latency(EndpointId a, EndpointId b) const {
  return latency_between(segment_of(a), segment_of(b));
}

Network::Route Network::plan(EndpointId src, EndpointId dst, Bytes bytes) {
  assert(bytes >= 0);
  if (!attached(src)) return {};  // sender already gone; nothing leaves the NIC
  if (!attached(dst)) return {};  // destination unknown: drop (ORB times out)

  const SegmentId sa = segment_of_[src];
  const SegmentId sb = segment_of_[dst];

  // Fault layer: crashed endpoints, partitions, loss, duplication, delay.
  FaultInjector::SendPlan plan;
  if (faults_ != nullptr) {
    plan = faults_->plan_send(src, sa, dst, sb);
    if (plan.copies == 0) return {};
  }

  const BytesPerSec bw = bandwidth_between(sa, sb);
  const SimDuration latency = latency_between(sa, sb);

  double transfer_s = static_cast<double>(bytes) / bw;
  if (jitter_ > 0.0) transfer_s *= 1.0 + rng_.uniform(0.0, jitter_);
  const SimDuration delay = latency + from_seconds(transfer_s) + plan.extra_delay;

  ++stats_.messages;
  stats_.bytes += bytes;
  segment_bytes_[static_cast<std::size_t>(sa)] += bytes;
  if (sa != sb) {
    segment_bytes_[static_cast<std::size_t>(sb)] += bytes;
    backbone_bytes_ += bytes;
  }
  return {engine_.now() + delay, plan.copies};
}

bool Network::arrives(EndpointId src, EndpointId dst) const {
  // Deliver only if both ends are still attached at arrival time: a
  // detached source means the message died with the sender's NIC, and a
  // crashed endpoint (either side) kills it too.
  if (!attached(src) || !attached(dst)) return false;
  return faults_ == nullptr ||
         (!faults_->endpoint_down(src) && !faults_->endpoint_down(dst));
}

std::int64_t Network::bytes_on_segment(SegmentId id) const {
  return segment_bytes_.at(static_cast<std::size_t>(id));
}

}  // namespace integrade::sim
