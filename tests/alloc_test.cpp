// Heap allocations on the Information Update Protocol's hot path, and on
// the Trader query a scheduling wave makes.
//
// This binary replaces the global operator new and delete with counting
// versions, so it runs alone: the counts below are of everything the
// process allocates while a test's window is open. A heartbeat (LRM push ->
// engine -> network -> ORB -> CDR -> GRM -> Trader refresh) keeps two
// allocations: its one-buffer frame and the decoded reference's type id. A
// query allocates per query, never per offer it evaluates.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>

#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "orb/orb.hpp"
#include "orb/transport.hpp"
#include "protocol/properties.hpp"
#include "services/trader.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace integrade {
namespace {

TEST(Allocations, SteadyStateHeartbeatAllocatesAtMostTwice) {
  core::Grid grid(7);
  core::ClusterConfig config = core::quiet_cluster(8, 7);
  config.lrm.run_lupa = false;
  config.lrm.update_period = 5 * kSecond;
  core::Cluster& cluster = grid.add_cluster(config);
  // Warm-up: every node registered, the GRM's 256-entry at-most-once
  // window full (it recycles from then on), every table at its size.
  grid.run_for(10 * kMinute);

  const MetricRegistry& grm = cluster.grm().metrics();
  const std::int64_t updates_before = grm.counter_value("status_updates_received");
  const std::size_t allocations_before = g_allocations;
  grid.run_for(10 * kMinute);
  const std::size_t allocations = g_allocations - allocations_before;
  const std::int64_t heartbeats =
      grm.counter_value("status_updates_received") - updates_before;

  ASSERT_GE(heartbeats, 8 * 100);  // 8 nodes, every 5 s, for 10 minutes
  EXPECT_LE(allocations, 2 * static_cast<std::size_t>(heartbeats))
      << static_cast<double>(allocations) / static_cast<double>(heartbeats)
      << " allocations per heartbeat";
}

/// Allocations of `queries` GRM-shaped queries over `nodes` node offers,
/// two thirds of which match (fewer than the depth, so every count ranks
/// its matches the same way).
std::size_t query_allocations(int nodes, int queries) {
  services::Trader trader;
  for (int i = 0; i < nodes; ++i) {
    protocol::NodeStatus status;
    status.node = NodeId(static_cast<std::uint64_t>(i + 1));
    status.hostname = "node-" + std::to_string(i);
    status.cpu_mips = 500.0 + 10.0 * i;
    status.os = "linux";
    status.arch = "x86";
    status.platforms = {"linux-x86", "java"};
    status.exportable_cpu = 0.5;
    status.free_ram = 64 * kMiB;
    status.shareable = i % 3 != 0;
    status.lrm.host = static_cast<std::uint64_t>(i + 1);
    status.lrm.key = ObjectId(static_cast<std::uint64_t>(i + 1));
    trader.export_offer(protocol::kNodeServiceType, status.lrm,
                        protocol::to_properties(status));
  }
  const std::string constraint =
      "shareable == true and exportable_cpu > 0 and free_ram_mb >= 32 and "
      "'linux-x86' in platforms";
  const std::string preference = "max exportable_mips";
  constexpr std::size_t kDepth = 128;
  // Warm-up: the compiled-expression caches hold both expressions.
  const auto first =
      trader.query(protocol::kNodeServiceType, constraint, preference, kDepth);
  EXPECT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().size(), static_cast<std::size_t>(nodes - (nodes + 2) / 3));

  const std::size_t before = g_allocations;
  for (int q = 0; q < queries; ++q) {
    (void)trader.query(protocol::kNodeServiceType, constraint, preference, kDepth);
  }
  return g_allocations - before;
}

TEST(Allocations, TraderQueryAllocatesNothingPerOffer) {
  constexpr int kQueries = 20;
  const std::size_t few = query_allocations(15, kQueries);
  const std::size_t many = query_allocations(150, kQueries);
  EXPECT_EQ(many, few) << "150 offers: "
                       << static_cast<double>(many) / kQueries
                       << " allocations per query; 15 offers: "
                       << static_cast<double>(few) / kQueries;
}

struct Ping {
  std::uint64_t seq = 0;
  double value = 0.0;
};
constexpr auto wire_fields(const Ping*) {
  return cdr::fields(&Ping::seq, &Ping::value);
}

class PingServant final : public orb::SkeletonBase {
 public:
  PingServant() {
    register_op<Ping, cdr::Empty>(
        "ping", [this](const Ping& p) -> Result<cdr::Empty> {
          last = p.seq;
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override { return "IDL:test/Ping:1.0"; }
  std::uint64_t last = 0;
};

TEST(Allocations, OnewayOverTheSimulatedNetworkAllocatesOnce) {
  sim::Engine engine;
  sim::Network network(engine, Rng(3));
  const sim::SegmentId lan = network.add_segment(sim::SegmentSpec{});
  network.attach(1, lan);
  network.attach(2, lan);
  orb::SimNetworkTransport transport(network);
  orb::Orb client(1, transport, &engine);
  orb::Orb server(2, transport, &engine);
  auto servant = std::make_shared<PingServant>();
  const orb::ObjectRef ref = server.activate(servant);

  Ping ping;
  // Warm-up past the server's 256-entry at-most-once window.
  for (int i = 0; i < 300; ++i) {
    ping.seq = static_cast<std::uint64_t>(i);
    orb::oneway(client, ref, "ping", ping);
    engine.run();
  }

  constexpr int kOneways = 1000;
  const std::size_t allocations_before = g_allocations;
  for (int i = 0; i < kOneways; ++i) {
    ping.seq = static_cast<std::uint64_t>(1000 + i);
    orb::oneway(client, ref, "ping", ping);
    engine.run();
  }
  const std::size_t allocations = g_allocations - allocations_before;

  EXPECT_EQ(servant->last, static_cast<std::uint64_t>(1000 + kOneways - 1));
  EXPECT_LE(allocations, static_cast<std::size_t>(kOneways))
      << static_cast<double>(allocations) / kOneways << " allocations per oneway";
}

}  // namespace
}  // namespace integrade
