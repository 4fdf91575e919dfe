// Chaos: the full middleware stack under crash/restart churn, a 60 s
// network partition and 5% message loss. Every task must complete exactly
// once, and the whole scenario must be deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include <cstring>

#include "asct/asct.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "obs/trace.hpp"
#include "protocol/trace_names.hpp"
#include "sim/faults.hpp"

namespace integrade {
namespace {

constexpr int kNodes = 100;
constexpr int kTasks = 60;

struct ChaosOutcome {
  bool done = false;
  int completed = 0;
  int evictions = 0;
  std::int64_t lrm_crashes = 0;
  SimDuration makespan = 0;
  std::int64_t duplicate_reports = 0;
  sim::FaultStats faults;
  std::map<std::uint64_t, int> completions_per_task;
  std::string trace;
};

core::ClusterConfig chaos_cluster() {
  auto config = core::quiet_cluster(kNodes, /*seed=*/77, 1000.0, "chaos");
  // Second LAN segment behind an uplink; half the providers live there so
  // the partition cuts a meaningful fraction of the pool off the manager.
  sim::SegmentSpec far = config.segments.front();
  far.name = "chaos-lan2";
  config.segments.push_back(far);
  for (int i = kNodes / 2; i < kNodes; ++i) {
    config.nodes[static_cast<std::size_t>(i)].segment = 1;
  }
  // The resilient control plane under test: request retransmission and a
  // warm-standby GRM (two-way updates, report journals).
  // Three retransmits spaced 1 s apart all fit inside the 5 s call deadline.
  config.orb.request_retries = 3;
  config.standby = core::Standby::kHeartbeat;
  return config;
}

ChaosOutcome run_chaos(std::uint64_t seed) {
  core::Grid grid(seed);
  auto& cluster = grid.add_cluster(chaos_cluster());
  sim::FaultInjector faults(grid.engine(), grid.network(),
                            Rng(seed ^ 0xfeedfacecafef00dULL));

  // Crashing a worker endpoint also crashes its LRM process (and a restart
  // restarts it), so protocol state matches the network's view of the node.
  std::unordered_map<orb::NodeAddress, std::size_t> worker_by_endpoint;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    worker_by_endpoint[cluster.worker_address(i)] = i;
  }
  faults.set_endpoint_handlers(
      [&](sim::EndpointId ep) {
        if (auto it = worker_by_endpoint.find(ep);
            it != worker_by_endpoint.end()) {
          cluster.lrm(it->second).crash();
        }
      },
      [&](sim::EndpointId ep) {
        if (auto it = worker_by_endpoint.find(ep);
            it != worker_by_endpoint.end()) {
          cluster.lrm(it->second).restart();
        }
      });

  grid.run_for(3 * kMinute);  // info updates populate the Trader

  // Five-minute tasks: the whole fault schedule (rolling crashes from
  // t0+30 s, the partition at t0+2 min) lands while tasks are running.
  asct::AppBuilder builder("chaos");
  builder.kind(protocol::AppKind::kParametric)
      .tasks(kTasks, 300'000.0)
      .checkpoint_period(kMinute, 64 * kKiB)
      .estimated_duration(10 * kMinute);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));

  const SimTime t0 = grid.engine().now();
  faults.set_loss(0.05);
  sim::FaultScript script;
  // Rolling crash/restart across providers in both segments.
  const std::size_t victims[] = {5, 23, 41, 58, 72, 90};
  SimTime at = t0 + 30 * kSecond;
  for (const std::size_t v : victims) {
    script.push_back({.at = at,
                      .kind = sim::FaultEvent::Kind::kCrash,
                      .endpoint = cluster.worker_address(v),
                      .duration = 45 * kSecond});
    at += 40 * kSecond;
  }
  // One full minute with the far segment unreachable from the manager.
  script.push_back({.at = t0 + 2 * kMinute,
                    .kind = sim::FaultEvent::Kind::kPartition,
                    .a = cluster.segment_id(0),
                    .b = cluster.segment_id(1),
                    .duration = 60 * kSecond});
  faults.run(script);

  ChaosOutcome out;
  out.done = grid.run_until_app_done(cluster, app, t0 + 8 * kHour);
  // A retransmitted per-task notification can arrive after the app-done
  // event; drain in-flight traffic before reading the ledger.
  grid.run_for(30 * kSecond);
  out.faults = faults.stats();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.lrm_crashes += cluster.lrm(i).metrics().counter_value("crashes");
  }
  const auto* progress = cluster.asct().progress(app);
  out.completed = progress != nullptr ? progress->completed : -1;
  out.evictions = progress != nullptr ? progress->evictions : -1;
  out.makespan = progress != nullptr ? progress->makespan() : -1;
  if (!out.done && progress != nullptr) {
    std::fprintf(stderr,
                 "chaos: t=%lld accepted=%d failed=%d scheduled=%d "
                 "completed=%d evictions=%d reschedules=%d reject='%s'\n",
                 static_cast<long long>(grid.engine().now()),
                 progress->accepted, progress->failed, progress->scheduled,
                 progress->completed, progress->evictions,
                 progress->reschedules, progress->reject_reason.c_str());
  }
  out.duplicate_reports =
      cluster.grm().metrics().counter_value("duplicate_reports_ignored");
  // App/task ids come from process-global counters, so normalise them to
  // first-appearance indices: the fingerprint must only reflect behaviour.
  std::ostringstream trace;
  std::unordered_map<std::uint64_t, std::size_t> task_index;
  for (const auto& event : cluster.asct().events()) {
    if (event.kind == protocol::AppEventKind::kTaskCompleted) {
      ++out.completions_per_task[event.task.value];
    }
    const auto [it, inserted] =
        task_index.emplace(event.task.value, task_index.size());
    trace << event.at << ' ' << protocol::app_event_kind_name(event.kind)
          << " t" << it->second << " n" << event.node.value << '\n';
  }
  out.trace = trace.str();
  return out;
}

TEST(ChaosTest, EveryTaskCompletesExactlyOnceUnderChurnPartitionAndLoss) {
  const auto out = run_chaos(11);
  ASSERT_TRUE(out.done);
  EXPECT_EQ(out.completed, kTasks);
  // The scenario must actually have been chaotic: every scripted crash
  // fired while the app ran, the partition cut real traffic, and loss bit.
  EXPECT_GE(out.makespan, 5 * kMinute);
  EXPECT_EQ(out.faults.crashes, 6);
  EXPECT_EQ(out.faults.partitions, 1);
  EXPECT_GT(out.faults.partition_drops, 0);
  EXPECT_GT(out.faults.loss_drops, 0);
  // The endpoint crash handlers took the LRM processes down with them.
  EXPECT_EQ(out.lrm_crashes, 6);
  // "No task runs twice": the GRM never saw a second completion for any
  // task, and the ASCT ledger shows exactly one completion event per task.
  EXPECT_EQ(out.duplicate_reports, 0);
  EXPECT_EQ(out.completions_per_task.size(), static_cast<std::size_t>(kTasks));
  for (const auto& [task, count] : out.completions_per_task) {
    EXPECT_EQ(count, 1) << "task " << task << " completed " << count
                        << " times";
  }
}

TEST(ChaosTest, IdenticalSeedsProduceIdenticalEventTraces) {
  const auto a = run_chaos(11);
  const auto b = run_chaos(11);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.duplicate_reports, b.duplicate_reports);
}

TEST(ChaosTest, TracedRunNeverExecutesBeforeReservingOnANode) {
  // Causality invariant, checked from the span record rather than the
  // protocol's own bookkeeping: under crash churn and loss, no task may
  // start executing on a node it has not first reserved — an "lrm.execute"
  // span for (task, node) must be preceded by an "lrm.reserve" span for the
  // same pair.
  core::Grid grid(23);
  grid.tracer().enable(1u << 16);
  auto config = core::quiet_cluster(30, /*seed=*/77, 1000.0, "traced");
  config.orb.request_retries = 3;
  auto& cluster = grid.add_cluster(config);

  sim::FaultInjector faults(grid.engine(), grid.network(),
                            Rng(23 ^ 0xfeedfacecafef00dULL));
  std::unordered_map<orb::NodeAddress, std::size_t> worker_by_endpoint;
  std::vector<sim::EndpointId> pool;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    worker_by_endpoint[cluster.worker_address(i)] = i;
    pool.push_back(cluster.worker_address(i));
  }
  faults.set_endpoint_handlers(
      [&](sim::EndpointId ep) {
        if (auto it = worker_by_endpoint.find(ep);
            it != worker_by_endpoint.end()) {
          cluster.lrm(it->second).crash();
        }
      },
      [&](sim::EndpointId ep) {
        if (auto it = worker_by_endpoint.find(ep);
            it != worker_by_endpoint.end()) {
          cluster.lrm(it->second).restart();
        }
      });
  faults.set_loss(0.03);
  faults.enable_crash_churn(pool, /*crashes_per_minute=*/0.5,
                            /*mean_downtime=*/30 * kSecond,
                            /*until=*/25 * kMinute);

  grid.run_for(3 * kMinute);
  asct::AppBuilder builder("traced");
  builder.kind(protocol::AppKind::kParametric)
      .tasks(16, 120'000.0)
      .checkpoint_period(kMinute, 64 * kKiB)
      .estimated_duration(2 * kMinute);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  (void)grid.run_until_app_done(cluster, app,
                                grid.engine().now() + 30 * kMinute);
  grid.run_for(30 * kSecond);

  ASSERT_NE(grid.tracer().log(), nullptr);
  EXPECT_EQ(grid.tracer().log()->dropped(), 0u);
  const auto spans = grid.tracer().log()->snapshot();
  // Earliest reserve per (task, node); then every execute must come after.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> first_reserve;
  int executes = 0;
  for (const auto& span : spans) {
    if (std::strcmp(span.name, protocol::kSpanLrmReserve) == 0) {
      const auto key = std::make_pair(span.task, span.node);
      auto [it, inserted] = first_reserve.emplace(key, span.start);
      if (!inserted && span.start < it->second) it->second = span.start;
    }
  }
  for (const auto& span : spans) {
    if (std::strcmp(span.name, protocol::kSpanLrmExecute) != 0) continue;
    ++executes;
    const auto it = first_reserve.find({span.task, span.node});
    ASSERT_NE(it, first_reserve.end())
        << "task " << span.task << " executed on node " << span.node
        << " without any reserve span";
    EXPECT_LE(it->second, span.start)
        << "task " << span.task << " executed on node " << span.node
        << " before its reservation";
  }
  // The invariant must have been exercised: tasks ran and some chaos hit.
  EXPECT_GE(executes, 16);
  const auto* progress = cluster.asct().progress(app);
  ASSERT_NE(progress, nullptr);
  EXPECT_GT(progress->completed, 0);
}

}  // namespace
}  // namespace integrade
