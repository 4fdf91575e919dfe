// The four benchmark workloads. Each one makes one group of layers do most
// of the work (README.md, "Workloads"). Set-up is config generation, grid
// construction and the warm-up a workload needs; the measured phase is a
// fixed task set or a fixed simulated span. Every input is drawn from the
// seed; distributions are fixed so results are comparable across seeds.
#include <algorithm>
#include <cmath>
#include <string>

#include "asct/asct.hpp"
#include "core/workloads.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace integrade;

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

void NsHistogram::observe(std::int64_t ns) {
  // Bucket b covers [1.02^b, 1.02^(b+1)) ns.
  std::size_t b = 0;
  if (ns > 1) {
    b = static_cast<std::size_t>(std::log(static_cast<double>(ns)) /
                                 std::log(1.02));
  }
  ++buckets_[std::min(b, kBuckets - 1)];
  ++count_;
}

double NsHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(q * static_cast<double>(count_ - 1));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return std::pow(1.02, static_cast<double>(b));
  }
  return std::pow(1.02, static_cast<double>(kBuckets - 1));
}

bool Runner::traced_step(SimTime deadline) {
  sim::Engine& engine = grid_.engine();
  const std::int64_t begin = host_ns();
  const bool fired = engine.step(deadline);
  const std::int64_t end = host_ns();
  if (!fired) return false;
  step_ns_.observe(end - begin);
  const std::size_t depth = engine.pending();
  depth_max_ = std::max(depth_max_, depth);
  depth_sum_ += static_cast<double>(depth);
  ++depth_samples_;
  return true;
}

void Runner::run_until(SimTime t) {
  if (!traced_) {
    grid_.run_until(t);
    return;
  }
  while (traced_step(t)) {
  }
  grid_.run_until(t);  // nothing left before t: only advances the clock
}

void Runner::run_for(SimDuration d) { run_until(grid_.engine().now() + d); }

bool Runner::run_until_app_done(core::Cluster& cluster, AppId app,
                                SimTime deadline) {
  if (!traced_) return grid_.run_until_app_done(cluster, app, deadline);
  while (grid_.engine().now() < deadline && !cluster.asct().done(app)) {
    if (!traced_step(deadline)) break;
  }
  return cluster.asct().done(app);
}

namespace {

void submit(WorkloadRun& run, const asct::AppBuilder& builder, bool bsp = false,
            SimDuration deadline = 0) {
  core::Cluster& cluster = *run.cluster;
  const AppId id = cluster.asct().submit(cluster.grm_ref(),
                                         builder.build(cluster.asct().ref()));
  run.apps.push_back({id, run.grid->engine().now(), bsp, deadline});
}

void begin_phase(WorkloadRun& run) {
  run.phase_start = run.grid->engine().now();
  run.net_bytes_before = run.grid->network().stats().bytes;
  run.net_messages_before = run.grid->network().stats().messages;
  run.hub_before = run.grid->metrics_hub().collect();
}

/// Run every submitted app to completion (or the cap), in submission order.
void drain(WorkloadRun& run, Runner& runner, SimTime cap) {
  for (const Submission& sub : run.apps) {
    (void)runner.run_until_app_done(*run.cluster, sub.app, cap);
  }
  run.phase_end = run.grid->engine().now();
}

/// Uniform task works in [lo, hi) MInstr drawn from the workload stream.
std::vector<MInstr> draw_works(Rng& rng, int n, MInstr lo, MInstr hi) {
  std::vector<MInstr> works(static_cast<std::size_t>(n));
  for (MInstr& w : works) w = std::floor(rng.uniform(lo, hi));
  return works;
}

// ---------------------------------------------------------------------------
// heartbeat: a scaled-up E2. A campus of desktops with lively owners reports
// status every 5 s (per-node timers, the default path) while an open-loop
// trickle of small parametric apps arrives. The Information Update Protocol
// (LRM status -> CDR -> ORB oneway -> GRM -> Trader refresh) dominates.
// ---------------------------------------------------------------------------

constexpr int kHeartbeatNodes = 300;
constexpr SimDuration kHeartbeatPeriod = 5 * kSecond;
constexpr int kHeartbeatApps = 18;
constexpr SimDuration kHeartbeatInterval = 5 * kMinute;

WorkloadRun heartbeat_setup(std::uint64_t seed) {
  WorkloadRun run;
  run.seed = seed;
  run.grid = std::make_unique<core::Grid>(seed);
  auto config = core::campus_cluster(kHeartbeatNodes, seed, "campus");
  // Start the owners' week at Tuesday 09:00 (where E2 starts measuring), so
  // owners are lively from the first minute without simulating the 33 h
  // before it at a 5 s heartbeat.
  const auto tuesday_9am =
      static_cast<std::ptrdiff_t>((kDay + 9 * kHour) / (30 * kMinute));
  for (auto& node : config.nodes) {
    auto& slots = node.profile.presence_prob;
    std::rotate(slots.begin(), slots.begin() + tuesday_9am, slots.end());
  }
  config.lrm.update_period = kHeartbeatPeriod;
  config.lrm.push_on_state_change = false;  // the period is the only freshness
  config.grm.offer_ttl = 150 * kSecond;
  config.grm.use_forecast = false;          // isolate staleness, as E2 does
  run.cluster = &run.grid->add_cluster(std::move(config));
  run.grid->run_for(10 * kMinute);  // every LRM registered, owners settled
  return run;
}

void heartbeat_measure(WorkloadRun& run, Runner& runner) {
  begin_phase(run);
  Rng rng(run.seed ^ 0x68656172ULL);
  for (int i = 0; i < kHeartbeatApps; ++i) {
    asct::AppBuilder builder("stream-" + std::to_string(i));
    builder.kind(protocol::AppKind::kParametric)
        .task_works(draw_works(rng, 8, 40'000.0, 80'000.0));
    submit(run, builder);
    runner.run_for(kHeartbeatInterval);
  }
  drain(run, runner, run.phase_start + 4 * kHour);
}

// ---------------------------------------------------------------------------
// burst: a closed batch of many short parametric tasks submitted at once to
// a quiet cluster (default 30 s period, FIFO dispatch). Trader queries, GRM
// negotiation waves and ORB reserve/execute round-trips do the work; the
// Trader is read-heavy — the mirror image of heartbeat.
// ---------------------------------------------------------------------------

constexpr int kBurstNodes = 150;
constexpr int kBurstApps = 10;
constexpr int kBurstTasksPerApp = 80;

WorkloadRun burst_setup(std::uint64_t seed) {
  WorkloadRun run;
  run.seed = seed;
  run.grid = std::make_unique<core::Grid>(seed);
  run.cluster = &run.grid->add_cluster(core::quiet_cluster(kBurstNodes, seed));
  run.grid->run_for(6 * kHour);  // LUPA sampling under way, offers warm
  return run;
}

void burst_measure(WorkloadRun& run, Runner& runner) {
  begin_phase(run);
  Rng rng(run.seed ^ 0x6275727374ULL);
  for (int i = 0; i < kBurstApps; ++i) {
    asct::AppBuilder builder("burst-" + std::to_string(i));
    builder.kind(protocol::AppKind::kParametric)
        .task_works(draw_works(rng, kBurstTasksPerApp, 20'000.0, 60'000.0));
    submit(run, builder);
  }
  drain(run, runner, run.phase_start + 12 * kHour);
}

// ---------------------------------------------------------------------------
// bsp-ckpt: E17's shape. A BSP app on a churny cluster with the checkpoint
// data plane on (chunking, SHA-256, LZSS, peer replication, restore after
// eviction), next to a bag of checkpointed sequential tasks that give the
// turnaround metrics their samples. Bulk chunk frames, not tiny oneways,
// cross the network, CDR and ORB here.
// ---------------------------------------------------------------------------

constexpr int kCkptNodes = 36;
constexpr int kCkptRanks = 8;
constexpr int kCkptSupersteps = 16;
constexpr Bytes kCkptImage = 1 * kMiB;
constexpr int kCkptBagApps = 8;
constexpr int kCkptBagTasks = 16;

WorkloadRun bsp_ckpt_setup(std::uint64_t seed) {
  WorkloadRun run;
  run.seed = seed;
  run.image_bytes = kCkptImage;
  run.grid = std::make_unique<core::Grid>(seed);
  auto config = core::quiet_cluster(kCkptNodes, seed);
  for (auto& node : config.nodes) {  // E17's churny owners
    node.profile.presence_prob.fill(0.15);
    node.profile.persistence_slots = 1.0;
    node.profile.active_cpu_mean = 0.6;
  }
  config.ckpt.enabled = true;
  run.cluster = &run.grid->add_cluster(std::move(config));
  // One day of churn: every LUPA has clustered a day and uploaded its
  // pattern, so the GRM's forecasts rank the churny nodes.
  run.grid->run_for(kDay);
  return run;
}

void bsp_ckpt_measure(WorkloadRun& run, Runner& runner) {
  begin_phase(run);
  core::Cluster& cluster = *run.cluster;
  asct::AppBuilder bsp("bsp-dp");
  bsp.bsp(kCkptRanks, kCkptSupersteps, /*work_per_superstep=*/10'000.0,
          /*comm=*/64 * kKiB, /*ckpt_every=*/2, kCkptImage);
  submit(run, bsp, /*bsp=*/true);

  Rng rng(run.seed ^ 0x636b7074ULL);
  for (int i = 0; i < kCkptBagApps; ++i) {
    asct::AppBuilder bag("bag-" + std::to_string(i));
    bag.kind(protocol::AppKind::kParametric)
        .task_works(draw_works(rng, kCkptBagTasks, 60'000.0, 120'000.0))
        .checkpoint_period(60 * kSecond, 128 * kKiB);
    submit(run, bag);
  }

  // Guarantee at least one eviction -> data-plane restore on top of what
  // the churny owners do: an owner returns to a busy node for a minute, as
  // in E17. (Evicting a BSP rank instead makes every modelled metric swing
  // by about 20% between seeds: one rollback dominates the run.)
  runner.run_for(4 * kMinute);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.lrm(i).running_task_count() > 0) {
      node::OwnerLoad busy;
      busy.present = true;
      busy.cpu_fraction = 0.9;
      cluster.machine(i).set_owner_load(busy);
      break;
    }
  }
  runner.run_for(kMinute);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.machine(i).set_owner_load(node::OwnerLoad{});
  }
  drain(run, runner, run.phase_start + 24 * kHour);
}

// ---------------------------------------------------------------------------
// economy: E18's shape. A greedy tenant holds every node with long
// checkpointed tasks when six deadline-bidding tenants arrive; the economy
// (FairQueue, entitlement scans, preemption by checkpoint migration) must
// carve out their share. Without it sched goes unmeasured.
// ---------------------------------------------------------------------------

constexpr int kEconomyNodes = 14;
constexpr int kEconomySmallTenants = 6;
constexpr int kEconomySmallTasks = 40;
constexpr SimDuration kEconomyDeadline = 6 * kMinute;

WorkloadRun economy_setup(std::uint64_t seed) {
  WorkloadRun run;
  run.seed = seed;
  run.grid = std::make_unique<core::Grid>(seed);
  auto config = core::quiet_cluster(kEconomyNodes, seed, 1000.0, "economy");
  config.ckpt.enabled = true;
  config.sched.enabled = true;
  config.sched.preemption = true;
  config.sched.max_preemptions_per_wave = 2;
  config.sched.tenants.push_back({"greedy", 1.0, 0, 0});
  for (int t = 0; t < kEconomySmallTenants; ++t) {
    config.sched.tenants.push_back({"user" + std::to_string(t), 1.0, 0, 0});
  }
  run.sched = config.sched;
  run.image_bytes = 256 * kKiB;
  run.cluster = &run.grid->add_cluster(std::move(config));
  run.grid->run_for(kDay);  // usage patterns uploaded, as in bsp-ckpt
  return run;
}

void economy_measure(WorkloadRun& run, Runner& runner) {
  begin_phase(run);
  Rng rng(run.seed ^ 0x65636f6eULL);
  asct::AppBuilder greedy("greedy-batch");
  greedy.task_works(draw_works(rng, kEconomyNodes, 500'000.0, 700'000.0))
      .tenant("greedy")
      .checkpoint_period(30 * kSecond, 256 * kKiB);
  submit(run, greedy);
  runner.run_for(kMinute);  // every node busy with greedy work

  for (int t = 0; t < kEconomySmallTenants; ++t) {
    asct::AppBuilder small("user" + std::to_string(t) + "-stream");
    small.kind(protocol::AppKind::kParametric)
        .task_works(draw_works(rng, kEconomySmallTasks, 20'000.0, 40'000.0))
        .tenant("user" + std::to_string(t))
        .bid(/*budget=*/10.0 + t, kEconomyDeadline);
    submit(run, small, /*bsp=*/false, kEconomyDeadline);
  }
  drain(run, runner, run.phase_start + 12 * kHour);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"heartbeat", heartbeat_setup, heartbeat_measure},
      {"burst", burst_setup, burst_measure},
      {"bsp-ckpt", bsp_ckpt_setup, bsp_ckpt_measure},
      {"economy", economy_setup, economy_measure},
  };
  return all;
}

}  // namespace perfbench
