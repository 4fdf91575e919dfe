// E18 — Economy-aware multi-tenant scheduling: fair-share, deadline bids,
// checkpoint-assisted preemption.
//
// InteGrade's GRM historically ran one FIFO queue: a single greedy user
// submitting a large batch monopolises every node and starves everyone else.
// The scheduling economy (src/sched) replaces the queue with a weighted
// stride scheduler over per-tenant sub-queues (EDF inside a tenant for
// deadline bids) and, when an under-share tenant finds no free node, vacates
// an over-share tenant's task by checkpoint migration through the PR 9 data
// plane — save, replicate to the successor's peers, restore warm — instead
// of killing it.
//
// One scenario, three cells on the same seed and workload:
//
//   economy    sched enabled: equal-weight tenants, deadline bids,
//              preemption-by-migration, checkpoint data plane
//   fifo       sched disabled, preference "first" (discovery order) — the
//              historical queue, placement-blind
//   load-only  sched disabled, default load-aware preference — better
//              placement, same starvation-prone FIFO queue
//
// Workload: one greedy tenant grabs every node with long sequential tasks,
// then six small tenants each submit a stream of short tasks carrying a
// deadline bid. Reported per cell: the small tenants' deadline hit-rate,
// per-tenant slot-seconds integrated over a fixed fair-share window,
// preemption and migration counters, and an exactly-once completion ledger.
//
// Usage: bench_economy [out.json] [--quick]
//
// Exit code is non-zero unless: the six small tenants' fair-share deviation
// stays within 5% in the economy cell; the economy deadline hit-rate
// strictly beats both baselines; at least one preemption went through the
// checkpoint-migration path; and no cell loses or duplicates a task.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

using namespace integrade;

namespace {

enum class Mode { kEconomy, kFifo, kLoadOnly };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kEconomy: return "economy";
    case Mode::kFifo: return "fifo";
    case Mode::kLoadOnly: return "load-only";
  }
  return "?";
}

struct Scenario {
  int nodes = 14;
  int small_tenants = 6;
  // The greedy batch: one long task per node, checkpointed so preemption
  // migrates work instead of discarding it.
  int greedy_tasks = 14;
  MInstr greedy_work = 1'800'000.0;  // 30 min at 1000 MIPS
  // Each small tenant's stream of short deadline-bid tasks.
  int small_tasks = 100;
  MInstr small_work = 60'000.0;      // 1 min
  SimDuration small_deadline = 40 * kMinute;
  // Fair-share is time-integrated slot-seconds sampled over this window
  // after the small submits — every tenant is still backlogged throughout.
  SimDuration share_window = 25 * kMinute;
};

struct CellResult {
  Mode mode = Mode::kEconomy;
  double hit_rate = 0.0;          // small-tenant tasks done within deadline
  double share_max_dev = 0.0;     // max relative deviation across tenants
  std::vector<long long> window_completions;  // per small tenant
  double small_makespan_s = 0.0;  // last small app completion
  long long preemptions = 0;        // GRM preempt requests sent
  long long tasks_preempted = 0;    // LRM checkpoint-migrations performed
  long long warm_restores = 0;      // successor-side warm prefetches
  long long admission_rejected = 0;
  long long lost = 0;
  long long duplicates = 0;
  bool all_done = false;
};

CellResult run_cell(Mode mode, const Scenario& scenario, std::uint64_t seed) {
  CellResult out;
  out.mode = mode;

  core::Grid grid(seed);

  auto config = core::quiet_cluster(scenario.nodes, seed, 1000.0, "economy");
  config.ckpt.enabled = true;  // the migration data plane (all cells)
  switch (mode) {
    case Mode::kEconomy: {
      config.sched.enabled = true;
      config.sched.preemption = true;
      config.sched.max_preemptions_per_wave = 2;
      config.sched.tenants.push_back({"greedy", 1.0, 0, 0});
      for (int t = 0; t < scenario.small_tenants; ++t) {
        config.sched.tenants.push_back(
            {"user" + std::to_string(t), 1.0, 0, 0});
      }
      break;
    }
    case Mode::kFifo:
      config.grm.default_preference = "first";
      break;
    case Mode::kLoadOnly:
      break;  // FIFO queue, default load-aware preference
  }
  auto& cluster = grid.add_cluster(std::move(config));

  grid.run_for(3 * kMinute);  // announcements land

  // The greedy batch grabs every node first.
  asct::AppBuilder greedy("greedy-batch");
  greedy.tasks(scenario.greedy_tasks, scenario.greedy_work)
      .tenant("greedy")
      .checkpoint_period(30 * kSecond, 256 * kKiB);
  const AppId greedy_app = cluster.asct().submit(
      cluster.grm_ref(), greedy.build(cluster.asct().ref()));
  grid.run_for(kMinute);  // all nodes busy with greedy work

  const SimTime small_submit = grid.engine().now();
  std::vector<AppId> small_apps;
  for (int t = 0; t < scenario.small_tenants; ++t) {
    asct::AppBuilder small("user" + std::to_string(t) + "-stream");
    small.kind(protocol::AppKind::kParametric)
        .tasks(scenario.small_tasks, scenario.small_work)
        .tenant("user" + std::to_string(t))
        .bid(/*budget=*/10.0 + t, scenario.small_deadline);
    small_apps.push_back(cluster.asct().submit(
        cluster.grm_ref(), small.build(cluster.asct().ref())));
  }

  // Fair-share is a statement about concurrently-held slots, so measure it
  // as time-integrated per-tenant occupancy: completion counts quantise (a
  // single task of phase noise at a window edge reads as several percent).
  // The window starts one minute after the burst so the preemption
  // carve-out ramp is excluded — the gate judges steady-state shares; the
  // ramp shows up in hit-rate and makespan instead.
  grid.run_for(kMinute);
  std::vector<long long> slot_seconds(scenario.small_tenants, 0);
  for (SimDuration sampled = 0; sampled < scenario.share_window;
       sampled += kSecond) {
    grid.run_for(kSecond);
    for (int t = 0; t < scenario.small_tenants; ++t) {
      slot_seconds[t] +=
          cluster.grm().running_tasks("user" + std::to_string(t));
    }
  }

  // Run the small streams to completion, then the greedy batch (its
  // preempted tasks resume from checkpoints once nodes free up).
  const SimTime cap = small_submit + 6 * kHour;
  for (const AppId app : small_apps) {
    (void)grid.run_until_app_done(cluster, app, cap);
  }
  (void)grid.run_until_app_done(cluster, greedy_app, cap);
  grid.run_for(kMinute);  // drain stragglers

  // Per-task completion ledger from the raw event stream: a task completing
  // twice (a botched migration) or never (lost in preemption) fails the run.
  const SimTime window_end = small_submit + kMinute + scenario.share_window;
  std::map<std::uint64_t, int> completions;
  std::map<std::uint64_t, long long> window_by_app;
  std::map<std::uint64_t, long long> deadline_hits_by_app;
  for (const auto& event : cluster.asct().events()) {
    if (event.kind != protocol::AppEventKind::kTaskCompleted) continue;
    ++completions[event.task.value];
    if (event.at <= window_end) ++window_by_app[event.app.value];
    if (event.at <= small_submit + scenario.small_deadline) {
      ++deadline_hits_by_app[event.app.value];
    }
  }
  const long long total_tasks =
      scenario.greedy_tasks +
      static_cast<long long>(scenario.small_tenants) * scenario.small_tasks;
  out.lost = total_tasks - static_cast<long long>(completions.size());
  for (const auto& [task, count] : completions) {
    if (count > 1) out.duplicates += count - 1;
  }

  // Deadline hit-rate over all small-tenant tasks.
  long long hits = 0;
  SimTime last_small_done = small_submit;
  out.all_done = cluster.asct().done(greedy_app);
  for (const AppId app : small_apps) {
    hits += deadline_hits_by_app[app.value];
    out.window_completions.push_back(window_by_app[app.value]);
    const auto* progress = cluster.asct().progress(app);
    out.all_done = out.all_done && progress->done;
    last_small_done = std::max(last_small_done, progress->completed_at);
  }
  out.hit_rate = static_cast<double>(hits) /
                 static_cast<double>(scenario.small_tenants *
                                     scenario.small_tasks);
  out.small_makespan_s = to_seconds(last_small_done - small_submit);

  // Fair-share: relative deviation of per-tenant slot-seconds inside the
  // window (equal weights, identical streams — shares should match). A
  // mode that never places small-tenant work in the window (the FIFO and
  // load-only baselines under the greedy batch) scores the full 100%.
  double mean = 0.0;
  for (const long long n : slot_seconds) {
    mean += static_cast<double>(n);
  }
  mean /= static_cast<double>(slot_seconds.size());
  for (const long long n : slot_seconds) {
    const double dev = mean > 0.0
                           ? std::abs(static_cast<double>(n) - mean) / mean
                           : 1.0;
    out.share_max_dev = std::max(out.share_max_dev, dev);
  }

  out.preemptions = cluster.grm().metrics().counter_value("sched_preemptions");
  out.admission_rejected =
      cluster.grm().metrics().counter_value("sched_admission_rejected");
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.tasks_preempted +=
        cluster.lrm(i).metrics().counter_value("tasks_preempted");
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (auto* agent = cluster.ckpt_agent(i)) {
      out.warm_restores += agent->metrics().counter_value("warm_restores");
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_economy.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      json_path = argv[i];
    }
  }

  Scenario scenario;
  if (quick) {
    scenario.greedy_work = 900'000.0;  // 15 min
    scenario.small_tasks = 60;
    scenario.small_work = 30'000.0;    // 30 s
    scenario.small_deadline = 12 * kMinute;
    scenario.share_window = 10 * kMinute;
  }
  const std::uint64_t seed = 18;

  bench::banner("E18", "economy-aware multi-tenant scheduling",
                "a greedy tenant must not starve the grid: weighted "
                "fair-share holds each tenant to its entitlement, deadline "
                "bids schedule EDF, and preemption migrates work via "
                "checkpoints instead of killing it");

  const std::vector<Mode> modes = {Mode::kEconomy, Mode::kFifo,
                                   Mode::kLoadOnly};
  std::vector<CellResult> cells;
  for (Mode mode : modes) {
    cells.push_back(run_cell(mode, scenario, seed));
  }

  bench::Table table({"mode", "hit-rate", "share-dev", "small-mkspan(s)",
                      "preempt", "migrated", "lost", "dup"});
  for (const auto& cell : cells) {
    table.row({mode_name(cell.mode), bench::fmt("%.1f%%", cell.hit_rate * 100),
               bench::fmt("%.1f%%", cell.share_max_dev * 100),
               bench::fmt("%.0f", cell.small_makespan_s),
               bench::fmt("%lld", cell.preemptions),
               bench::fmt("%lld", cell.tasks_preempted),
               bench::fmt("%lld", cell.lost),
               bench::fmt("%lld", cell.duplicates)});
  }

  const CellResult& economy = cells[0];
  const CellResult& fifo = cells[1];
  const CellResult& load_only = cells[2];
  std::printf("\nsmall-tenant completions in the %.0f-minute share window:",
              to_seconds(scenario.share_window) / 60.0);
  for (const long long n : economy.window_completions) {
    std::printf(" %lld", n);
  }
  std::printf("\ndeadline hit-rate: economy=%.1f%% fifo=%.1f%% "
              "load-only=%.1f%%\n",
              economy.hit_rate * 100, fifo.hit_rate * 100,
              load_only.hit_rate * 100);
  std::printf("checkpoint migrations: %lld preempt requests, %lld saved out, "
              "%lld warm restores\n",
              economy.preemptions, economy.tasks_preempted,
              economy.warm_restores);

  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"economy\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"nodes\": %d,\n  \"small_tenants\": %d,\n",
                 scenario.nodes, scenario.small_tenants);
    std::fprintf(f, "  \"tasks_per_small_tenant\": %d,\n",
                 scenario.small_tasks);
    std::fprintf(f, "  \"fair_share_max_dev\": %.4f,\n",
                 economy.share_max_dev);
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"deadline_hit_rate\": %.4f, "
                   "\"share_max_dev\": %.4f, \"small_makespan_s\": %.1f, "
                   "\"preemptions\": %lld, \"tasks_preempted\": %lld, "
                   "\"warm_restores\": %lld, \"admission_rejected\": %lld, "
                   "\"lost_tasks\": %lld, \"duplicate_executions\": %lld, "
                   "\"all_done\": %s}%s\n",
                   mode_name(c.mode), c.hit_rate, c.share_max_dev,
                   c.small_makespan_s, c.preemptions, c.tasks_preempted,
                   c.warm_restores, c.admission_rejected, c.lost,
                   c.duplicates, c.all_done ? "true" : "false",
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "\nwarning: cannot write %s\n", json_path);
  }

  int exit_code = 0;
  if (economy.share_max_dev > 0.05) exit_code = 1;
  if (economy.hit_rate <= fifo.hit_rate ||
      economy.hit_rate <= load_only.hit_rate) {
    exit_code = 1;
  }
  if (economy.preemptions < 1 || economy.tasks_preempted < 1) exit_code = 1;
  for (const auto& cell : cells) {
    if (cell.lost != 0 || cell.duplicates != 0 || !cell.all_done) {
      exit_code = 1;
    }
  }
  std::printf("gate: share_dev=%.1f%% hit=%.1f%% (fifo=%.1f%% load=%.1f%%) "
              "preempt=%lld migrated=%lld lost+dup=%lld -> %s\n",
              economy.share_max_dev * 100, economy.hit_rate * 100,
              fifo.hit_rate * 100, load_only.hit_rate * 100,
              economy.preemptions, economy.tasks_preempted,
              economy.lost + economy.duplicates + fifo.lost + fifo.duplicates +
                  load_only.lost + load_only.duplicates,
              exit_code == 0 ? "PASS" : "FAIL");
  return exit_code;
}
