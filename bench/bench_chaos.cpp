// Chaos resilience: completion under crash churn x message loss.
//
// The paper's target environment is "commodity workstations ... shared with
// their owners", so nodes vanish without warning and the control plane runs
// over a best-effort network. This bench drives the full stack (GRM, LRMs,
// ASCT, checkpointing, the resilient ORB) through a grid of crash-rate x
// loss-rate cells and reports, per cell:
//
//   completion   fraction of tasks finished before the deadline
//   mean-ttr     mean time-to-recover: eviction/node-failure to the task's
//                next placement (seconds)
//   duplicates   tasks the GRM saw complete twice (must stay 0 — the
//                at-most-once ORB plus report guards exist for this)
//   wasted       extra work executed beyond one clean run of every task
//                (re-execution after crashes, bounded by checkpoints)
//
// A no-fault cell is run twice — without a FaultInjector, and with one
// attached but every rate zero — and their event traces are compared:
// attaching the (disabled) injector must not change behaviour at all.
//
// Usage: bench_chaos [out.json] [--quick] [--trace-dump FILE]
//
// --trace-dump writes the normalised ASCT event log of every cell: for a
// fixed seed two runs produce byte-identical files (CI diffs them).
//
// Exit code is non-zero if the 2%/min-crash + 5%-loss cell completes < 95%
// of tasks, sees any duplicate completion, or the no-fault traces differ.
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "sim/faults.hpp"

using namespace integrade;

namespace {

struct CellResult {
  double crash_per_node_per_min = 0.0;
  double loss = 0.0;
  double completion = 0.0;
  double mean_ttr_s = 0.0;
  std::int64_t duplicates = 0;
  double wasted_frac = 0.0;
  std::string trace;  // normalised ASCT event log (determinism fingerprint)
};

struct Scenario {
  int nodes = 60;
  int tasks = 40;
  // Five minutes per task at 1000 MIPS: long enough that the churn process
  // reliably kills nodes mid-execution instead of between tasks.
  MInstr work = 300'000.0;
  SimDuration deadline = 40 * kMinute;
};

core::ClusterConfig resilient_cluster(int nodes) {
  auto config = core::quiet_cluster(nodes, /*seed=*/77, 1000.0, "chaos");
  // Three retransmits spaced 1 s apart all fit inside the 5 s call
  // deadline; at 5% loss a request survives with probability 1 - 0.05^4.
  config.orb.request_retries = 3;
  config.standby = core::Standby::kHeartbeat;
  return config;
}

CellResult run_cell(const Scenario& scenario, double crash_per_node_per_min,
                    double loss, std::uint64_t seed, bool attach_injector) {
  CellResult out;
  out.crash_per_node_per_min = crash_per_node_per_min;
  out.loss = loss;

  core::Grid grid(seed);
  auto& cluster = grid.add_cluster(resilient_cluster(scenario.nodes));

  std::optional<sim::FaultInjector> faults;
  if (attach_injector) {
    faults.emplace(grid.engine(), grid.network(),
                   Rng(seed ^ 0xfeedfacecafef00dULL));
    std::unordered_map<orb::NodeAddress, std::size_t> worker_by_endpoint;
    std::vector<sim::EndpointId> pool;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      worker_by_endpoint[cluster.worker_address(i)] = i;
      pool.push_back(cluster.worker_address(i));
    }
    faults->set_endpoint_handlers(
        [&cluster, worker_by_endpoint](sim::EndpointId ep) {
          if (auto it = worker_by_endpoint.find(ep);
              it != worker_by_endpoint.end()) {
            cluster.lrm(it->second).crash();
          }
        },
        [&cluster, worker_by_endpoint](sim::EndpointId ep) {
          if (auto it = worker_by_endpoint.find(ep);
              it != worker_by_endpoint.end()) {
            cluster.lrm(it->second).restart();
          }
        });
    faults->set_loss(loss);
    if (crash_per_node_per_min > 0.0) {
      faults->enable_crash_churn(
          pool, crash_per_node_per_min * static_cast<double>(pool.size()),
          /*mean_downtime=*/kMinute,
          /*until=*/grid.engine().now() + 3 * kMinute + scenario.deadline);
    }
  }

  grid.run_for(3 * kMinute);  // info updates populate the Trader

  asct::AppBuilder builder("chaos");
  builder.kind(protocol::AppKind::kParametric)
      .tasks(scenario.tasks, scenario.work)
      .checkpoint_period(kMinute, 64 * kKiB)
      .estimated_duration(5 * kMinute);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  const SimTime t0 = grid.engine().now();
  (void)grid.run_until_app_done(cluster, app, t0 + scenario.deadline);
  // A retransmitted per-task notification can arrive after the app-done
  // event that ended the loop above; drain in-flight traffic before
  // reading the ledger.
  grid.run_for(30 * kSecond);

  const auto* progress = cluster.asct().progress(app);
  const int completed = progress != nullptr ? progress->completed : 0;
  out.completion =
      static_cast<double>(completed) / static_cast<double>(scenario.tasks);
  out.duplicates =
      cluster.grm().metrics().counter_value("duplicate_reports_ignored");

  // Time-to-recover: per task, eviction/node-failure until its next
  // placement. App/task ids are process-global, so the fingerprint uses
  // first-appearance indices instead of raw values.
  std::map<std::uint64_t, SimTime> evicted_at;
  std::map<std::uint64_t, int> completions;
  SimDuration ttr_total = 0;
  int ttr_samples = 0;
  std::ostringstream trace;
  std::unordered_map<std::uint64_t, std::size_t> task_index;
  for (const auto& event : cluster.asct().events()) {
    switch (event.kind) {
      case protocol::AppEventKind::kTaskEvicted:
        evicted_at.emplace(event.task.value, event.at);
        break;
      case protocol::AppEventKind::kTaskScheduled:
        if (auto it = evicted_at.find(event.task.value);
            it != evicted_at.end()) {
          ttr_total += event.at - it->second;
          ++ttr_samples;
          evicted_at.erase(it);
        }
        break;
      case protocol::AppEventKind::kTaskCompleted:
        ++completions[event.task.value];
        break;
      default:
        break;
    }
    const auto [it, inserted] =
        task_index.emplace(event.task.value, task_index.size());
    trace << event.at << ' ' << protocol::app_event_kind_name(event.kind)
          << " t" << it->second << " n" << event.node.value << '\n';
  }
  // A second completion event for the same task is a duplicate execution
  // even if the GRM's own counter somehow missed it.
  for (const auto& [task, count] : completions) {
    if (count > 1) out.duplicates += count - 1;
  }
  out.trace = trace.str();
  out.mean_ttr_s = ttr_samples > 0 ? static_cast<double>(ttr_total) /
                                         static_cast<double>(ttr_samples) /
                                         static_cast<double>(kSecond)
                                   : 0.0;

  const double ideal = static_cast<double>(scenario.tasks) * scenario.work;
  const double done = cluster.total_work_done();
  out.wasted_frac = done > ideal ? (done - ideal) / ideal : 0.0;
  // Name every stuck task on stderr, so a failing E12 gate says which tasks
  // never completed and what last happened to each.
  if (out.completion < 1.0) {
    std::map<std::uint64_t, std::string> last;
    for (const auto& event : cluster.asct().events()) {
      last[event.task.value] =
          bench::fmt("%s n%llu at %lld",
                     protocol::app_event_kind_name(event.kind),
                     static_cast<unsigned long long>(event.node.value),
                     static_cast<long long>(event.at));
    }
    for (const auto& [task, count] : completions) last.erase(task);
    for (const auto& [task, desc] : last) {
      std::fprintf(stderr, "stuck task %llu: last event %s\n",
                   static_cast<unsigned long long>(task), desc.c_str());
    }
    for (const char* counter :
         {"tasks_completed", "tasks_node_failed", "stale_reports_ignored",
          "placements_discarded", "duplicate_reports_ignored", "evictions"}) {
      std::fprintf(stderr, "grm %s=%lld\n", counter,
                   static_cast<long long>(
                       cluster.grm().metrics().counter_value(counter)));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_chaos.json";
  const char* trace_dump_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--trace-dump") == 0 && i + 1 < argc) {
      trace_dump_path = argv[++i];
    } else {
      json_path = argv[i];
    }
  }

  Scenario scenario;
  if (quick) {
    scenario.nodes = 40;
    scenario.tasks = 24;
  }
  const std::uint64_t seed = 11;

  bench::banner("E12", "chaos resilience: crash churn x message loss",
                "idle desktop grids lose nodes without warning; the "
                "middleware must finish every application anyway, exactly "
                "once, without a reliable network");

  // Disabled-injector identity: attaching a FaultInjector with every rate
  // zero must not perturb the simulation at all.
  const auto bare = run_cell(scenario, 0.0, 0.0, seed, /*attach=*/false);
  const auto zeroed = run_cell(scenario, 0.0, 0.0, seed, /*attach=*/true);
  const bool no_fault_identical = bare.trace == zeroed.trace;
  std::printf("no-fault trace identical with injector attached: %s\n\n",
              no_fault_identical ? "yes" : "NO — REGRESSION");

  const std::vector<double> crash_rates =
      quick ? std::vector<double>{0.0, 0.02}
            : std::vector<double>{0.0, 0.01, 0.02};
  const std::vector<double> loss_rates =
      quick ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.02, 0.05};

  bench::Table table(
      {"crash/node/min", "loss", "completion", "mean-ttr(s)", "duplicates",
       "wasted"});
  std::vector<CellResult> cells;
  for (const double crash : crash_rates) {
    for (const double loss : loss_rates) {
      auto cell = run_cell(scenario, crash, loss, seed, /*attach=*/true);
      table.row({bench::fmt("%.0f%%", crash * 100), bench::fmt("%.0f%%", loss * 100),
                 bench::fmt("%.1f%%", cell.completion * 100),
                 bench::fmt("%.1f", cell.mean_ttr_s),
                 bench::fmt("%lld", static_cast<long long>(cell.duplicates)),
                 bench::fmt("%.2f%%", cell.wasted_frac * 100)});
      cells.push_back(std::move(cell));
    }
  }

  if (trace_dump_path != nullptr) {
    // Byte-diffable determinism artifact: the normalised ASCT event log of
    // every cell, in run order.
    if (FILE* f = std::fopen(trace_dump_path, "w")) {
      std::fprintf(f, "=== bare ===\n%s", bare.trace.c_str());
      std::fprintf(f, "=== zeroed ===\n%s", zeroed.trace.c_str());
      for (const auto& cell : cells) {
        std::fprintf(f, "=== crash=%.3f loss=%.3f ===\n%s",
                     cell.crash_per_node_per_min, cell.loss,
                     cell.trace.c_str());
      }
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_dump_path);
    }
  }

  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"chaos\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"no_fault_identical\": %s,\n",
                 no_fault_identical ? "true" : "false");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      std::fprintf(f,
                   "    {\"crash_per_node_per_min\": %.3f, \"loss\": %.3f, "
                   "\"completion_rate\": %.4f, \"mean_ttr_s\": %.2f, "
                   "\"duplicate_executions\": %lld, \"wasted_work_frac\": "
                   "%.4f}%s\n",
                   c.crash_per_node_per_min, c.loss, c.completion,
                   c.mean_ttr_s, static_cast<long long>(c.duplicates),
                   c.wasted_frac, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "\nwarning: cannot write %s\n", json_path);
  }

  // Acceptance gate: the hardest cell must complete >= 95% of tasks with
  // zero duplicate executions, and the disabled injector must be free.
  int exit_code = no_fault_identical ? 0 : 1;
  for (const auto& cell : cells) {
    if (cell.crash_per_node_per_min == 0.02 && cell.loss == 0.05) {
      if (cell.completion < 0.95 || cell.duplicates != 0) exit_code = 1;
      std::printf("gate (2%%/min crash, 5%% loss): completion=%.1f%% "
                  "duplicates=%lld -> %s\n",
                  cell.completion * 100,
                  static_cast<long long>(cell.duplicates),
                  exit_code == 0 ? "PASS" : "FAIL");
    }
  }
  return exit_code;
}
