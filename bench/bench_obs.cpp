// Observability: span coverage and end-to-end latency under chaos (E13).
//
// Runs the E12 chaos stack (crash churn x message loss, resilient ORB,
// standby GRM, checkpointing) with the grid-wide tracer enabled and checks
// that the observability layer actually explains the run:
//
//   coverage     every task that completed has a finished "grm.task" span
//                whose subtree contains the full lifecycle — trader.query,
//                grm.reserve/lrm.reserve, grm.execute/lrm.execute/lrm.run,
//                grm.report — rooted under an "asct.submit" span
//   latency      p50/p99 of submission→completion (the grm.task span
//                duration), gated so a scheduling regression fails the bench
//   determinism  two identical traced runs dump byte-identical JSON lines
//                (span ids come from counters, spans are timed in sim-time)
//
// The trace of the run is written to BENCH_obs_trace.jsonl and one task's
// span tree is printed as a worked example (see docs/observability.md).
//
// Usage: bench_obs [out.json] [--quick]
// Exit code is non-zero if coverage is incomplete, the latency gate fails,
// the ring dropped spans, or the two traced runs diverge.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "obs/obs.hpp"
#include "protocol/trace_names.hpp"
#include "sim/faults.hpp"

using namespace integrade;

namespace {

struct Scenario {
  int nodes = 40;
  int tasks = 24;
  MInstr work = 300'000.0;  // five minutes per task at 1000 MIPS
  double crash_per_node_per_min = 0.01;
  double loss = 0.02;
  SimDuration deadline = 40 * kMinute;
};

struct RunResult {
  int completed = 0;
  int covered = 0;  // completed tasks with a full lifecycle span tree
  std::vector<double> latency_s;  // grm.task durations, completed tasks
  std::size_t spans = 0;
  std::uint64_t dropped = 0;
  std::string jsonl;        // full trace dump, written to disk
  std::string fingerprint;  // normalised trace (determinism check)
  std::string example_tree;  // rendered span tree of one completed task
  double duty_cycle_mean = 0.0;
  std::int64_t loss_drops = 0;
  std::int64_t crashes = 0;
};

core::ClusterConfig resilient_cluster(int nodes) {
  auto config = core::quiet_cluster(nodes, /*seed=*/77, 1000.0, "obs");
  config.orb.request_retries = 3;
  config.standby = core::Standby::kHeartbeat;
  return config;
}

/// Render `span` and its descendants as an indented tree.
void render_tree(const std::vector<obs::Span>& spans,
                 const std::multimap<std::uint64_t, std::size_t>& children,
                 std::size_t index, int depth, std::string& out) {
  const obs::Span& s = spans[index];
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += bench::fmt("%s [%lld..%lld us]", s.name,
                    static_cast<long long>(s.start),
                    static_cast<long long>(s.end));
  if (s.node != 0) out += bench::fmt(" n%llu",
                                     static_cast<unsigned long long>(s.node));
  if (!s.note.empty()) out += " " + s.note;
  out += '\n';
  auto [lo, hi] = children.equal_range(s.span_id);
  for (auto it = lo; it != hi; ++it) {
    render_tree(spans, children, it->second, depth + 1, out);
  }
}

RunResult run_traced(const Scenario& scenario, std::uint64_t seed) {
  RunResult out;

  core::Grid grid(seed);
  // Capacity far above the span volume of this scenario: the analyzer
  // needs the complete trace, so dropped() must stay 0.
  grid.tracer().enable(/*capacity=*/1u << 18);
  auto& cluster = grid.add_cluster(resilient_cluster(scenario.nodes));

  sim::FaultInjector faults(grid.engine(), grid.network(),
                            Rng(seed ^ 0xfeedfacecafef00dULL));
  grid.metrics_hub().add_source(
      "faults", [&faults](MetricRegistry& reg) { faults.export_metrics(reg); });
  std::unordered_map<orb::NodeAddress, std::size_t> worker_by_endpoint;
  std::vector<sim::EndpointId> pool;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    worker_by_endpoint[cluster.worker_address(i)] = i;
    pool.push_back(cluster.worker_address(i));
  }
  faults.set_endpoint_handlers(
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
  faults.set_loss(scenario.loss);
  if (scenario.crash_per_node_per_min > 0.0) {
    faults.enable_crash_churn(
        pool,
        scenario.crash_per_node_per_min * static_cast<double>(pool.size()),
        /*mean_downtime=*/kMinute,
        /*until=*/grid.engine().now() + 3 * kMinute + scenario.deadline);
  }

  grid.run_for(3 * kMinute);  // info updates populate the Trader

  asct::AppBuilder builder("obs");
  builder.kind(protocol::AppKind::kParametric)
      .tasks(scenario.tasks, scenario.work)
      .checkpoint_period(kMinute, 64 * kKiB)
      .estimated_duration(5 * kMinute);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  const SimTime t0 = grid.engine().now();
  (void)grid.run_until_app_done(cluster, app, t0 + scenario.deadline);
  grid.run_for(30 * kSecond);  // drain in-flight traffic

  // Which tasks completed, per the ASCT's event ledger.
  std::set<std::uint64_t> completed_tasks;
  for (const auto& event : cluster.asct().events()) {
    if (event.kind == protocol::AppEventKind::kTaskCompleted) {
      completed_tasks.insert(event.task.value);
    }
  }
  out.completed = static_cast<int>(completed_tasks.size());

  const obs::TraceLog* log = grid.tracer().log();
  out.spans = log->size();
  out.dropped = log->dropped();
  out.jsonl = log->to_jsonl();

  // Index the trace: span id -> span, parent id -> children.
  const std::vector<obs::Span> spans = log->snapshot();

  // Determinism fingerprint. Span/trace ids are tracer-local counters and
  // node ids are grid-local, so both replay identically; app and task ids
  // come from process-global counters, so they are remapped to
  // first-appearance indices before comparing runs.
  {
    std::unordered_map<std::uint64_t, std::size_t> app_idx, task_idx;
    auto norm = [](std::unordered_map<std::uint64_t, std::size_t>& m,
                   std::uint64_t v) -> std::size_t {
      if (v == 0) return 0;
      return m.emplace(v, m.size() + 1).first->second;
    };
    for (const obs::Span& s : spans) {
      out.fingerprint += bench::fmt(
          "%llu %llu %llu %s %lld %lld a%zu t%zu n%llu %s\n",
          static_cast<unsigned long long>(s.trace_id),
          static_cast<unsigned long long>(s.span_id),
          static_cast<unsigned long long>(s.parent_id), s.name,
          static_cast<long long>(s.start), static_cast<long long>(s.end),
          norm(app_idx, s.app), norm(task_idx, s.task),
          static_cast<unsigned long long>(s.node), s.note.c_str());
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::multimap<std::uint64_t, std::size_t> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace(spans[i].span_id, i);
    if (spans[i].parent_id != 0) children.emplace(spans[i].parent_id, i);
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    if (std::strcmp(s.name, protocol::kSpanGrmTask) != 0) continue;
    if (s.note != "completed" || !completed_tasks.contains(s.task)) continue;
    out.latency_s.push_back(static_cast<double>(s.end - s.start) /
                            static_cast<double>(kSecond));

    // Root chain: grm.task -> grm.submit -> asct.submit (parent 0).
    bool rooted = false;
    std::uint64_t up = s.parent_id;
    for (int hops = 0; up != 0 && hops < 8; ++hops) {
      auto it = by_id.find(up);
      if (it == by_id.end()) break;
      if (std::strcmp(spans[it->second].name, protocol::kSpanAsctSubmit) == 0) {
        rooted = spans[it->second].parent_id == 0;
        break;
      }
      up = spans[it->second].parent_id;
    }

    // Lifecycle coverage: walk the grm.task subtree and collect span names.
    std::set<std::string> names;
    std::vector<std::uint64_t> stack{s.span_id};
    while (!stack.empty()) {
      const std::uint64_t id = stack.back();
      stack.pop_back();
      auto [lo, hi] = children.equal_range(id);
      for (auto it = lo; it != hi; ++it) {
        names.insert(spans[it->second].name);
        stack.push_back(spans[it->second].span_id);
      }
    }
    const bool full = rooted &&
                      names.contains(protocol::kSpanTraderQuery) &&
                      names.contains(protocol::kSpanGrmReserve) &&
                      names.contains(protocol::kSpanLrmReserve) &&
                      names.contains(protocol::kSpanGrmExecute) &&
                      names.contains(protocol::kSpanLrmExecute) &&
                      names.contains(protocol::kSpanLrmRun) &&
                      names.contains(protocol::kSpanGrmReport);
    if (full) ++out.covered;
    if (full && out.example_tree.empty()) {
      render_tree(spans, children, i, 0, out.example_tree);
    }
  }

  // Metrics-hub spot checks: harvest duty cycle (mean across providers) and
  // the fault counters, read back through the hub like a dashboard would.
  const auto collected = grid.metrics_hub().collect();
  double duty_sum = 0.0;
  int duty_count = 0;
  for (const auto& [name, registry] : collected) {
    if (name.rfind("lrm/", 0) == 0) {
      auto it = registry.summaries().find("harvest_duty_cycle");
      if (it != registry.summaries().end() && it->second.count() > 0) {
        duty_sum += it->second.mean();
        ++duty_count;
      }
    }
  }
  out.duty_cycle_mean = duty_count > 0 ? duty_sum / duty_count : 0.0;
  if (auto it = collected.find("faults"); it != collected.end()) {
    out.loss_drops = it->second.counter_value("loss_drops");
    out.crashes = it->second.counter_value("crashes");
  }
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_obs.json";
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
    scenario.nodes = 24;
    scenario.tasks = 12;
  }
  const std::uint64_t seed = 11;

  bench::banner("E13", "tracing and metrics under chaos",
                "a span tree must explain every completed task end to end — "
                "submission, trader query, negotiation, execution, report — "
                "and the trace itself must be deterministic");

  const auto run1 = run_traced(scenario, seed);
  const auto run2 = run_traced(scenario, seed);
  const bool deterministic = run1.fingerprint == run2.fingerprint;

  const double p50 = percentile(run1.latency_s, 0.50);
  const double p99 = percentile(run1.latency_s, 0.99);

  bench::Table table({"metric", "value"});
  table.row({"tasks completed", bench::fmt("%d/%d", run1.completed,
                                           scenario.tasks)});
  table.row({"full lifecycle coverage",
             bench::fmt("%d/%d", run1.covered, run1.completed)});
  table.row({"latency p50 (s)", bench::fmt("%.1f", p50)});
  table.row({"latency p99 (s)", bench::fmt("%.1f", p99)});
  table.row({"spans", bench::fmt("%zu", run1.spans)});
  table.row({"spans dropped", bench::fmt("%llu",
             static_cast<unsigned long long>(run1.dropped))});
  table.row({"trace deterministic", deterministic ? "yes" : "NO"});
  table.row({"harvest duty cycle", bench::fmt("%.3f", run1.duty_cycle_mean)});
  table.row({"fault crashes", bench::fmt("%lld",
             static_cast<long long>(run1.crashes))});
  table.row({"fault loss drops", bench::fmt("%lld",
             static_cast<long long>(run1.loss_drops))});

  if (!run1.example_tree.empty()) {
    std::printf("\nexample task span tree:\n%s", run1.example_tree.c_str());
  }

  if (FILE* f = std::fopen("BENCH_obs_trace.jsonl", "w")) {
    std::fputs(run1.jsonl.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_obs_trace.jsonl (%zu spans)\n", run1.spans);
  }

  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"name\": \"obs\",\n");
    std::fprintf(f,
                 "  \"config\": {\"nodes\": %d, \"tasks\": %d, "
                 "\"crash_per_node_per_min\": %.3f, \"loss\": %.3f, "
                 "\"quick\": %s},\n",
                 scenario.nodes, scenario.tasks,
                 scenario.crash_per_node_per_min, scenario.loss,
                 quick ? "true" : "false");
    std::fprintf(f,
                 "  \"metrics\": {\"completed\": %d, \"covered\": %d, "
                 "\"latency_p50_s\": %.2f, \"latency_p99_s\": %.2f, "
                 "\"spans\": %zu, \"spans_dropped\": %llu, "
                 "\"deterministic\": %s, \"harvest_duty_cycle\": %.4f}\n",
                 run1.completed, run1.covered, p50, p99, run1.spans,
                 static_cast<unsigned long long>(run1.dropped),
                 deterministic ? "true" : "false", run1.duty_cycle_mean);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path);
  }

  // Acceptance gates. The latency ceiling is deliberately loose — tasks are
  // ~300 s of work and the deadline is 2400 s; p99 beyond 1800 s means the
  // scheduler stopped recovering, not that the run was merely unlucky.
  int exit_code = 0;
  if (run1.completed == 0) exit_code = 1;
  if (run1.covered != run1.completed) exit_code = 1;
  if (run1.dropped != 0) exit_code = 1;
  if (!deterministic) exit_code = 1;
  if (p99 > 1800.0) exit_code = 1;
  std::printf("gate: coverage=%d/%d p50=%.1fs p99=%.1fs (limit 1800s) "
              "dropped=%llu deterministic=%s -> %s\n",
              run1.covered, run1.completed, p50, p99,
              static_cast<unsigned long long>(run1.dropped),
              deterministic ? "yes" : "no", exit_code == 0 ? "PASS" : "FAIL");
  return exit_code;
}
