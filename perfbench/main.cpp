// perfbench_rep: one repetition of one benchmark workload.
//
//   perfbench_rep --workload <name> --seed <n> [--trace] [--break-ledger]
//
// Builds the workload's grid from the seed (set-up), runs its measured
// phase, checks correctness, and prints one JSON object on stdout:
// end-to-end metrics, the output digest, the completion ledger totals and
// the host calibration. With --trace the measured phase is stepped one
// event at a time and the layer probes run afterwards; the simulation — and
// so the digest — must not change. perfbench/run.py repeats this process
// and aggregates; every repetition is a fresh process because app and task
// ids come from process-wide counters.
//
// --break-ledger duplicates one completion in the ledger input; the ledger
// check must then fail (the self-tests use it). Exit status: 0 when every
// check passed, 1 when a correctness check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "asct/asct.hpp"
#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace integrade;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------------
// Digest: FNV-1a over a canonical rendering of the run's outputs.
// ---------------------------------------------------------------------------

class Digest {
 public:
  void add(const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  void add(std::int64_t v) { add(std::to_string(v)); }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    add(std::string(buf));
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hub contents minus the two host-time readings the middleware records
/// itself (GRM trader_query_us wall time, engine commit_ns): their counts
/// stay in, their values would differ on every run.
void digest_hub(const obs::MetricsHub& hub, Digest& d) {
  for (const auto& [source, registry] : hub.collect()) {
    d.add(source);
    for (const auto& [name, counter] : registry.counters()) {
      if (name == "sim.commit_ns") continue;
      d.add(name);
      d.add(counter.value());
    }
    for (const auto& [name, summary] : registry.summaries()) {
      d.add(name);
      d.add(summary.count());
      if (name == "trader_query_us") continue;
      d.add(summary.mean());
      d.add(summary.min());
      d.add(summary.max());
      d.add(summary.percentile(0.5));
      d.add(summary.percentile(0.99));
    }
  }
}

// ---------------------------------------------------------------------------
// Exactly-once completion ledger, built from the ASCT event stream.
// ---------------------------------------------------------------------------

struct Ledger {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;   // tasks completed exactly once
  std::int64_t lost = 0;        // never completed (includes unfinished at cap)
  std::int64_t duplicated = 0;  // extra completions of a task
  std::int64_t rejected = 0;    // tasks of apps the GRM refused
  std::vector<double> turnaround_s;
  double makespan_s = 0.0;
  std::int64_t bid_tasks = 0;
  std::int64_t bid_hits = 0;

  [[nodiscard]] std::int64_t failed() const { return lost + duplicated + rejected; }
};

Ledger build_ledger(const pb::WorkloadRun& run,
                    const std::vector<protocol::AppEvent>& events, Digest& d) {
  std::map<std::uint64_t, std::vector<const protocol::AppEvent*>> completions;
  for (const auto& event : events) {
    if (event.kind == protocol::AppEventKind::kTaskCompleted) {
      completions[event.task.value].push_back(&event);
    }
  }
  Ledger ledger;
  asct::Asct& asct = run.cluster->asct();
  SimTime first_submit = kTimeNever;
  SimTime last_done = 0;
  for (const pb::Submission& sub : run.apps) {
    first_submit = std::min(first_submit, sub.at);
    const asct::AppProgress* progress = asct.progress(sub.app);
    const auto tasks = progress != nullptr ? progress->spec.tasks.size() : 0;
    ledger.submitted += static_cast<std::int64_t>(tasks);
    if (progress == nullptr || !progress->accepted) {
      ledger.rejected += static_cast<std::int64_t>(tasks);
      continue;
    }
    if (progress->done) last_done = std::max(last_done, progress->completed_at);
    for (const auto& task : progress->spec.tasks) {
      // BSP ranks report no per-task completion: the coordinator finishes
      // the whole app at once, so each rank completes with the app.
      SimTime done_at = kTimeNever;
      std::size_t count = 0;
      if (sub.bsp) {
        if (progress->done) {
          done_at = progress->completed_at;
          count = 1;
        }
      } else if (auto it = completions.find(task.id.value); it != completions.end()) {
        done_at = it->second.front()->at;
        count = it->second.size();
      }
      d.add(static_cast<std::int64_t>(task.id.value));
      d.add(static_cast<std::int64_t>(count));
      d.add(done_at);
      if (count == 0) {
        ++ledger.lost;
        continue;
      }
      ++ledger.completed;
      ledger.duplicated += static_cast<std::int64_t>(count) - 1;
      const SimDuration turnaround = done_at - sub.at;
      ledger.turnaround_s.push_back(to_seconds(turnaround));
      if (sub.deadline > 0) {
        ++ledger.bid_tasks;
        if (turnaround <= sub.deadline) ++ledger.bid_hits;
      }
    }
  }
  if (first_submit != kTimeNever && last_done > first_submit) {
    ledger.makespan_s = to_seconds(last_done - first_submit);
  }
  std::sort(ledger.turnaround_s.begin(), ledger.turnaround_s.end());
  return ledger;
}

/// Nearest-rank percentile of sorted values.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, idx == 0 ? 0 : idx - 1)];
}

/// Highest percentile of the ladder that leaves at least ten samples above.
double tail_quantile(std::size_t samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

// ---------------------------------------------------------------------------
// Host calibration: a fixed pointer chase over 4 MiB plus integer mixing, so
// numbers from different hosts can be normalised. Best of three.
// ---------------------------------------------------------------------------

double host_calibration_ns() {
  constexpr std::size_t kWords = 1 << 20;
  std::vector<std::uint32_t> next(kWords);
  for (std::size_t i = 0; i < kWords; ++i) next[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kWords - 1; i > 0; --i) {  // Sattolo: one cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const std::int64_t begin = pb::host_ns();
    std::uint32_t at = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < 500'000; ++i) {
      at = next[at];
      acc = (acc ^ at) * 0x100000001b3ULL;
    }
    const auto elapsed = static_cast<double>(pb::host_ns() - begin);
    asm volatile("" : : "r"(acc));  // keep the loop observable
    best = round == 0 ? elapsed : std::min(best, elapsed);
  }
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metrics(const char* key, const std::vector<pb::Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": [%.17g, \"%s\"]", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_rep --workload <name> --seed <n> [--trace] "
               "[--break-ledger]\nworkloads:");
  for (const auto& w : pb::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = pb::host_ns();
  const pb::Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  bool break_ledger = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      for (const auto& w : pb::workloads()) {
        if (std::strcmp(w.name, name) == 0) workload = &w;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--break-ledger") == 0) {
      break_ledger = true;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !have_seed) return usage();

  // ---- set-up ----
  pb::WorkloadRun run = workload->setup(seed);
  const std::int64_t phase_begin = pb::host_ns();

  // ---- measured phase ----
  pb::Runner runner(*run.grid, trace);
  workload->measure(run, runner);
  const std::int64_t phase_end = pb::host_ns();
  const double rss_mb = peak_rss_mb();
  const double setup_s = static_cast<double>(phase_begin - process_start) / 1e9;
  const double wall_s = static_cast<double>(phase_end - phase_begin) / 1e9;

  // ---- correctness and modelled outcomes ----
  core::Grid& grid = *run.grid;
  core::Cluster& cluster = *run.cluster;
  Digest digest;
  digest_hub(grid.metrics_hub(), digest);
  const sim::NetworkStats net = grid.network().stats();
  digest.add(net.messages);
  digest.add(net.bytes);
  digest.add(grid.engine().events_fired());
  std::vector<protocol::AppEvent> events = cluster.asct().events();
  if (break_ledger) {
    for (const auto& event : cluster.asct().events()) {
      if (event.kind == protocol::AppEventKind::kTaskCompleted) {
        events.push_back(event);
        break;
      }
    }
  }
  const Ledger ledger = build_ledger(run, events, digest);
  const Status trader_ok = cluster.grm().trader().check_invariants();
  const bool ledger_ok = ledger.failed() == 0 && ledger.submitted > 0;
  bool ok = ledger_ok && trader_ok.is_ok();
  if (!trader_ok.is_ok()) {
    std::fprintf(stderr, "trader invariant broken: %s\n",
                 trader_ok.to_string().c_str());
  }
  if (!ledger_ok) {
    std::fprintf(stderr,
                 "ledger: submitted=%lld completed=%lld lost=%lld "
                 "duplicated=%lld rejected=%lld\n",
                 static_cast<long long>(ledger.submitted),
                 static_cast<long long>(ledger.completed),
                 static_cast<long long>(ledger.lost),
                 static_cast<long long>(ledger.duplicated),
                 static_cast<long long>(ledger.rejected));
  }

  const auto& gm = cluster.grm().metrics();
  const double phase_sim_s = to_seconds(run.phase_end - run.phase_start);
  const double rounds = static_cast<double>(gm.counter_value("negotiation_rounds"));
  const double refused =
      static_cast<double>(gm.counter_value("reservations_refused_remote") +
                          gm.counter_value("negotiation_timeouts") +
                          gm.counter_value("executes_failed"));
  const double tail_q = tail_quantile(ledger.turnaround_s.size());

  std::vector<pb::Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"wire_bytes_per_node_s",
       phase_sim_s > 0
           ? static_cast<double>(net.bytes - run.net_bytes_before) /
                 static_cast<double>(cluster.size()) / phase_sim_s
           : 0.0,
       "B"},
      {"turnaround_p50_s", percentile(ledger.turnaround_s, 0.5), "s"},
      {"turnaround_tail_s", percentile(ledger.turnaround_s, tail_q), "s"},
      {"makespan_s", ledger.makespan_s, "s"},
      {"tasks_failed_frac",
       ledger.submitted > 0 ? static_cast<double>(ledger.failed()) /
                                  static_cast<double>(ledger.submitted)
                            : 1.0,
       "ratio"},
      {"refusal_frac", rounds > 0 ? refused / rounds : 0.0, "ratio"},
  };
  if (ledger.bid_tasks > 0) {
    e2e.push_back({"deadline_hit_frac",
                   static_cast<double>(ledger.bid_hits) /
                       static_cast<double>(ledger.bid_tasks),
                   "ratio"});
  }
  std::vector<pb::Metric> info = {
      {"turnaround_tail_pct", tail_q * 100.0, "%"},
      {"turnaround_samples", static_cast<double>(ledger.turnaround_s.size()), "count"},
      {"sim_events", static_cast<double>(grid.engine().events_fired()), "count"},
      {"phase_sim_s", phase_sim_s, "s"},
      {"nodes", static_cast<double>(cluster.size()), "count"},
  };

  // ---- host calibration (after the measured phase: not part of set-up) ----
  const double calib_ns = host_calibration_ns();

  // ---- layer probes (traced repetitions only; after the digest) ----
  std::vector<pb::Metric> layers;
  if (trace) pb::run_probes(run, runner, wall_s, layers);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, "
              "\"correct\": %s, \"digest\": \"%s\", \"attempted\": %lld, "
              "\"failed\": %lld, \"host_calib_ns\": %.17g, \"host_cores\": %u, "
              "\"build_type\": \"%s\", ",
              workload->name, static_cast<unsigned long long>(seed),
              trace ? "true" : "false", ok ? "true" : "false",
              digest.hex().c_str(), static_cast<long long>(ledger.submitted),
              static_cast<long long>(ledger.failed()), calib_ns,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
  print_metrics("e2e", e2e);
  std::printf(", ");
  print_metrics("info", info);
  std::printf(", ");
  print_metrics("layers", layers);
  std::printf("}\n");
  std::fflush(stdout);
  // Skip the grid's teardown: it is not part of any measurement, and the
  // process exit reclaims everything at once.
  std::_Exit(ok ? 0 : 1);
}
