// E5 — Usage-pattern-aware scheduling vs load-only vs random.
//
// The paper's central scheduling claim (§3/§4): usage patterns let the GRM
// "place applications on idle nodes with lower probability of becoming
// busy before the computation is completed". This bench runs the identical
// workload on the identical campus under three candidate-ranking policies:
//
//   integrade  : Trader constraint + GUPA forecast re-ranking (the paper)
//   load-only  : Trader constraint + max exportable_mips, no forecast
//                (what a matchmaker sees from instantaneous load — the
//                 Condor-style view)
//   random     : any currently idle node
//
// Tasks are ~90-minute jobs submitted at 08:15 — long enough that any task
// placed on an office desk is still running when its owner arrives at
// 09:00. Metrics: evictions, wasted (replayed) work, and batch makespan.
//
// Usage: bench_forecast_sched [--quick]
//
// The full run averages seeds 505-507; --quick runs seed 505 only, with the
// same three policies and the same gate. Exit code is non-zero unless the
// LUPA-aware policy suffers no more evictions than load-only.
#include <cstdio>
#include <cstring>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"

using namespace integrade;

namespace {

struct Outcome {
  int completed = 0;
  int evictions = 0;
  double wasted_minstr = 0;
  double makespan_min = 0;
};

Outcome run(bool use_forecast, const std::string& preference,
            std::uint64_t seed) {
  core::Grid grid(seed);
  core::CampusMix mix;
  mix.office_workers = 30;
  mix.lab_machines = 30;
  mix.nocturnal = 12;   // asleep during the day: safe daytime hosts
  mix.mostly_idle = 12; // spare boxes: safe all day
  mix.busy_servers = 4;
  auto config = core::campus_cluster(mix, seed);
  config.grm.use_forecast = use_forecast;
  config.grm.default_preference = preference;
  auto& cluster = grid.add_cluster(std::move(config));

  // Two training weeks, then submit at 08:15 Monday of week 3 — 45 min
  // before the campus wakes; a forecast that sees past 09:00 matters.
  grid.run_until(2 * kWeek + 8 * kHour + 15 * kMinute);

  asct::AppBuilder builder("batch");
  builder.kind(protocol::AppKind::kParametric)
      .tasks(30, 5'400'000.0)  // ~90 min on a 1000 MIPS node: the work
                               // must survive the 09:00 owner-arrival wall
      .estimated_duration(2 * kHour)
      .checkpoint_period(2 * kMinute, 128 * kKiB);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));

  const SimTime submit = grid.engine().now();
  grid.run_until_app_done(cluster, app, submit + 24 * kHour);

  Outcome out;
  const auto* progress = cluster.asct().progress(app);
  out.completed = progress->completed;
  out.evictions = progress->evictions;
  out.makespan_min =
      progress->done ? to_seconds(progress->makespan()) / 60.0 : -1;
  // Wasted work = executed beyond the demand (eviction replay past the last
  // checkpoint).
  const double demand = 30 * 5'400'000.0;
  out.wasted_minstr = std::max(0.0, cluster.total_work_done() - demand);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int seeds = quick ? 1 : 3;
  const double runs = seeds;
  bench::banner("E5", "forecast-aware vs load-only vs random scheduling",
                "usage patterns let the scheduler avoid nodes about to turn "
                "busy: fewer evictions, less wasted work, lower makespan");

  struct Policy {
    const char* name;
    bool forecast;
    const char* preference;
  };
  const Policy policies[] = {
      {"integrade(+LUPA)", true, "max exportable_mips"},
      {"load-only", false, "max exportable_mips"},
      {"random", false, "random"},
  };

  bench::Table table({"policy", "completed", "evictions", "wasted-MI",
                      "makespan-min"}, 18);
  double lupa_evictions = 0;
  double load_evictions = 0;
  for (const auto& policy : policies) {
    // The full run averages three seeds to tame owner-arrival noise.
    Outcome sum{};
    for (int s = 0; s < seeds; ++s) {
      const auto out = run(policy.forecast, policy.preference, 505 + s);
      sum.completed += out.completed;
      sum.evictions += out.evictions;
      sum.wasted_minstr += out.wasted_minstr;
      sum.makespan_min += out.makespan_min;
    }
    if (std::string(policy.name) == "integrade(+LUPA)") {
      lupa_evictions = sum.evictions;
    }
    if (std::string(policy.name) == "load-only") {
      load_evictions = sum.evictions;
    }
    table.row({policy.name, bench::fmt("%.1f", sum.completed / runs),
               bench::fmt("%.1f", sum.evictions / runs),
               bench::fmt("%.0f", sum.wasted_minstr / runs),
               bench::fmt("%.1f", sum.makespan_min / runs)});
  }

  std::printf("\nexpected shape: the LUPA-aware policy suffers the fewest "
              "evictions (it routes morning work to spare/nocturnal boxes "
              "rather than office desks about to wake), and wastes the least "
              "work; random is worst.\n");
  const bool ok = lupa_evictions <= load_evictions;
  std::printf("reproduction: %s\n", ok ? "HOLDS" : "CHECK");
  return ok ? 0 : 1;
}
