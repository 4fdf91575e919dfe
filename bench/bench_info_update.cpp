// E2 — Information Update Protocol: period vs freshness vs cost.
//
// The paper specifies that "LRMs send this information periodically to the
// GRM" without fixing the period. This bench sweeps it: shorter periods
// keep the GRM's Trader view fresh (fewer refused reservations during
// negotiation) but cost update traffic; longer periods are cheap and stale.
//
// Workload: 60 desktops with lively owners, a steady stream of submissions
// over 8 simulated hours. State-change pushes are disabled so the period is
// the only freshness mechanism.
#include <cstdio>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "orb/message.hpp"

using namespace integrade;

namespace {

struct Outcome {
  double update_bytes_per_sec;
  double updates_per_sec;
  double refused_fraction;  // reservation attempts refused (stale hint)
  double placed;
  double completed;
};

Outcome run(SimDuration period) {
  core::Grid grid(/*seed=*/202);
  core::CampusMix mix;
  mix.office_workers = 30;
  mix.lab_machines = 30;
  mix.nocturnal = 0;
  mix.mostly_idle = 0;
  mix.busy_servers = 0;
  auto config = core::campus_cluster(mix, 202);
  config.lrm.update_period = period;
  config.lrm.push_on_state_change = false;
  config.grm.offer_ttl = std::max<SimDuration>(5 * period, 150 * kSecond);
  config.grm.use_forecast = false;  // isolate the staleness effect
  auto& cluster = grid.add_cluster(config);

  // Start mid-morning on a Tuesday: owners come and go frequently.
  grid.run_until(kDay + 9 * kHour);
  const SimTime start = grid.engine().now();

  std::vector<AppId> apps;
  for (int i = 0; i < 16; ++i) {
    asct::AppBuilder builder(bench::fmt("stream-%d", i));
    builder.kind(protocol::AppKind::kParametric).tasks(8, 60'000.0);
    apps.push_back(cluster.asct().submit(cluster.grm_ref(),
                                         builder.build(cluster.asct().ref())));
    grid.run_for(30 * kMinute);
  }
  const SimTime end = grid.engine().now();

  Outcome out{};
  const double elapsed_s = to_seconds(end - start);
  auto& gm = cluster.grm().metrics();
  const auto updates = gm.counter_value("status_updates_received");
  // Update traffic: message count x the periodic update_status frame as the
  // network bills it (protocol and request headers plus the NodeLoad).
  orb::RequestHeader header;
  header.object_key = cluster.grm_ref().key;
  header.operation = "update_status";
  header.response_expected = false;
  const auto load = protocol::load_of(cluster.lrm(0).current_status());
  const auto frame = orb::frame_request(header, cdr::encode_message(load));
  out.updates_per_sec = static_cast<double>(updates) / elapsed_s;
  out.update_bytes_per_sec =
      static_cast<double>(updates) * static_cast<double>(frame.size()) /
      elapsed_s;
  const auto rounds = gm.counter_value("negotiation_rounds");
  const auto refused = gm.counter_value("reservations_refused_remote") +
                       gm.counter_value("negotiation_timeouts") +
                       gm.counter_value("executes_failed");
  out.refused_fraction =
      rounds > 0 ? static_cast<double>(refused) / static_cast<double>(rounds) : 0;
  out.placed = static_cast<double>(gm.counter_value("tasks_placed"));
  int completed = 0;
  for (const AppId app : apps) completed += cluster.asct().progress(app)->completed;
  out.completed = completed;
  return out;
}

}  // namespace

int main() {
  bench::banner("E2", "Information Update Protocol: period sweep",
                "periodic LRM updates trade GRM-view freshness against "
                "update traffic");

  bench::Table table({"period", "updates/s", "bytes/s", "stale-refusal",
                      "placed", "completed"});
  const SimDuration periods[] = {5 * kSecond,  15 * kSecond, 30 * kSecond,
                                 60 * kSecond, 2 * kMinute,  5 * kMinute,
                                 10 * kMinute};
  double first_cost = -1;
  double last_cost = -1;
  double first_refused = -1;
  double last_refused = -1;
  for (const auto period : periods) {
    const auto out = run(period);
    if (first_cost < 0) {
      first_cost = out.update_bytes_per_sec;
      first_refused = out.refused_fraction;
    }
    last_cost = out.update_bytes_per_sec;
    last_refused = out.refused_fraction;
    table.row({bench::fmt("%.0fs", to_seconds(period)),
               bench::fmt("%.2f", out.updates_per_sec),
               bench::fmt("%.0f", out.update_bytes_per_sec),
               bench::fmt("%.3f", out.refused_fraction),
               bench::fmt("%.0f", out.placed),
               bench::fmt("%.0f", out.completed)});
  }

  std::printf("\nexpected shape: bytes/s falls ~linearly with period; the "
              "stale-refusal fraction rises as the view ages.\n");
  const bool ok = last_cost < first_cost / 10 && last_refused >= first_refused;
  std::printf("reproduction: %s\n", ok ? "HOLDS" : "CHECK");
  return ok ? 0 : 1;
}
