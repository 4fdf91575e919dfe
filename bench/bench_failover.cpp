// Control-plane failover: snapshot restore vs heartbeat reconvergence.
//
// PR 2's warm-standby GRM rebuilds cluster state from scratch out of
// heartbeats after a failover, which at large node counts means the new
// manager schedules nothing until re-announcements trickle in. The snapshot
// subsystem ships the primary's GRM and ORB-dedup state to the standby
// ahead of time (one full image per period; the standby rebuilds its Trader
// from the GRM's node records), so at promotion the standby already holds
// the whole cluster and only the capture-to-failure gap is replayed from
// the LRM report journals.
//
// Three cells run the same workload on the same seed and crash the primary
// manager mid-application. Every LRM probes the manager with its own
// reliable status updates and fails over after 3 consecutive misses:
//
//   snapshot       10 s heartbeats + snapshots every 10 s
//   heartbeat-10s  10 s heartbeats, snapshots off
//   heartbeat-30s  30 s heartbeats, snapshots off (the historical failover
//                  path; the reconvergence denominator)
//
// Per cell the bench reports, in sim seconds from the crash:
//
//   detect      first post-crash status update reaching the standby (the
//               liveness-probe threshold; common to every design)
//   restore     standby promoted AND knowing >= 99% of pre-crash capacity
//   reconverge  restore - detect: the part snapshots are meant to erase
//   lost/dup    tasks that never completed / completed more than once at
//               the ASCT (both must be zero with snapshots + journal replay)
//
// The snapshot cell also exercises the warm-start path: the primary's state
// is captured to a file before the crash, and a *fresh* grid (no warmup
// simulated) installs the file into its standby store, which must then know
// the full cluster.
//
// Usage: bench_failover [out.json] [--quick]
//                       [--save-state FILE] [--load-state FILE]
//
// --save-state writes the captured pre-crash image to FILE (default
// failover_state.bin); --load-state warm-starts from an existing FILE
// instead of the image captured this run.
//
// Exit code is non-zero if the snapshot cell loses or duplicates any task,
// its reconvergence exceeds 2 s, the heartbeat-30s/snapshot reconvergence
// ratio is < 10x, or the warm start fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "asct/asct.hpp"
#include "bench_util.hpp"
#include "core/grid.hpp"
#include "core/workloads.hpp"
#include "sim/faults.hpp"
#include "snapshot/coordinator.hpp"
#include "snapshot/snapshot.hpp"

using namespace integrade;

namespace {

enum class Mode { kSnapshot, kHeartbeat10s, kHeartbeat30s };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSnapshot: return "snapshot";
    case Mode::kHeartbeat10s: return "heartbeat-10s";
    case Mode::kHeartbeat30s: return "heartbeat-30s";
  }
  return "?";
}

struct Scenario {
  int nodes = 10'000;
  int tasks = 48;
  // Twenty minutes per task at 1000 MIPS: every task is mid-execution when
  // the primary dies, so nothing completes before the standby takes over.
  MInstr work = 1'200'000.0;
};

struct CellResult {
  Mode mode = Mode::kSnapshot;
  double detect_s = -1.0;
  double restore_s = -1.0;
  double reconverge_s = -1.0;
  double completion = 0.0;
  long long lost = 0;
  long long duplicates = 0;
  long long known_at_promotion = 0;
  long long capacity = 0;
  long long tasks_recovered = 0;
  bool app_known = false;  // did the new manager know the in-flight app?
};

core::ClusterConfig cell_config(Mode mode, const Scenario& scenario,
                                std::uint64_t seed) {
  auto config = core::quiet_cluster(scenario.nodes, seed, 1000.0, "failover");
  switch (mode) {
    case Mode::kSnapshot:
      config.lrm.update_period = 10 * kSecond;
      config.standby = core::Standby::kSnapshot;
      break;
    case Mode::kHeartbeat10s:
      config.lrm.update_period = 10 * kSecond;
      config.standby = core::Standby::kHeartbeat;
      break;
    case Mode::kHeartbeat30s:
      config.lrm.update_period = 30 * kSecond;
      config.standby = core::Standby::kHeartbeat;
      break;
  }
  return config;
}

CellResult run_cell(Mode mode, const Scenario& scenario, std::uint64_t seed,
                    std::vector<std::uint8_t>* state_image) {
  CellResult out;
  out.mode = mode;

  core::Grid grid(seed);
  auto& cluster = grid.add_cluster(cell_config(mode, scenario, seed));
  sim::FaultInjector faults(grid.engine(), grid.network(),
                            Rng(seed ^ 0x5eedf00dULL));

  grid.run_for(3 * kMinute);  // announcements (and first snapshots) land

  asct::AppBuilder builder("failover");
  builder.kind(protocol::AppKind::kParametric)
      .tasks(scenario.tasks, scenario.work)
      .estimated_duration(30 * kMinute);
  const AppId app = cluster.asct().submit(cluster.grm_ref(),
                                          builder.build(cluster.asct().ref()));
  grid.run_for(45 * kSecond);  // tasks placed; snapshots of them shipped

  out.capacity = static_cast<long long>(cluster.grm().known_nodes());
  if (mode == Mode::kSnapshot && state_image != nullptr) {
    // Warm-start artifact: the exact image a --save-state run persists.
    *state_image = snapshot::encode(cluster.snapshot_coordinator()->capture());
  }

  const SimTime crash_at = grid.engine().now();
  faults.crash_endpoint(cluster.manager_address());

  // Poll at 1 s resolution: promotion is the first status update the
  // standby ever receives (nothing addresses it while the primary lives);
  // capacity is restored when it knows >= 99% of the pre-crash nodes.
  grm::Grm& standby = *cluster.standby_grm();
  const auto need = static_cast<std::size_t>(out.capacity - out.capacity / 100);
  for (int step = 0; step < 15 * 60; ++step) {
    grid.run_for(1 * kSecond);
    const bool promoted =
        standby.metrics().counter_value("status_updates_received") > 0;
    if (!promoted) continue;
    const double since_crash = static_cast<double>(grid.engine().now() - crash_at) /
                               static_cast<double>(kSecond);
    if (out.detect_s < 0) {
      out.detect_s = since_crash;
      out.known_at_promotion = static_cast<long long>(standby.known_nodes());
    }
    if (standby.known_nodes() >= need) {
      out.restore_s = since_crash;
      break;
    }
  }
  if (out.detect_s >= 0 && out.restore_s >= 0) {
    out.reconverge_s = out.restore_s - out.detect_s;
  }

  (void)grid.run_until_app_done(cluster, app,
                                grid.engine().now() + 4 * kHour);
  grid.run_for(kMinute);  // drain late notifications and journal replays

  // Exactly-once ledger: count completion *events* per task — the ASCT's
  // deduped counter would hide a double execution, the raw events cannot.
  std::map<std::uint64_t, int> completions;
  for (const auto& event : cluster.asct().events()) {
    if (event.kind == protocol::AppEventKind::kTaskCompleted) {
      ++completions[event.task.value];
    }
  }
  out.lost = scenario.tasks - static_cast<long long>(completions.size());
  for (const auto& [task, count] : completions) {
    if (count > 1) out.duplicates += count - 1;
  }
  out.completion = static_cast<double>(completions.size()) /
                   static_cast<double>(scenario.tasks);
  out.tasks_recovered =
      standby.metrics().counter_value("tasks_recovered_from_snapshot");
  out.app_known = standby.app_known(app);
  return out;
}

/// Install a state file into a *fresh* grid (no warmup simulated) and check
/// the standby knows the full cluster — the warm-start path long benches use
/// to skip re-simulating their warmup phase.
bool warm_start_from_file(const char* path, const Scenario& scenario,
                          std::uint64_t seed, long long expect_nodes) {
  std::vector<std::uint8_t> bytes;
  if (FILE* f = std::fopen(path, "rb")) {
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    bytes.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    const std::size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size()) return false;
  } else {
    std::fprintf(stderr, "warm start: cannot read %s\n", path);
    return false;
  }

  core::Grid grid(seed + 1);
  auto& cluster = grid.add_cluster(cell_config(Mode::kSnapshot, scenario, seed));
  const Status status = cluster.snapshot_store()->install(bytes);
  if (!status.is_ok()) {
    std::fprintf(stderr, "warm start: install failed: %s\n",
                 status.to_string().c_str());
    return false;
  }
  return cluster.snapshot_store()->has_image() &&
         static_cast<long long>(cluster.standby_grm()->known_nodes()) ==
             expect_nodes;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_failover.json";
  const char* save_state_path = nullptr;
  const char* load_state_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--save-state") == 0 && i + 1 < argc) {
      save_state_path = argv[++i];
    } else if (std::strcmp(argv[i], "--load-state") == 0 && i + 1 < argc) {
      load_state_path = argv[++i];
    } else {
      json_path = argv[i];
    }
  }

  Scenario scenario;
  if (quick) {
    scenario.nodes = 2'000;
    scenario.tasks = 32;
  }
  const std::uint64_t seed = 16;

  bench::banner("E16", "control-plane failover: snapshot restore vs heartbeat "
                       "reconvergence",
                "a failed Cluster Manager must not idle the grid: the warm "
                "standby takes over with full scheduling capacity in seconds, "
                "losing and duplicating nothing");

  std::vector<std::uint8_t> state_image;
  const std::vector<Mode> modes = {Mode::kSnapshot, Mode::kHeartbeat10s,
                                   Mode::kHeartbeat30s};
  std::vector<CellResult> cells;
  for (Mode mode : modes) {
    cells.push_back(run_cell(mode, scenario, seed,
                             mode == Mode::kSnapshot ? &state_image : nullptr));
  }

  bench::Table table({"mode", "detect(s)", "restore(s)", "reconverge(s)",
                      "completion", "lost", "dup"});
  for (const auto& cell : cells) {
    table.row({mode_name(cell.mode), bench::fmt("%.0f", cell.detect_s),
               bench::fmt("%.0f", cell.restore_s),
               bench::fmt("%.0f", cell.reconverge_s),
               bench::fmt("%.1f%%", cell.completion * 100),
               bench::fmt("%lld", cell.lost),
               bench::fmt("%lld", cell.duplicates)});
  }

  // Reconvergence ratio: the poll resolution (1 s) is the floor, so a
  // snapshot cell that restores within one poll still yields a finite ratio.
  const CellResult& snap = cells[0];
  const CellResult& heartbeat_30s = cells[2];
  const double ratio =
      heartbeat_30s.reconverge_s >= 0 && snap.reconverge_s >= 0
          ? heartbeat_30s.reconverge_s /
                (snap.reconverge_s > 1.0 ? snap.reconverge_s : 1.0)
          : 0.0;
  std::printf("\nreconvergence speedup (heartbeat-30s/snapshot): %.1fx\n",
              ratio);
  std::printf("standby nodes known at promotion: snapshot=%lld/%lld "
              "heartbeat-30s=%lld/%lld\n",
              snap.known_at_promotion, snap.capacity,
              heartbeat_30s.known_at_promotion, heartbeat_30s.capacity);
  std::printf("in-flight app known to the new manager: snapshot=%s "
              "heartbeat-only=%s\n",
              snap.app_known ? "yes" : "no",
              heartbeat_30s.app_known ? "yes" : "no");

  // Warm start: persist the captured image, then boot a fresh grid from it.
  const char* state_path =
      save_state_path != nullptr ? save_state_path
      : load_state_path != nullptr ? load_state_path
                                   : "failover_state.bin";
  if (load_state_path == nullptr || save_state_path != nullptr) {
    if (FILE* f = std::fopen(state_path, "wb")) {
      std::fwrite(state_image.data(), 1, state_image.size(), f);
      std::fclose(f);
      std::printf("saved pre-crash state (%zu bytes) to %s\n",
                  state_image.size(), state_path);
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", state_path);
    }
  }
  const bool warm_start_ok =
      warm_start_from_file(state_path, scenario, seed, snap.capacity);
  std::printf("warm start from %s: %s\n", state_path,
              warm_start_ok ? "ok" : "FAILED");

  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"failover\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"nodes\": %d,\n  \"tasks\": %d,\n", scenario.nodes,
                 scenario.tasks);
    std::fprintf(f, "  \"warm_start_ok\": %s,\n",
                 warm_start_ok ? "true" : "false");
    std::fprintf(f, "  \"snapshot_vs_heartbeat_30s_speedup\": %.2f,\n",
                 ratio);
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"detect_s\": %.2f, "
                   "\"restore_s\": %.2f, \"reconverge_s\": %.2f, "
                   "\"completion_rate\": %.4f, \"lost_tasks\": %lld, "
                   "\"duplicate_executions\": %lld, "
                   "\"known_at_promotion\": %lld, \"capacity\": %lld, "
                   "\"tasks_recovered_from_snapshot\": %lld, "
                   "\"app_known\": %s}%s\n",
                   mode_name(c.mode), c.detect_s, c.restore_s, c.reconverge_s,
                   c.completion, c.lost, c.duplicates, c.known_at_promotion,
                   c.capacity, c.tasks_recovered,
                   c.app_known ? "true" : "false",
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "\nwarning: cannot write %s\n", json_path);
  }

  int exit_code = 0;
  if (snap.lost != 0 || snap.duplicates != 0) exit_code = 1;
  if (snap.restore_s < 0 || snap.reconverge_s > 2.0) exit_code = 1;
  if (ratio < 10.0) exit_code = 1;
  if (!warm_start_ok) exit_code = 1;
  std::printf("gate: lost=%lld dup=%lld reconverge=%.0fs speedup=%.1fx "
              "warm_start=%s -> %s\n",
              snap.lost, snap.duplicates, snap.reconverge_s, ratio,
              warm_start_ok ? "ok" : "failed",
              exit_code == 0 ? "PASS" : "FAIL");
  return exit_code;
}
