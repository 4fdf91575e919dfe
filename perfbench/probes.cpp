// Layer probes for the traced run.
//
// After the measured phase (and after the output digest is taken), each
// layer's public calls are timed from here, on inputs taken from the live
// workload: the live offer table, lrm(i).current_status(), the GRM's own
// constraint and preference strings, and chunk images from the workload's
// image model. Only const calls touch the live grid; mutating calls
// (Trader refresh, Grm::handle_update_status, Network::send, Engine
// schedule/fire) run on replica objects built from the same inputs.
//
// Counts come from the layer boundaries the middleware already exposes:
// MetricsHub registries, Network::stats(), the engine and the ASCT ledger,
// taken as their growth over the measured phase (set-up excluded); the
// Trader's size and the checkpoint dedup ratio are end-of-run states.
// Each layer's share of the traced wall
// time is estimated as count x ns/op; what the estimates do not cover is
// reported as share.unattributed.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "asct/asct.hpp"
#include "cdr/cdr.hpp"
#include "ckpt/chunk.hpp"
#include "ckpt/compress.hpp"
#include "ckpt/store.hpp"
#include "orb/transport.hpp"
#include "perfbench.hpp"
#include "protocol/properties.hpp"
#include "sched/sched.hpp"
#include "security/sha256.hpp"

namespace perfbench {

using namespace integrade;

namespace {

template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median ns per call of `op(i)` over `batches` timed batches of
/// `per_batch` calls, after one untimed warm-up batch.
template <class Op>
double ns_per_op(int per_batch, Op&& op, int batches = 7) {
  std::vector<double> samples;
  std::size_t i = 0;
  for (int b = -1; b < batches; ++b) {
    const std::int64_t begin = host_ns();
    for (int k = 0; k < per_batch; ++k) op(i++);
    const std::int64_t end = host_ns();
    if (b >= 0) samples.push_back(static_cast<double>(end - begin) / per_batch);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double mb_per_s(double bytes_per_op, double ns) {
  return ns > 0 ? bytes_per_op / ns * 1e3 : 0.0;  // bytes/ns * 1e9 / 1e6
}

/// Growth over the measured phase of hub counters and summaries, summed
/// over every source whose name starts with `prefix` ("grm/", "lrm/", ...).
class PhaseCounts {
 public:
  using Registries = std::map<std::string, MetricRegistry>;
  PhaseCounts(const Registries& before, Registries after)
      : before_(before), after_(std::move(after)) {}

  [[nodiscard]] double counter(const std::string& prefix,
                               const std::string& name) const {
    return counter_sum(after_, prefix, name) - counter_sum(before_, prefix, name);
  }
  /// Observations and their total over the phase.
  [[nodiscard]] std::pair<double, double> summary(const std::string& prefix,
                                                  const std::string& name) const {
    const auto [n1, s1] = summary_sum(after_, prefix, name);
    const auto [n0, s0] = summary_sum(before_, prefix, name);
    return {n1 - n0, s1 - s0};
  }

 private:
  static double counter_sum(const Registries& hub, const std::string& prefix,
                            const std::string& name) {
    double total = 0.0;
    for (const auto& [source, registry] : hub) {
      if (source.rfind(prefix, 0) == 0) {
        total += static_cast<double>(registry.counter_value(name));
      }
    }
    return total;
  }
  static std::pair<double, double> summary_sum(const Registries& hub,
                                               const std::string& prefix,
                                               const std::string& name) {
    double count = 0.0;
    double sum = 0.0;
    for (const auto& [source, registry] : hub) {
      if (source.rfind(prefix, 0) != 0) continue;
      if (auto it = registry.summaries().find(name); it != registry.summaries().end()) {
        count += static_cast<double>(it->second.count());
        sum += it->second.sum();
      }
    }
    return {count, sum};
  }

  const Registries& before_;
  Registries after_;
};

class EchoServant final : public orb::SkeletonBase {
 public:
  EchoServant() {
    register_op<cdr::Empty, cdr::Empty>(
        "ping", [](const cdr::Empty&) -> Result<cdr::Empty> { return cdr::Empty{}; });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:perfbench/Echo:1.0";
  }
};

/// The constraint string Grm::build_constraint produces for `task`.
std::string grm_constraint(const protocol::TaskDescriptor& task,
                           const protocol::ApplicationSpec& spec) {
  std::string expr = "shareable == true and exportable_cpu > 0";
  if (task.ram_needed > 0) {
    expr += " and free_ram_mb >= " + std::to_string(task.ram_needed / kMiB);
  }
  if (!task.binary_platform.empty()) {
    expr += " and '" + task.binary_platform + "' in platforms";
  }
  if (!spec.requirements.constraint.empty()) {
    expr += " and (" + spec.requirements.constraint + ")";
  }
  return expr;
}

}  // namespace

void run_probes(WorkloadRun& run, const Runner& runner, double traced_wall_s,
                std::vector<Metric>& out) {
  core::Grid& grid = *run.grid;
  core::Cluster& cluster = *run.cluster;
  grm::Grm& grm = cluster.grm();
  const MetricRegistry& gm = grm.metrics();
  const PhaseCounts phase(run.hub_before, grid.metrics_hub().collect());
  const auto counter = [&phase](const char* name) {
    return phase.counter("grm/", name);
  };
  const auto add = [&out](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // Live inputs.
  const std::size_t nodes = cluster.size();
  std::vector<protocol::NodeStatus> statuses;
  std::vector<std::vector<std::uint8_t>> status_frames;
  for (std::size_t i = 0; i < nodes; ++i) {
    statuses.push_back(cluster.lrm(i).current_status());
    status_frames.push_back(cdr::encode_message(statuses.back()));
  }
  const asct::AppProgress* first_app = cluster.asct().progress(run.apps.front().app);
  const protocol::ApplicationSpec& spec = first_app->spec;
  const protocol::TaskDescriptor& task = spec.tasks.front();

  ckpt::ImageModelParams image_params;
  image_params.image_bytes = run.image_bytes;
  const std::vector<std::uint8_t> image =
      ckpt::ImageModel(AppId(1), 0, image_params).render(3);
  std::vector<std::vector<std::uint8_t>> chunks;
  for (const auto& span : ckpt::chunk_spans(image, ckpt::ChunkParams{})) {
    chunks.emplace_back(image.begin() + static_cast<std::ptrdiff_t>(span.offset),
                        image.begin() + static_cast<std::ptrdiff_t>(span.offset + span.size));
  }
  const double chunk_bytes = static_cast<double>(chunks.front().size());

  // ---- sim: engine + network ----
  const double events = static_cast<double>(runner.step_ns().count());
  const sim::NetworkStats net = grid.network().stats();
  const auto depth = static_cast<std::size_t>(std::max(1.0, runner.queue_depth_mean()));
  double schedule_fire_ns = 0.0;
  {
    sim::Engine engine;
    Rng rng(run.seed);
    for (std::size_t i = 0; i < depth; ++i) {
      (void)engine.schedule_after(rng.uniform_int(1, kSecond), [] {});
    }
    schedule_fire_ns = ns_per_op(20'000, [&](std::size_t) {
      (void)engine.schedule_after(rng.uniform_int(1, kSecond), [] {});
      (void)engine.step();
    });
  }
  double net_send_ns = 0.0;
  {
    sim::Engine engine;
    sim::Network network(engine, Rng(run.seed));
    const sim::SegmentId segment = network.add_segment(sim::SegmentSpec{});
    network.attach(1, segment);
    network.attach(2, segment);
    const Bytes frame = static_cast<Bytes>(status_frames.front().size()) + 40;
    std::vector<double> samples;
    for (int b = -1; b < 7; ++b) {
      const std::int64_t begin = host_ns();
      for (int k = 0; k < 4096; ++k) network.send(1, 2, frame, [] {});
      const std::int64_t end = host_ns();
      (void)engine.run();  // deliver outside the timed window
      if (b >= 0) samples.push_back(static_cast<double>(end - begin) / 4096);
    }
    std::sort(samples.begin(), samples.end());
    net_send_ns = samples[samples.size() / 2];
  }
  add("sim.events", events, "count");
  add("sim.ns_per_event_p50", runner.step_ns().percentile(0.5), "ns");
  add("sim.ns_per_event_p99", runner.step_ns().percentile(0.99), "ns");
  add("sim.queue_depth_max", static_cast<double>(runner.queue_depth_max()), "count");
  add("sim.schedule_fire_ns", schedule_fire_ns, "ns");
  const double frames = static_cast<double>(net.messages - run.net_messages_before);
  add("sim.net_messages", frames, "count");
  add("sim.net_bytes", static_cast<double>(net.bytes - run.net_bytes_before), "B");
  add("sim.net_send_ns", net_send_ns, "ns");

  // ---- cdr / protocol frames ----
  const double status_encode_ns = ns_per_op(5'000, [&](std::size_t i) {
    keep(cdr::encode_message(statuses[i % nodes]));
  });
  const double status_decode_ns = ns_per_op(5'000, [&](std::size_t i) {
    keep(cdr::decode_message<protocol::NodeStatus>(status_frames[i % nodes]));
  });
  protocol::ReservationRequest reserve;
  reserve.task = task.id;
  reserve.ram = task.ram_needed;
  protocol::ReservationReply reply;
  reply.reason = "owner present";
  const double reservation_ns = ns_per_op(5'000, [&](std::size_t) {
    keep(cdr::decode_message<protocol::ReservationRequest>(cdr::encode_message(reserve)));
    keep(cdr::decode_message<protocol::ReservationReply>(cdr::encode_message(reply)));
  });
  protocol::ExecuteRequest execute;
  execute.task = task;
  execute.report_to = grm.ref();
  protocol::ExecuteReply execute_reply;
  execute_reply.accepted = true;
  const double execute_ns = ns_per_op(5'000, [&](std::size_t) {
    keep(cdr::decode_message<protocol::ExecuteRequest>(cdr::encode_message(execute)));
    keep(cdr::decode_message<protocol::ExecuteReply>(cdr::encode_message(execute_reply)));
  });
  protocol::TaskReport report;
  report.task = task.id;
  report.node = statuses.front().node;
  report.work_done = task.work;
  report.detail = "completed";
  const double report_ns = ns_per_op(5'000, [&](std::size_t) {
    keep(cdr::decode_message<protocol::TaskReport>(cdr::encode_message(report)));
  });
  protocol::CkptChunkPut put;
  put.app = spec.id;
  double put_payload = 0.0;
  for (std::size_t i = 0; i < std::min<std::size_t>(8, chunks.size()); ++i) {
    const ckpt::PackedChunk packed = ckpt::pack_chunk(chunks[i], true);
    protocol::CkptChunkData data;
    data.hash = ckpt::ChunkHash(security::Sha256::hash(chunks[i]));
    data.encoding = static_cast<std::uint8_t>(packed.encoding);
    data.raw_size = packed.raw_size;
    data.payload = packed.payload;
    put_payload += static_cast<double>(data.payload.size());
    put.chunks.push_back(std::move(data));
  }
  const std::vector<std::uint8_t> put_frame = cdr::encode_message(put);
  const double put_encode_ns =
      ns_per_op(50, [&](std::size_t) { keep(cdr::encode_message(put)); });
  const double put_decode_ns = ns_per_op(50, [&](std::size_t) {
    keep(cdr::decode_message<protocol::CkptChunkPut>(put_frame));
  });
  add("cdr.node_status_bytes", static_cast<double>(status_frames.front().size()), "B");
  add("cdr.node_status_encode_ns", status_encode_ns, "ns");
  add("cdr.node_status_decode_ns", status_decode_ns, "ns");
  add("cdr.reservation_codec_ns", reservation_ns, "ns");
  add("cdr.execute_codec_ns", execute_ns, "ns");
  add("cdr.task_report_codec_ns", report_ns, "ns");
  add("cdr.chunk_put_encode_mb_s", mb_per_s(put_payload, put_encode_ns), "MB/s");
  add("cdr.chunk_put_decode_mb_s", mb_per_s(put_payload, put_decode_ns), "MB/s");

  // ---- orb ----
  double invoke_rtt_ns = 0.0;
  double oneway_ns = 0.0;
  {
    orb::DirectTransport transport;
    orb::Orb client(1, transport, nullptr);
    orb::Orb server(2, transport, nullptr);
    const orb::ObjectRef echo = server.activate(std::make_shared<EchoServant>());
    invoke_rtt_ns = ns_per_op(5'000, [&](std::size_t) {
      orb::call<cdr::Empty, cdr::Empty>(client, echo, "ping", cdr::Empty{},
                                        [](Result<cdr::Empty> r) { keep(r); });
    });
    oneway_ns = ns_per_op(5'000, [&](std::size_t) {
      orb::oneway(client, echo, "ping", cdr::Empty{});
    });
  }
  const std::string manager_orb = "orb/" + cluster.name() + "/manager";
  add("orb.invoke_rtt_ns", invoke_rtt_ns, "ns");
  add("orb.oneway_ns", oneway_ns, "ns");
  add("orb.requests",
      phase.counter(manager_orb, "requests_received") +
          phase.counter(manager_orb, "requests_sent") +
          phase.counter(manager_orb, "oneways_sent"),
      "count");
  add("orb.retransmits", phase.counter("orb/", "requests_retransmitted"), "count");
  add("orb.dedup_replays", phase.counter("orb/", "duplicate_requests"), "count");

  // ---- services (Trader) ----
  const services::Trader& trader = grm.trader();
  double refresh_ns = 0.0;
  {
    services::Trader replica;
    std::vector<services::OfferId> ids;
    for (const auto& status : statuses) {
      ids.push_back(replica.export_offer(protocol::kNodeServiceType, status.lrm,
                                         protocol::to_properties(status)));
    }
    std::vector<protocol::NodeStatus> fresh = statuses;
    refresh_ns = ns_per_op(5'000, [&](std::size_t i) {
      protocol::NodeStatus& status = fresh[i % nodes];
      ++status.timestamp;
      (void)replica.refresh(ids[i % nodes], [&status](services::PropertySet& props) {
        protocol::update_properties(status, props);
      });
    });
  }
  const double find_ns = ns_per_op(20'000, [&](std::size_t i) {
    keep(trader.find_by_provider(protocol::kNodeServiceType, statuses[i % nodes].lrm));
  });
  // The GRM pulls 8 candidates x 16 when it re-ranks by forecast, x 3
  // otherwise (Grm::candidates_for); forecast_queries shows which.
  const std::size_t pool_depth = counter("forecast_queries") > 0 ? 8 * 16 : 8 * 3;
  const std::string constraint = grm_constraint(task, spec);
  const std::string preference = spec.requirements.preference.empty()
                                     ? "max exportable_mips"
                                     : spec.requirements.preference;
  const double query_ns = ns_per_op(500, [&](std::size_t) {
    keep(trader.query(protocol::kNodeServiceType, constraint, preference, pool_depth));
  });
  // The GRM times its own queries (trader_query_us, host time inside the
  // run); the share estimate uses that in-run total, since the live table
  // at the end of the run matches more offers than it did mid-run.
  const auto [waves, query_total_us] = phase.summary("grm/", "trader_query_us");
  const double query_total_ns = query_total_us * 1e3;
  const auto& summaries = gm.summaries();
  const auto query_us = summaries.find("trader_query_us");
  add("services.trader_refresh_ns", refresh_ns, "ns");
  add("services.find_by_provider_ns", find_ns, "ns");
  add("services.trader_query_ns", query_ns, "ns");
  add("services.offers", static_cast<double>(trader.offer_count()), "count");
  add("services.trader_query_us_p50",
      waves > 0 ? query_us->second.percentile(0.5) : 0.0, "us");
  add("services.trader_query_us_p99",
      waves > 0 ? query_us->second.percentile(0.99) : 0.0, "us");

  // ---- grm ----
  double handle_update_ns = 0.0;
  {
    sim::Engine engine;
    orb::DirectTransport transport;
    orb::Orb orb(1, transport, &engine);
    grm::Grm replica(engine, orb, ClusterId(1), Rng(run.seed));
    replica.start(nullptr, nullptr, nullptr);
    std::vector<protocol::NodeStatus> fresh = statuses;
    for (const auto& status : fresh) replica.handle_update_status(status);
    handle_update_ns = ns_per_op(5'000, [&](std::size_t i) {
      protocol::NodeStatus& status = fresh[i % nodes];
      ++status.timestamp;
      replica.handle_update_status(status);
    });
  }
  // Candidate ranking decodes every matched offer back into a NodeStatus
  // (once per forecast, once per wave candidate): Grm::candidates_for.
  std::vector<const services::ServiceOffer*> offers =
      trader.offers_of_type(protocol::kNodeServiceType);
  const double from_properties_ns = ns_per_op(5'000, [&](std::size_t i) {
    keep(protocol::from_properties(offers[i % offers.size()]->properties));
  });
  const double status_updates = counter("status_updates_received");
  const double rounds = counter("negotiation_rounds");
  const double placed = counter("tasks_placed");
  const double forecasts = counter("forecast_queries");
  const double candidate_decodes = forecasts + 8 * waves;  // upper bound
  add("grm.status_updates", status_updates, "count");
  add("grm.handle_update_status_ns", handle_update_ns, "ns");
  add("grm.offer_decode_ns", from_properties_ns, "ns");
  add("grm.negotiation_rounds", rounds, "count");
  add("grm.tasks_placed", placed, "count");
  add("grm.rounds_per_placement", placed > 0 ? rounds / placed : 0.0, "ratio");
  add("grm.waves_no_candidates", counter("waves_no_candidates"), "count");
  add("grm.refused",
      counter("reservations_refused_remote") + counter("negotiation_timeouts") +
          counter("executes_failed"),
      "count");

  // ---- lrm ----
  const double current_status_ns = ns_per_op(20'000, [&](std::size_t i) {
    keep(cluster.lrm(i % nodes).current_status());
  });
  const double updates_sent = phase.counter("lrm/", "status_updates_sent");
  add("lrm.status_updates_sent", updates_sent, "count");
  add("lrm.current_status_ns", current_status_ns, "ns");
  add("lrm.evictions", phase.counter("lrm/", "tasks_evicted"), "count");

  // ---- lupa ----
  const double forecast_ns = ns_per_op(20'000, [&](std::size_t i) {
    protocol::ForecastRequest request;
    request.node = statuses[i % nodes].node;
    request.at = grid.engine().now();
    request.horizon = 10 * kMinute;
    keep(cluster.gupa().forecast(request));
  });
  add("lupa.forecast_ns", forecast_ns, "ns");
  add("grm.forecast_queries", forecasts, "count");

  // ---- obs ----
  double counter_lookup_ns = 0.0;
  {
    MetricRegistry replica = gm;
    std::vector<std::string> names;
    for (const auto& [name, c] : gm.counters()) names.push_back(name);
    counter_lookup_ns = ns_per_op(20'000, [&](std::size_t i) {
      replica.counter(names[i % names.size()]).add();
    });
  }
  const double hub_collect_ns =
      ns_per_op(1, [&](std::size_t) { keep(grid.metrics_hub().collect()); }, 5);
  add("obs.counter_lookup_ns", counter_lookup_ns, "ns");
  add("obs.hub_collect_ns", hub_collect_ns, "ns");

  // ---- security ----
  const double sha_ns = ns_per_op(20, [&](std::size_t i) {
    keep(security::Sha256::hash(chunks[i % chunks.size()]));
  });
  add("security.sha256_mb_s", mb_per_s(chunk_bytes, sha_ns), "MB/s");

  // ---- ckpt ----
  std::vector<std::vector<std::uint8_t>> packed;
  for (const auto& chunk : chunks) packed.push_back(ckpt::lz_compress(chunk));
  const double lz_ns = ns_per_op(10, [&](std::size_t i) {
    keep(ckpt::lz_compress(chunks[i % chunks.size()]));
  });
  const double unlz_ns = ns_per_op(20, [&](std::size_t i) {
    const std::size_t k = i % chunks.size();
    keep(ckpt::lz_decompress(packed[k], chunks[k].size()));
  });
  ckpt::ChunkParams cdc;
  cdc.chunker = ckpt::Chunker::kCdc;
  const double fixed_ns = ns_per_op(
      20, [&](std::size_t) { keep(ckpt::chunk_spans(image, ckpt::ChunkParams{})); });
  const double cdc_ns =
      ns_per_op(3, [&](std::size_t) { keep(ckpt::chunk_spans(image, cdc)); });
  const ckpt::ChunkStore* repo = cluster.repository().data_plane();
  const double chunks_put = phase.counter("ckpt/", "puts");
  const double bytes_shipped = phase.counter("ckpt/", "bytes_shipped");
  const double bytes_restored = phase.counter("ckpt/", "restore_bytes_pulled");
  const double logical =
      phase.counter("ckpt/" + cluster.name() + "/repository", "logical_bytes_installed");
  add("ckpt.lz_compress_mb_s", mb_per_s(chunk_bytes, lz_ns), "MB/s");
  add("ckpt.lz_decompress_mb_s", mb_per_s(chunk_bytes, unlz_ns), "MB/s");
  add("ckpt.fixed_chunk_mb_s", mb_per_s(static_cast<double>(image.size()), fixed_ns), "MB/s");
  add("ckpt.cdc_chunk_mb_s", mb_per_s(static_cast<double>(image.size()), cdc_ns), "MB/s");
  add("ckpt.chunks_put", chunks_put, "count");
  add("ckpt.dedup_ratio", repo != nullptr ? repo->dedup_ratio() : 0.0, "ratio");
  add("ckpt.wire_per_logical", logical > 0 ? bytes_shipped / logical : 0.0, "ratio");

  // ---- bsp ----
  bsp::AppStats bsp_stats;
  for (const Submission& sub : run.apps) {
    if (!sub.bsp) continue;
    if (const bsp::AppStats* stats = cluster.coordinator().stats(sub.app)) {
      bsp_stats = *stats;
    }
  }
  add("bsp.supersteps", static_cast<double>(bsp_stats.supersteps_completed), "count");
  add("bsp.checkpoints", bsp_stats.checkpoints_committed, "count");
  add("bsp.rollbacks", bsp_stats.rollbacks, "count");
  add("bsp.replayed_supersteps", static_cast<double>(bsp_stats.supersteps_replayed),
      "count");
  add("bsp.restart_ms",
      bsp_stats.restores > 0
          ? to_seconds(bsp_stats.restore_time_total) * 1000.0 / bsp_stats.restores
          : 0.0,
      "ms");

  // ---- sched ----
  double fairqueue_ns = 0.0;
  {
    sched::SchedOptions options = run.sched;
    options.enabled = true;
    if (options.tenants.empty()) options.tenants.push_back({"default", 1.0, 0, 0});
    sched::FairQueue queue;
    queue.configure(options);
    // Backlog per tenant as submitted: every task of the run spread evenly.
    std::size_t tasks = 0;
    for (const Submission& sub : run.apps) {
      tasks += cluster.asct().progress(sub.app)->spec.tasks.size();
    }
    const std::size_t tenants = options.tenants.size();
    std::uint64_t next = 1;
    for (std::size_t i = 0; i < std::max<std::size_t>(tasks, tenants); ++i) {
      queue.push(TaskId(next++), options.tenants[i % tenants].name,
                 static_cast<SimTime>(i) * kSecond);
    }
    fairqueue_ns = ns_per_op(20'000, [&](std::size_t i) {
      const auto popped = queue.pop();
      keep(popped);
      const std::uint64_t id = next++;
      queue.push(TaskId(id), options.tenants[i % tenants].name,
                 static_cast<SimTime>(id) * kSecond);
      queue.account_dispatch(options.tenants[i % tenants].name, 1000.0);
    });
  }
  const double dispatched = counter("sched_dispatched");
  add("sched.dispatched", dispatched, "count");
  add("sched.preemptions", counter("sched_preemptions"), "count");
  add("sched.migrations", phase.counter("lrm/", "tasks_preempted"), "count");
  add("sched.admission_rejected", counter("sched_admission_rejected"), "count");
  add("sched.fairqueue_push_pop_ns", fairqueue_ns, "ns");

  // ---- asct ----
  add("asct.events", static_cast<double>(cluster.asct().events().size()), "count");

  // ---- estimated shares of the traced wall time ----
  const double wall_ns = traced_wall_s * 1e9;
  const double reports = counter("tasks_completed");
  const double chunk_wire = bytes_shipped + bytes_restored;
  const auto per_mb = [](double mb_s) { return mb_s > 0 ? 1e3 / mb_s : 0.0; };
  const double put_mb_s_enc = mb_per_s(put_payload, put_encode_ns);
  const double put_mb_s_dec = mb_per_s(put_payload, put_decode_ns);
  struct Share {
    const char* layer;
    double ns;
  };
  const std::vector<Share> shares = {
      {"sim", events * schedule_fire_ns + frames * net_send_ns},
      {"cdr", status_updates * (status_encode_ns + status_decode_ns) +
                  rounds * reservation_ns + placed * execute_ns + reports * report_ns +
                  chunk_wire * (per_mb(put_mb_s_enc) + per_mb(put_mb_s_dec))},
      {"orb", frames * oneway_ns},
      // The Trader serves both protocols; its two paths are reported apart.
      {"services.refresh", status_updates * refresh_ns},
      {"services.query", query_total_ns},
      {"grm", status_updates * std::max(0.0, handle_update_ns - refresh_ns) +
                  candidate_decodes * from_properties_ns},
      {"lrm", updates_sent * current_status_ns},
      {"lupa", forecasts * forecast_ns},
      // Each frame bumps about four string-keyed ORB counters (sent/bytes on
      // one side, received/bytes on the other); the update and negotiation
      // paths add one more each.
      {"obs", (4 * frames + status_updates + updates_sent + rounds) * counter_lookup_ns},
      {"security", logical * per_mb(mb_per_s(chunk_bytes, sha_ns))},
      {"ckpt", logical * per_mb(mb_per_s(static_cast<double>(image.size()), fixed_ns)) +
                   bytes_shipped * per_mb(mb_per_s(chunk_bytes, lz_ns)) +
                   bytes_restored * per_mb(mb_per_s(chunk_bytes, unlz_ns))},
      {"sched", dispatched * fairqueue_ns},
  };
  double attributed = 0.0;
  for (const Share& share : shares) {
    const double fraction = wall_ns > 0 ? share.ns / wall_ns : 0.0;
    attributed += fraction;
    add(std::string("share.") + share.layer, fraction, "ratio");
  }
  add("share.unattributed", 1.0 - attributed, "ratio");
}

}  // namespace perfbench
