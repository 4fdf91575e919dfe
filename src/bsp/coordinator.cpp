#include "bsp/coordinator.hpp"

#include <algorithm>
#include <cassert>

#include "ckpt/store.hpp"
#include "common/log.hpp"

namespace integrade::bsp {

namespace {

/// Valiant's `l`: fixed barrier synchronization latency per superstep.
constexpr SimDuration kBarrierLatency = 5 * kMillisecond;

class CoordinatorServant final : public orb::SkeletonBase {
 public:
  explicit CoordinatorServant(BspCoordinator& coordinator) {
    register_op<protocol::BspChunkDone, cdr::Empty>(
        "chunk_done",
        [&coordinator](const protocol::BspChunkDone& done) -> Result<cdr::Empty> {
          coordinator.handle_chunk_done(done);
          return cdr::Empty{};
        });
    // Data-plane completions. Registering extra operations is byte-invisible:
    // no wire traffic exists unless an agent sends these frames.
    register_op<protocol::CkptSaveDone, cdr::Empty>(
        "ckpt_saved",
        [&coordinator](const protocol::CkptSaveDone& done) -> Result<cdr::Empty> {
          coordinator.handle_ckpt_saved(done);
          return cdr::Empty{};
        });
    register_op<protocol::CkptRestoreDone, cdr::Empty>(
        "ckpt_restored",
        [&coordinator](const protocol::CkptRestoreDone& done)
            -> Result<cdr::Empty> {
          coordinator.handle_ckpt_restored(done);
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/BspCoordinator:1.0";
  }
};

}  // namespace

BspCoordinator::BspCoordinator(sim::Engine& engine, orb::Orb& orb, grm::Grm& grm,
                               ckpt::CheckpointRepository* repository,
                               sim::Network* network)
    : engine_(engine),
      orb_(orb),
      grm_(grm),
      repository_(repository),
      network_(network) {}

BspCoordinator::~BspCoordinator() { stop(); }

void BspCoordinator::start() {
  assert(!started_);
  started_ = true;
  self_ref_ = orb_.activate(std::make_shared<CoordinatorServant>(*this));
  grm_.set_bsp_handlers(
      [this](AppId app) { app_ready(app); },
      [this](AppId app, std::int32_t rank, const grm::Grm::Placement& p) {
        rank_placed(app, rank, p);
      },
      [this](AppId app, std::int32_t rank) { rank_lost(app, rank); },
      [this](AppId app) { app_cancelled(app); });
}

void BspCoordinator::stop() {
  if (!started_) return;
  started_ = false;
  orb_.deactivate(self_ref_.key);
}

const AppStats* BspCoordinator::stats(AppId app) const {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second.stats;
}

void BspCoordinator::set_data_plane(
    ckpt::ChunkStore* repository_store, orb::ObjectRef repository_store_ref,
    std::function<orb::ObjectRef(NodeId)> agent_of, int replicate_k) {
  dp_store_ = repository_store;
  dp_store_ref_ = std::move(repository_store_ref);
  dp_agent_of_ = std::move(agent_of);
  dp_replicate_k_ = replicate_k;
}

std::vector<orb::ObjectRef> BspCoordinator::peer_agents(
    const App& app, std::int32_t rank, std::size_t limit) const {
  std::vector<orb::ObjectRef> peers;
  const auto own = app.placement[static_cast<std::size_t>(rank)].node;
  for (std::int32_t step = 1; step < app.processes(); ++step) {
    if (peers.size() >= limit) break;
    const auto other = static_cast<std::size_t>((rank + step) % app.processes());
    const NodeId node = app.placement[other].node;
    if (node == own || !app.rank_up[other]) continue;
    orb::ObjectRef agent = dp_agent_of_(node);
    if (!agent.valid()) continue;
    if (std::find(peers.begin(), peers.end(), agent) != peers.end()) continue;
    peers.push_back(std::move(agent));
  }
  return peers;
}

void BspCoordinator::place_rank(App& app, std::int32_t rank,
                                const grm::Grm::Placement& placement) {
  app.placement[static_cast<std::size_t>(rank)] = placement;
  app.rank_up[static_cast<std::size_t>(rank)] = true;
  if (!data_plane_enabled()) return;
  orb::ObjectRef agent = dp_agent_of_(placement.node);
  if (agent.valid() &&
      std::find(app.agents.begin(), app.agents.end(), agent) == app.agents.end()) {
    app.agents.push_back(std::move(agent));
  }
}

void BspCoordinator::drop_checkpoints(const App& app) {
  if (repository_ != nullptr) repository_->drop_app(app.spec.id);
  if (!data_plane_enabled()) return;
  for (const orb::ObjectRef& agent : app.agents) {
    orb::oneway(orb_, agent, "ckpt_drop", protocol::CkptDrop{app.spec.id});
  }
}

// ---------------------------------------------------------------------------
// GRM hooks
// ---------------------------------------------------------------------------

void BspCoordinator::app_ready(AppId app_id) {
  const auto* spec = grm_.app_spec(app_id);
  if (spec == nullptr) return;

  auto [it, inserted] = apps_.try_emplace(app_id);
  App& app = it->second;
  if (inserted) {
    app.spec = *spec;
    app.stats.started_at = engine_.now();
    app.committed_superstep = -1;
  }
  const std::int32_t processes = app.processes();
  app.placement.assign(static_cast<std::size_t>(processes), {});
  app.rank_up.assign(static_cast<std::size_t>(processes), false);
  for (std::int32_t rank = 0; rank < processes; ++rank) {
    const auto* placement =
        grm_.placement_of(app.task(rank).id);
    if (placement == nullptr) return;  // raced an eviction; GRM will re-fire
    place_rank(app, rank, *placement);
  }
  resume(app);
}

void BspCoordinator::rank_placed(AppId app_id, std::int32_t rank,
                                 const grm::Grm::Placement& placement) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  App& app = it->second;
  if (rank < 0 || rank >= app.processes()) return;
  place_rank(app, rank, placement);
  if (app.phase == Phase::kSuspended && app.all_up()) resume(app);
}

void BspCoordinator::rank_lost(AppId app_id, std::int32_t rank) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  App& app = it->second;
  if (rank < 0 || rank >= app.processes()) return;
  app.rank_up[static_cast<std::size_t>(rank)] = false;
  if (app.phase != Phase::kSuspended) suspend(app);
}

void BspCoordinator::suspend(App& app) {
  app.phase = Phase::kSuspended;
  ++app.epoch;  // in-flight chunk_dones / transfers become stale
  ++app.stats.rollbacks;
  app.awaiting.clear();
}

void BspCoordinator::resume(App& app) {
  // Roll back to the last complete recovery line. With checkpointing off
  // that line is "before superstep 0" — the whole execution replays, which
  // is exactly the cost E7 quantifies.
  const std::int64_t resume_from = app.committed_superstep + 1;
  if (app.superstep > resume_from) {
    app.stats.supersteps_replayed += app.superstep - resume_from;
  }
  app.superstep = resume_from;

  if (data_plane_enabled() && app.committed_superstep >= 0) {
    // Each rank re-materializes the committed recovery line through its
    // agent: chunks already in the local store cost nothing, missing ones
    // stream from peer replicas first, the repository as fallback. The
    // superstep cycle resumes only when every rank reports restored.
    app.phase = Phase::kRestoring;
    app.awaiting.clear();
    app.restore_started_at = engine_.now();
    const std::int64_t version = app.committed_superstep;
    for (std::int32_t rank = 0; rank < app.processes(); ++rank) {
      const protocol::CkptManifest* manifest =
          dp_store_->manifest(app.spec.id, rank, version);
      const orb::ObjectRef agent =
          dp_agent_of_(app.placement[static_cast<std::size_t>(rank)].node);
      if (manifest == nullptr || !agent.valid()) continue;
      app.awaiting.insert(rank);
      protocol::CkptRestoreRequest request;
      request.app = app.spec.id;
      request.rank = rank;
      request.version = version;
      request.epoch = app.epoch;
      request.manifest = *manifest;
      request.repository = dp_store_ref_;
      request.peers = peer_agents(app, rank, static_cast<std::size_t>(
                                                 app.processes()));
      request.notify = self_ref_;
      orb::oneway(orb_, agent, "ckpt_restore", request);
    }
    if (!app.awaiting.empty()) return;
    // No manifests to restore (e.g. the line predates the data plane):
    // fall through to the superstep cycle.
  } else if (app.committed_superstep >= 0 && network_ != nullptr) {
    // Legacy path: surviving and replacement ranks alike reload the whole
    // checkpoint image from the repository (bulk transfer billed on the
    // network, no completion tracking).
    for (std::int32_t rank = 0; rank < app.processes(); ++rank) {
      const auto& task = app.task(rank);
      const auto host = app.placement[static_cast<std::size_t>(rank)].lrm.host;
      if (task.checkpoint_bytes > 0 && network_->attached(self_ref_.host) &&
          network_->attached(host)) {
        network_->send(self_ref_.host, host, task.checkpoint_bytes, [] {});
      }
    }
  }
  begin_superstep(app);
}

void BspCoordinator::handle_ckpt_restored(const protocol::CkptRestoreDone& done) {
  auto it = apps_.find(done.app);
  if (it == apps_.end()) return;
  App& app = it->second;
  if (app.epoch != done.epoch || app.phase != Phase::kRestoring ||
      app.committed_superstep != done.version) {
    return;  // stale: suspended or rolled elsewhere meanwhile
  }
  app.stats.restore_bytes_pulled += done.bytes_pulled;
  app.stats.restore_chunks_local += done.chunks_local;
  app.stats.restore_chunks_from_peers += done.chunks_from_peers;
  app.stats.restore_chunks_from_repository += done.chunks_from_repository;
  if (!done.ok) {
    // The rank could not reassemble the image (all replicas unreachable).
    // It stays awaiting; a later suspend/resume retries.
    return;
  }
  app.awaiting.erase(done.rank);
  if (app.awaiting.empty()) {
    ++app.stats.restores;
    app.stats.restore_time_total += engine_.now() - app.restore_started_at;
    begin_superstep(app);
  }
}

// ---------------------------------------------------------------------------
// The superstep cycle
// ---------------------------------------------------------------------------

void BspCoordinator::begin_superstep(App& app) {
  const auto& shape = app.spec.tasks.front();
  if (app.superstep >= shape.bsp_supersteps) {
    finish(app);
    return;
  }
  app.phase = Phase::kComputing;
  app.awaiting.clear();

  const MInstr work_per_step =
      shape.bsp_supersteps > 0
          ? shape.work / static_cast<MInstr>(shape.bsp_supersteps)
          : shape.work;

  for (std::int32_t rank = 0; rank < app.processes(); ++rank) {
    app.awaiting.insert(rank);
    protocol::BspComputeRequest request;
    request.task = app.task(rank).id;
    request.rank = rank;
    request.superstep = app.superstep;
    request.work = work_per_step;
    request.notify = self_ref_;
    ++app.stats.chunks_issued;
    orb::oneway(orb_, app.placement[static_cast<std::size_t>(rank)].lrm,
                "bsp_compute", request);
  }
}

void BspCoordinator::handle_chunk_done(const protocol::BspChunkDone& done) {
  // Find the owning app by task: the done message carries rank + superstep.
  for (auto& [app_id, app] : apps_) {
    if (done.rank < 0 || done.rank >= app.processes()) continue;
    if (app.task(done.rank).id != done.task) continue;

    if (app.phase != Phase::kComputing || done.superstep != app.superstep) {
      return;  // stale: rolled back or already aborted this superstep
    }
    app.awaiting.erase(done.rank);
    if (app.awaiting.empty()) begin_exchange(app);
    return;
  }
}

void BspCoordinator::begin_exchange(App& app) {
  const auto& shape = app.spec.tasks.front();
  app.phase = Phase::kExchanging;

  if (shape.bsp_comm_bytes_per_step <= 0 || network_ == nullptr ||
      app.processes() < 2) {
    begin_barrier(app);
    return;
  }

  // Ring h-relation: rank i ships its superstep output to rank (i+1) mod P.
  // The barrier below cannot open until the slowest transfer lands.
  app.awaiting.clear();
  const std::uint64_t epoch = app.epoch;
  const std::int64_t superstep = app.superstep;
  for (std::int32_t rank = 0; rank < app.processes(); ++rank) {
    const std::int32_t next = (rank + 1) % app.processes();
    const auto src = app.placement[static_cast<std::size_t>(rank)].lrm.host;
    const auto dst = app.placement[static_cast<std::size_t>(next)].lrm.host;
    if (!network_->attached(src) || !network_->attached(dst)) continue;
    app.awaiting.insert(rank);
    const AppId app_id = app.spec.id;
    network_->send(src, dst, shape.bsp_comm_bytes_per_step,
                   [this, app_id, rank, epoch, superstep] {
                     auto it = apps_.find(app_id);
                     if (it == apps_.end()) return;
                     App& a = it->second;
                     if (a.epoch != epoch || a.phase != Phase::kExchanging ||
                         a.superstep != superstep) {
                       return;  // stale transfer from before a rollback
                     }
                     a.awaiting.erase(rank);
                     if (a.awaiting.empty()) begin_barrier(a);
                   });
  }
  if (app.awaiting.empty()) begin_barrier(app);
}

void BspCoordinator::begin_barrier(App& app) {
  app.phase = Phase::kBarrier;
  const std::uint64_t epoch = app.epoch;
  const AppId app_id = app.spec.id;
  engine_.schedule_after(kBarrierLatency, [this, app_id, epoch] {
    auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    App& a = it->second;
    if (a.epoch != epoch || a.phase != Phase::kBarrier) return;
    after_barrier(a);
  });
}

void BspCoordinator::after_barrier(App& app) {
  ++app.stats.supersteps_completed;
  const auto& shape = app.spec.tasks.front();
  const std::int64_t finished = app.superstep;

  const bool checkpoint_due =
      shape.checkpoint_every > 0 &&
      ((finished + 1) % shape.checkpoint_every == 0 ||
       finished + 1 == shape.bsp_supersteps);
  if (checkpoint_due && repository_ != nullptr) {
    begin_checkpoint(app);
    return;
  }
  ++app.superstep;
  begin_superstep(app);
}

void BspCoordinator::begin_checkpoint(App& app) {
  app.phase = Phase::kCheckpointing;
  app.awaiting.clear();
  const std::uint64_t epoch = app.epoch;
  const std::int64_t superstep = app.superstep;
  const AppId app_id = app.spec.id;

  if (data_plane_enabled()) {
    // Content-addressed path: each rank's agent chunks its image and ships
    // only what the repository and its replica peers are missing. Completion
    // arrives as ckpt_saved frames.
    for (std::int32_t rank = 0; rank < app.processes(); ++rank) {
      const orb::ObjectRef agent =
          dp_agent_of_(app.placement[static_cast<std::size_t>(rank)].node);
      if (!agent.valid()) continue;
      app.awaiting.insert(rank);
      protocol::CkptSaveRequest request;
      request.app = app_id;
      request.rank = rank;
      request.version = superstep;
      request.epoch = epoch;
      request.image_bytes = app.task(rank).checkpoint_bytes;
      request.repository = dp_store_ref_;
      request.peers = peer_agents(app, rank,
                                  static_cast<std::size_t>(
                                      std::max(0, dp_replicate_k_)));
      request.notify = self_ref_;
      orb::oneway(orb_, agent, "ckpt_save", request);
    }
    if (app.awaiting.empty()) commit_checkpoint(app);
    return;
  }

  for (std::int32_t rank = 0; rank < app.processes(); ++rank) {
    const auto& task = app.task(rank);
    app.awaiting.insert(rank);
    auto commit = [this, app_id, rank, epoch, superstep] {
      auto it = apps_.find(app_id);
      if (it == apps_.end()) return;
      App& a = it->second;
      if (a.epoch != epoch || a.phase != Phase::kCheckpointing ||
          a.superstep != superstep) {
        return;
      }
      ckpt::Checkpoint checkpoint;
      checkpoint.app = app_id;
      checkpoint.rank = rank;
      checkpoint.version = superstep;
      checkpoint.created_at = engine_.now();
      // Portable state: the superstep index (the simulated app's real
      // payload size is billed on the network, not stored).
      checkpoint.state = cdr::encode_message(ckpt::SequentialState{
          static_cast<MInstr>(superstep + 1) *
          (a.spec.tasks.front().bsp_supersteps > 0
               ? a.spec.tasks.front().work /
                     a.spec.tasks.front().bsp_supersteps
               : 0.0)});
      (void)repository_->store(std::move(checkpoint));

      a.awaiting.erase(rank);
      if (a.awaiting.empty()) commit_checkpoint(a);
    };

    const auto host = app.placement[static_cast<std::size_t>(rank)].lrm.host;
    if (task.checkpoint_bytes > 0 && network_ != nullptr &&
        network_->attached(host) && network_->attached(self_ref_.host)) {
      network_->send(host, self_ref_.host, task.checkpoint_bytes,
                     std::move(commit));
    } else {
      engine_.schedule_after(0, std::move(commit));
    }
  }
}

void BspCoordinator::commit_checkpoint(App& app) {
  const std::int64_t superstep = app.superstep;
  app.committed_superstep = superstep;
  ++app.stats.checkpoints_committed;
  if (repository_ != nullptr) {
    // The committed line supersedes everything older — blob checkpoints and,
    // via the repository's embedded chunk store, manifests whose chunks the
    // refcounted GC can now reclaim.
    repository_->prune(app.spec.id, superstep);
  }
  if (data_plane_enabled()) {
    // Tell the provider-side stores too; their GC runs on the same sweep.
    protocol::CkptPrune prune;
    prune.app = app.spec.id;
    prune.keep_from = superstep;
    for (const orb::ObjectRef& agent : app.agents) {
      orb::oneway(orb_, agent, "ckpt_prune", prune);
    }
  }
  ++app.superstep;
  begin_superstep(app);
}

void BspCoordinator::handle_ckpt_saved(const protocol::CkptSaveDone& done) {
  auto it = apps_.find(done.app);
  if (it == apps_.end()) return;
  App& app = it->second;
  if (app.epoch != done.epoch || app.phase != Phase::kCheckpointing ||
      app.superstep != done.version) {
    return;  // stale: rolled back meanwhile
  }
  if (!done.ok) {
    // Replication failed; the rank stays awaiting so the checkpoint never
    // commits — the same stall semantics as a lost legacy transfer.
    return;
  }
  app.stats.ckpt_image_bytes += done.image_bytes;
  app.stats.ckpt_bytes_shipped += done.bytes_shipped;
  app.stats.ckpt_chunks_shipped += done.chunks_shipped;
  app.stats.ckpt_chunks_deduped += done.chunks_deduped;

  // Keep the blob record alongside the manifest: completeness tracking and
  // the sequential restore path read the repository, and the blob is tiny
  // (portable progress state, no image bytes).
  if (repository_ != nullptr) {
    ckpt::Checkpoint checkpoint;
    checkpoint.app = done.app;
    checkpoint.rank = done.rank;
    checkpoint.version = done.version;
    checkpoint.created_at = engine_.now();
    const auto& shape = app.spec.tasks.front();
    checkpoint.state = cdr::encode_message(ckpt::SequentialState{
        static_cast<MInstr>(done.version + 1) *
        (shape.bsp_supersteps > 0
             ? shape.work / static_cast<MInstr>(shape.bsp_supersteps)
             : 0.0)});
    (void)repository_->store(std::move(checkpoint));
  }

  app.awaiting.erase(done.rank);
  if (app.awaiting.empty()) commit_checkpoint(app);
}

void BspCoordinator::app_cancelled(AppId app_id) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  ++it->second.epoch;  // stale every in-flight chunk/transfer
  drop_checkpoints(it->second);
  apps_.erase(it);
}

void BspCoordinator::finish(App& app) {
  if (app.stats.completed) return;
  app.stats.completed = true;
  app.stats.finished_at = engine_.now();
  drop_checkpoints(app);
  grm_.complete_bsp_app(app.spec.id);
}

}  // namespace integrade::bsp
