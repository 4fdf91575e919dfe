// The BSP runtime (paper §3).
//
// "InteGrade adopts BSP as the model for parallel computation; imposing
// frequent synchronizations among application nodes." A BSP application is
// P processes advancing through supersteps; each superstep is
//
//     compute(w) -> exchange(h) -> barrier
//
// and the barrier is exactly where a *globally consistent* checkpoint is
// free: no messages are in flight, so saving every process's state yields a
// recovery line without message logging — the design answer to the paper's
// "what should [checkpointing] do with ongoing communications?" question.
//
// The coordinator runs on the Cluster Manager. It drives compute chunks on
// the ranks' LRMs, models the h-relation exchange on the simulated network
// (ring pattern), applies Valiant's barrier latency, ships checkpoint state
// to the repository every k supersteps, and — when the GRM reports a rank
// evicted — suspends the app, waits for the replacement placement, and
// rolls every rank back to the last complete checkpoint version.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "ckpt/repository.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "grm/grm.hpp"
#include "orb/orb.hpp"
#include "protocol/messages.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace integrade::bsp {

struct AppStats {
  SimTime started_at = 0;
  SimTime finished_at = kTimeNever;
  std::int64_t supersteps_completed = 0;
  std::int64_t chunks_issued = 0;
  int rollbacks = 0;
  std::int64_t supersteps_replayed = 0;  // lost to rollback
  int checkpoints_committed = 0;
  bool completed = false;

  // Checkpoint data-plane accounting (zero when the plane is disabled).
  std::int64_t ckpt_image_bytes = 0;     // logical bytes checkpointed
  std::int64_t ckpt_bytes_shipped = 0;   // payload bytes that crossed the wire
  std::int64_t ckpt_chunks_shipped = 0;
  std::int64_t ckpt_chunks_deduped = 0;
  int restores = 0;                      // completed restore rounds
  SimDuration restore_time_total = 0;    // resume() -> all ranks restored
  std::int64_t restore_bytes_pulled = 0;
  std::int64_t restore_chunks_local = 0;
  std::int64_t restore_chunks_from_peers = 0;
  std::int64_t restore_chunks_from_repository = 0;

  [[nodiscard]] SimDuration elapsed() const {
    return completed ? finished_at - started_at : -1;
  }
};

class BspCoordinator {
 public:
  BspCoordinator(sim::Engine& engine, orb::Orb& orb, grm::Grm& grm,
                 ckpt::CheckpointRepository* repository, sim::Network* network);
  ~BspCoordinator();
  BspCoordinator(const BspCoordinator&) = delete;
  BspCoordinator& operator=(const BspCoordinator&) = delete;

  /// Activates the chunk_done servant and hooks the GRM's BSP handlers.
  void start();
  void stop();

  /// Route checkpoints through the content-addressed data plane instead of
  /// the legacy whole-image network bill. `repository_store` is the chunk
  /// store co-located with this coordinator (the manager's repository),
  /// `repository_store_ref` its wire ref for the agents, `agent_of` resolves
  /// a provider node to its CkptAgent ref, and `replicate_k` is how many
  /// peer stores each rank's checkpoint also lands on.
  void set_data_plane(ckpt::ChunkStore* repository_store,
                      orb::ObjectRef repository_store_ref,
                      std::function<orb::ObjectRef(NodeId)> agent_of,
                      int replicate_k);

  [[nodiscard]] const AppStats* stats(AppId app) const;

  // --- GRM hook entry points (public for tests) ---
  void app_ready(AppId app);
  void rank_placed(AppId app, std::int32_t rank, const grm::Grm::Placement& p);
  void rank_lost(AppId app, std::int32_t rank);
  void app_cancelled(AppId app);
  void handle_chunk_done(const protocol::BspChunkDone& done);
  void handle_ckpt_saved(const protocol::CkptSaveDone& done);
  void handle_ckpt_restored(const protocol::CkptRestoreDone& done);

 private:
  enum class Phase {
    kComputing,
    kExchanging,
    kBarrier,
    kCheckpointing,
    kRestoring,
    kSuspended,
  };

  struct App {
    protocol::ApplicationSpec spec;
    std::vector<grm::Grm::Placement> placement;  // by rank
    std::vector<bool> rank_up;
    Phase phase = Phase::kSuspended;
    std::int64_t superstep = 0;           // currently executing
    std::int64_t committed_superstep = -1; // last complete checkpoint line
    std::uint64_t epoch = 0;  // bumped on every suspend; stales old events
    std::set<std::int32_t> awaiting;      // ranks not yet done with phase
    SimTime restore_started_at = 0;       // kRestoring entry time
    AppStats stats;
    /// With the data plane, the agent of every node that has hosted one of
    /// the ranks, in the order they first did: the stores a commit prunes
    /// and a finish or cancel empties. A rank that moves leaves its
    /// checkpoints behind, so the list only grows.
    std::vector<orb::ObjectRef> agents;

    [[nodiscard]] std::int32_t processes() const {
      return static_cast<std::int32_t>(spec.tasks.size());
    }
    [[nodiscard]] const protocol::TaskDescriptor& task(std::int32_t rank) const {
      return spec.tasks[static_cast<std::size_t>(rank)];
    }
    [[nodiscard]] bool all_up() const {
      for (bool up : rank_up) {
        if (!up) return false;
      }
      return true;
    }
  };

  void begin_superstep(App& app);
  void begin_exchange(App& app);
  void begin_barrier(App& app);
  void after_barrier(App& app);
  void begin_checkpoint(App& app);
  void commit_checkpoint(App& app);
  void resume(App& app);
  void finish(App& app);
  void suspend(App& app);

  [[nodiscard]] bool data_plane_enabled() const {
    return dp_store_ != nullptr && static_cast<bool>(dp_agent_of_);
  }
  /// Agents of the nodes hosting the other ranks, nearest ranks first, no
  /// duplicates, excluding `rank`'s own node. The first replicate_k entries
  /// are the save-time replica set; restore stripes across all of them.
  [[nodiscard]] std::vector<orb::ObjectRef> peer_agents(const App& app,
                                                        std::int32_t rank,
                                                        std::size_t limit) const;
  /// Place `rank` on `placement`, and add its node's agent to app.agents.
  void place_rank(App& app, std::int32_t rank,
                  const grm::Grm::Placement& placement);
  /// Forget every checkpoint of `app`: the repository's and, with the data
  /// plane, the stores of app.agents.
  void drop_checkpoints(const App& app);

  sim::Engine& engine_;
  orb::Orb& orb_;
  grm::Grm& grm_;
  ckpt::CheckpointRepository* repository_;
  sim::Network* network_;

  orb::ObjectRef self_ref_;
  std::map<AppId, App> apps_;
  bool started_ = false;

  // Checkpoint data plane (null/empty = legacy whole-image path).
  ckpt::ChunkStore* dp_store_ = nullptr;
  orb::ObjectRef dp_store_ref_;
  std::function<orb::ObjectRef(NodeId)> dp_agent_of_;
  int dp_replicate_k_ = 0;
};

}  // namespace integrade::bsp
