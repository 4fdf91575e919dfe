// Checkpointing: machine-independent state capture and storage (paper §3).
//
// "This checkpointing must be machine and operating system independent to
// permit migration of computation across grid nodes." State is serialized
// with the same CDR encoding the protocols use, so a checkpoint written by
// one (simulated) architecture restores anywhere.
//
// The repository lives on the Cluster Manager node. For parallel (BSP)
// applications, a checkpoint *version* (the superstep index at which it was
// taken) is usable for recovery only when every process rank has stored it
// — the barrier guarantees the set is globally consistent; the repository
// tracks completeness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cdr/cdr.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace integrade::ckpt {

class ChunkStore;

struct Checkpoint {
  AppId app;
  std::int32_t rank = 0;      // 0 for sequential tasks
  std::int64_t version = 0;   // monotonically increasing (BSP: superstep)
  SimTime created_at = 0;
  std::vector<std::uint8_t> state;  // CDR-encoded application state

  bool operator==(const Checkpoint&) const = default;
};
constexpr auto wire_fields(const Checkpoint*) {
  using S = Checkpoint;
  return cdr::fields(&S::app, &S::rank, &S::version, &S::created_at, &S::state);
}

/// Portable progress state for sequential/parametric tasks.
struct SequentialState {
  MInstr work_done = 0;
  bool operator==(const SequentialState&) const = default;
};
constexpr auto wire_fields(const SequentialState*) {
  return cdr::fields(&SequentialState::work_done);
}

class CheckpointRepository {
 public:
  CheckpointRepository();
  ~CheckpointRepository();
  CheckpointRepository(const CheckpointRepository&) = delete;
  CheckpointRepository& operator=(const CheckpointRepository&) = delete;

  /// Store a checkpoint. Versions must not regress for a given (app, rank);
  /// older versions are rejected (a stale writer racing a recovery).
  Status store(Checkpoint checkpoint);

  [[nodiscard]] const Checkpoint* latest(AppId app, std::int32_t rank) const;
  [[nodiscard]] const Checkpoint* at_version(AppId app, std::int32_t rank,
                                             std::int64_t version) const;

  /// Highest version stored by *all* ranks 0..processes-1 — the newest
  /// globally consistent recovery line. Nullopt when none is complete.
  [[nodiscard]] std::optional<std::int64_t> latest_complete_version(
      AppId app, std::int32_t processes) const;

  /// Garbage-collect versions older than `keep_from` for an app (called
  /// after a new recovery line is complete).
  void prune(AppId app, std::int64_t keep_from);

  /// Drop all state for an app (it finished or was cancelled).
  void drop_app(AppId app);

  [[nodiscard]] Bytes total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::size_t checkpoint_count() const;
  [[nodiscard]] std::int64_t stores() const { return stores_; }

  /// Attach the content-addressed data plane (see store.hpp). Blob
  /// checkpoints keep working unchanged; once enabled, prune()/drop_app()
  /// also release manifests in the chunk store so its refcounted GC can
  /// reclaim chunk bytes. Idempotent.
  ChunkStore& enable_data_plane();
  [[nodiscard]] ChunkStore* data_plane() { return chunks_.get(); }
  [[nodiscard]] const ChunkStore* data_plane() const { return chunks_.get(); }

 private:
  struct RankKey {
    AppId app;
    std::int32_t rank;
    auto operator<=>(const RankKey&) const = default;
  };
  // rank -> version -> checkpoint (few versions retained per rank).
  std::map<RankKey, std::map<std::int64_t, Checkpoint>> data_;
  Bytes total_bytes_ = 0;
  std::int64_t stores_ = 0;
  std::unique_ptr<ChunkStore> chunks_;  // null until enable_data_plane()
};

}  // namespace integrade::ckpt
