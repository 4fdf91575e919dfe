// Content-addressed chunk store: the node-local half of the checkpoint data
// plane.
//
// Chunks are keyed by the SHA-256 of their raw bytes and stored packed
// (LZ-compressed when that wins). Checkpoints are manifests referencing
// chunks; installing a manifest pins its chunks via refcounts, removing one
// (prune / drop_app) unpins them, and a chunk whose refcount reaches zero is
// reclaimed immediately — that is the GC the repository's prune() was
// missing when checkpoints were opaque blobs. Chunks put ahead of a manifest
// install start at refcount zero and are swept by the next prune if the
// install never lands (an aborted save).
//
// Every network ingest is verified: the payload is unpacked and re-hashed,
// and a mismatch against the declared content hash is rejected — corruption
// (or a malicious peer) cannot poison the store.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ckpt/compress.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "protocol/messages.hpp"

namespace integrade::ckpt {

class ChunkStore {
 public:
  struct StoredChunk {
    Encoding encoding = Encoding::kRaw;
    std::uint32_t raw_size = 0;
    std::vector<std::uint8_t> payload;
    std::int32_t refs = 0;  // manifests referencing this chunk
    /// In-flight restores holding this chunk (see pin()). A pinned chunk is
    /// never reclaimed, whatever its refcount: a prune racing a striped
    /// peer restore must not evict chunks the restore is about to install.
    std::int32_t pins = 0;
    /// Consecutive prune sweeps that found this chunk unreferenced. An
    /// orphan (its writer died between put and manifest install) is only
    /// reclaimed after two sweeps, so a prune from one app cannot evict
    /// chunks another app just shipped and is about to install.
    std::int32_t orphan_sweeps = 0;
  };

  [[nodiscard]] bool has(const protocol::CkptHash& hash) const;
  [[nodiscard]] const StoredChunk* get(const protocol::CkptHash& hash) const;

  /// Ingest a packed chunk. With `verify` (every network ingest) the payload
  /// is unpacked and re-hashed against `hash`; locally generated chunks skip
  /// the round-trip. Returns true when newly stored, false on a dedup hit.
  Result<bool> put(const protocol::CkptHash& hash, Encoding encoding,
                   std::uint32_t raw_size, std::vector<std::uint8_t> payload,
                   bool verify);
  Result<bool> put(const protocol::CkptChunkData& chunk, bool verify = true);

  /// Indices into manifest.chunks of chunks this store lacks.
  [[nodiscard]] std::vector<std::uint32_t> missing(
      const protocol::CkptManifest& manifest) const;

  /// Hold a resident chunk against reclamation while an in-flight restore
  /// references it. No-op when the chunk is absent. Balanced by unpin(),
  /// which reclaims immediately if the last pin drops off an unreferenced
  /// chunk (the restore aborted before installing its manifest).
  void pin(const protocol::CkptHash& hash);
  void unpin(const protocol::CkptHash& hash);

  /// Commit a manifest. All referenced chunks must be resident; versions
  /// must not regress per (app, rank). Re-installing the same version is
  /// idempotent. prune_below >= 0 also trims this (app, rank) line below
  /// that version (prune_line): how every store that installs a sequential
  /// save, the writer's own included, keeps only the line's newest version.
  Status install(protocol::CkptManifest manifest, std::int64_t prune_below = -1);

  [[nodiscard]] const protocol::CkptManifest* manifest(
      AppId app, std::int32_t rank, std::int64_t version) const;
  [[nodiscard]] const protocol::CkptManifest* latest_manifest(
      AppId app, std::int32_t rank) const;

  /// Highest version every rank 0..processes-1 has a manifest for.
  [[nodiscard]] std::optional<std::int64_t> latest_complete_version(
      AppId app, std::int32_t processes) const;

  /// Drop manifests below keep_from for an app, release their chunk refs,
  /// reclaim unreferenced chunks (including orphans from aborted saves).
  void prune(AppId app, std::int64_t keep_from);
  /// Same, but scoped to a single (app, rank) line and without the orphan
  /// sweep — used by install(prune_below) on the sequential path, where each
  /// rank trims only its own history.
  void prune_line(AppId app, std::int32_t rank, std::int64_t keep_from);
  void drop_app(AppId app);

  /// Reassemble a full image from an installed manifest (restart path).
  [[nodiscard]] Result<std::vector<std::uint8_t>> materialize(
      AppId app, std::int32_t rank, std::int64_t version) const;

  // Accounting. *_total are cumulative; *_resident track current occupancy.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] std::size_t manifest_count() const;
  [[nodiscard]] Bytes stored_bytes() const { return stored_bytes_; }   // packed, resident
  [[nodiscard]] Bytes raw_bytes() const { return raw_bytes_; }         // unpacked, resident
  [[nodiscard]] Bytes bytes_reclaimed() const { return bytes_reclaimed_; }
  [[nodiscard]] Bytes logical_bytes_installed() const { return logical_bytes_installed_; }
  [[nodiscard]] Bytes raw_bytes_added() const { return raw_bytes_added_; }
  [[nodiscard]] Bytes stored_bytes_added() const { return stored_bytes_added_; }
  [[nodiscard]] std::int64_t puts() const { return puts_; }
  [[nodiscard]] std::int64_t dedup_hits() const { return dedup_hits_; }
  [[nodiscard]] std::int64_t rejects() const { return rejects_; }
  [[nodiscard]] std::int64_t installs() const { return installs_; }
  [[nodiscard]] std::int64_t chunks_reclaimed() const { return chunks_reclaimed_; }

  /// Cumulative logical bytes installed / cumulative raw bytes stored — the
  /// dedup ratio across every checkpoint this store has accepted.
  [[nodiscard]] double dedup_ratio() const;
  /// Raw/packed for the chunks currently resident (compression win).
  [[nodiscard]] double compression_ratio() const;

  /// Fill `out` with this store's counters (a MetricsHub pull source).
  void fill_metrics(MetricRegistry& out) const;

 private:
  struct LineKey {
    AppId app;
    std::int32_t rank;
    auto operator<=>(const LineKey&) const = default;
  };

  void release_manifest(const protocol::CkptManifest& m);
  void reclaim_if_unreferenced(const protocol::CkptHash& hash);

  std::map<protocol::CkptHash, StoredChunk> chunks_;
  std::map<LineKey, std::map<std::int64_t, protocol::CkptManifest>> manifests_;

  Bytes stored_bytes_ = 0;
  Bytes raw_bytes_ = 0;
  Bytes bytes_reclaimed_ = 0;
  Bytes logical_bytes_installed_ = 0;
  Bytes raw_bytes_added_ = 0;
  Bytes stored_bytes_added_ = 0;
  std::int64_t puts_ = 0;
  std::int64_t dedup_hits_ = 0;
  std::int64_t rejects_ = 0;
  std::int64_t installs_ = 0;
  std::int64_t chunks_reclaimed_ = 0;
};

}  // namespace integrade::ckpt
