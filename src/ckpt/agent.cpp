#include "ckpt/agent.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "security/sha256.hpp"

namespace integrade::ckpt {

namespace {

/// Transfer frames can carry megabytes; give them more simulated headroom
/// than the default 5 s request deadline.
constexpr SimDuration kTransferTimeout = 30 * kSecond;

/// The agent's own servant: every chunk-store op plus the save/restore
/// entry points the BSP coordinator drives.
class AgentServant final : public StoreServant {
 public:
  AgentServant(CkptAgent& agent, ChunkStore& store)
      : StoreServant(
            store,
            [&agent](const protocol::CkptPrune& p) { agent.handle_prune(p); },
            [&agent](const protocol::CkptDrop& d) { agent.handle_drop(d); }) {
    register_op<protocol::CkptSaveRequest, cdr::Empty>(
        "ckpt_save",
        [&agent](const protocol::CkptSaveRequest& request) -> Result<cdr::Empty> {
          agent.handle_save(request);
          return cdr::Empty{};
        });
    register_op<protocol::CkptRestoreRequest, cdr::Empty>(
        "ckpt_restore",
        [&agent](const protocol::CkptRestoreRequest& request)
            -> Result<cdr::Empty> {
          agent.handle_restore(request);
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CkptAgent:1.0";
  }
};

}  // namespace

StoreServant::StoreServant(ChunkStore& store, PruneHook on_prune,
                           DropHook on_drop) {
  register_op<protocol::CkptManifestOffer, protocol::CkptChunkNeed>(
      "ckpt_offer",
      [&store](const protocol::CkptManifestOffer& offer)
          -> Result<protocol::CkptChunkNeed> {
        protocol::CkptChunkNeed need;
        const protocol::CkptManifest* latest =
            store.latest_manifest(offer.manifest.app, offer.manifest.rank);
        if (latest != nullptr && offer.manifest.version < latest->version) {
          need.accepted = false;
          need.reason = "manifest version regresses for this rank";
          return need;
        }
        need.accepted = true;
        need.missing = store.missing(offer.manifest);
        return need;
      });
  register_op<protocol::CkptChunkPut, protocol::CkptPutReply>(
      "ckpt_put",
      [&store](const protocol::CkptChunkPut& put)
          -> Result<protocol::CkptPutReply> {
        protocol::CkptPutReply reply;
        for (const auto& chunk : put.chunks) {
          // A dedup hit still counts as stored: the chunk is resident.
          if (store.put(chunk, /*verify=*/true).is_ok()) {
            ++reply.stored;
          } else {
            ++reply.rejected;
          }
        }
        return reply;
      });
  register_op<protocol::CkptManifestInstall, protocol::CkptInstallReply>(
      "ckpt_install",
      [&store](const protocol::CkptManifestInstall& install)
          -> Result<protocol::CkptInstallReply> {
        protocol::CkptInstallReply reply;
        const Status status = store.install(install.manifest, install.prune_below);
        reply.accepted = status.is_ok();
        reply.reason = status.message();
        return reply;
      });
  register_op<protocol::CkptManifestQuery, protocol::CkptManifestQueryReply>(
      "ckpt_manifest_latest",
      [&store](const protocol::CkptManifestQuery& query)
          -> Result<protocol::CkptManifestQueryReply> {
        protocol::CkptManifestQueryReply reply;
        const protocol::CkptManifest* latest =
            store.latest_manifest(query.app, query.rank);
        if (latest != nullptr) {
          reply.found = true;
          reply.manifest = *latest;
        }
        return reply;
      });
  register_op<protocol::CkptChunkGet, protocol::CkptChunkGetReply>(
      "ckpt_get",
      [&store](const protocol::CkptChunkGet& get)
          -> Result<protocol::CkptChunkGetReply> {
        protocol::CkptChunkGetReply reply;
        for (const auto& hash : get.hashes) {
          const ChunkStore::StoredChunk* chunk = store.get(hash);
          if (chunk == nullptr) continue;  // partial replies are expected
          protocol::CkptChunkData data;
          data.hash = hash;
          data.encoding = static_cast<std::uint8_t>(chunk->encoding);
          data.raw_size = chunk->raw_size;
          data.payload = chunk->payload;
          reply.chunks.push_back(std::move(data));
        }
        return reply;
      });
  register_op<protocol::CkptPrune, cdr::Empty>(
      "ckpt_prune",
      [&store, on_prune = std::move(on_prune)](const protocol::CkptPrune& prune)
          -> Result<cdr::Empty> {
        if (on_prune) {
          on_prune(prune);
        } else {
          store.prune(prune.app, prune.keep_from);
        }
        return cdr::Empty{};
      });
  register_op<protocol::CkptDrop, cdr::Empty>(
      "ckpt_drop",
      [&store, on_drop = std::move(on_drop)](const protocol::CkptDrop& drop)
          -> Result<cdr::Empty> {
        if (on_drop) {
          on_drop(drop);
        } else {
          store.drop_app(drop.app);
        }
        return cdr::Empty{};
      });
}

// ---------------------------------------------------------------------------
// CkptAgent
// ---------------------------------------------------------------------------

struct CkptAgent::SaveOp {
  protocol::CkptSaveRequest request;
  protocol::CkptManifest manifest;
  protocol::CkptSaveDone done;
  std::vector<orb::ObjectRef> destinations;  // repository first, then peers
  std::size_t next_destination = 0;
  bool cancelled = false;
};

struct CkptAgent::RestoreOp {
  protocol::CkptRestoreRequest request;
  protocol::CkptRestoreDone done;
  std::vector<protocol::CkptHash> missing;  // unique, sorted
  /// Chunks held against concurrent prune/GC for the life of this op:
  /// everything resident at start plus everything ingested since. Released
  /// by finish_restore or whenever the op is cancelled.
  std::vector<protocol::CkptHash> pinned;
  int stage = 0;  // 0 = peers (striped), 1 = repository, 2 = peers one-by-one
  std::size_t retry_peer = 0;
  int outstanding = 0;  // replies pending in the striped wave
  bool cancelled = false;
};

CkptAgent::CkptAgent(sim::Engine& engine, orb::Orb& orb, DataPlaneOptions options)
    : engine_(engine), orb_(orb), options_(options) {
  (void)engine_;
}

CkptAgent::~CkptAgent() {
  stop();
  *alive_ = false;
}

void CkptAgent::start() {
  if (started_) return;
  auto servant = std::make_shared<AgentServant>(*this, store_);
  // Keep the object key across crash/restart cycles so references peers
  // already hold stay valid (persistent-IOR style, like the LRM servant).
  self_ref_ = self_ref_.valid() ? orb_.activate(std::move(servant), self_ref_.key)
                                : orb_.activate(std::move(servant));
  started_ = true;
}

void CkptAgent::stop() {
  if (!started_) return;
  abort_inflight();
  orb_.deactivate(self_ref_.key);
  started_ = false;
}

void CkptAgent::abort_inflight() {
  for (auto& [key, op] : saves_) op->cancelled = true;
  for (auto& [key, op] : restores_) {
    op->cancelled = true;
    release_pins(*op);
  }
  saves_.clear();
  restores_.clear();
  // The chunk store models on-disk state and survives; the incremental image
  // caches model process memory and do not.
  lines_.clear();
}

protocol::CkptManifest CkptAgent::build_manifest(AppId app, std::int32_t rank,
                                                 std::int64_t model_step,
                                                 std::int64_t version,
                                                 Bytes image_bytes,
                                                 std::int64_t prune_below) {
  if (image_bytes < 0) image_bytes = 0;
  protocol::CkptManifest manifest;
  manifest.app = app;
  manifest.rank = rank;
  manifest.version = version;
  manifest.chunker = static_cast<std::uint8_t>(options_.chunking.chunker);
  manifest.chunk_size = options_.chunking.chunk_size;
  manifest.image_bytes = static_cast<std::uint64_t>(image_bytes);

  const ImageModelParams params{.image_bytes = image_bytes};
  const ImageModel model(app, rank, params);
  auto store_raw = [this](const std::vector<std::uint8_t>& raw) {
    const ChunkHash hash = security::Sha256::hash(raw);
    if (!store_.has(hash)) {
      PackedChunk packed = pack_chunk(raw, options_.compress);
      (void)store_.put(hash, packed.encoding, packed.raw_size,
                       std::move(packed.payload), /*verify=*/false);
    }
    return hash;
  };

  const std::uint32_t chunk_size =
      std::max<std::uint32_t>(1, options_.chunking.chunk_size);
  const bool incremental = options_.chunking.chunker == Chunker::kFixed &&
                           params.page_size > 0 &&
                           chunk_size % params.page_size == 0;
  if (incremental) {
    // Page-aligned fixed chunks: advance the cached per-page versions by the
    // dirty sets of the supersteps since the last save and re-render (and
    // re-hash) only the chunks a dirty page falls in.
    auto& cache = lines_[LineKey{app.value, rank}];
    const std::size_t pages_per_chunk = chunk_size / params.page_size;
    const std::size_t chunk_count =
        image_bytes > 0 ? (static_cast<std::size_t>(image_bytes) + chunk_size - 1) /
                              chunk_size
                        : 0;
    const bool fresh = cache.image_bytes != image_bytes ||
                       cache.model_step > model_step ||
                       cache.chunk_refs.size() != chunk_count;
    if (fresh) {
      cache.image_bytes = image_bytes;
      cache.model_step = 0;
      cache.page_versions.assign(model.pages(), 0);
      cache.chunk_refs.assign(chunk_count, {});
    } else if (cache.page_versions.size() != model.pages()) {
      // Primed by a restore, which keeps only the chunk refs: this save
      // continues from it, so replay the dirty sets up to the restored step.
      cache.page_versions.assign(model.pages(), 0);
      for (std::int64_t t = 1; t <= cache.model_step; ++t) {
        for (std::size_t page : model.dirty_pages(t)) {
          ++cache.page_versions[page];
        }
      }
    }
    std::vector<char> dirty(chunk_count, fresh ? 1 : 0);
    for (std::int64_t t = cache.model_step + 1; t <= model_step; ++t) {
      for (std::size_t page : model.dirty_pages(t)) {
        ++cache.page_versions[page];
        dirty[page / pages_per_chunk] = 1;
      }
    }
    cache.model_step = model_step;
    std::vector<std::uint8_t> raw;
    std::vector<std::uint8_t> page;
    for (std::size_t c = 0; c < chunk_count; ++c) {
      if (dirty[c] == 0) continue;
      raw.clear();
      const std::size_t first = c * pages_per_chunk;
      const std::size_t last = std::min(first + pages_per_chunk, model.pages());
      for (std::size_t p = first; p < last; ++p) {
        model.render_page(p, cache.page_versions[p], page);
        raw.insert(raw.end(), page.begin(), page.end());
      }
      cache.chunk_refs[c] = {store_raw(raw), static_cast<std::uint32_t>(raw.size())};
    }
    manifest.chunks = cache.chunk_refs;
  } else {
    // CDC (or misaligned fixed) chunker: boundaries depend on content, so
    // render the full image and chunk it from scratch.
    const std::vector<std::uint8_t> image = model.render(model_step);
    for (const ChunkSpan& span : chunk_spans(image, options_.chunking)) {
      const std::vector<std::uint8_t> raw(
          image.begin() + static_cast<std::ptrdiff_t>(span.offset),
          image.begin() + static_cast<std::ptrdiff_t>(span.offset + span.size));
      manifest.chunks.push_back({store_raw(raw), span.size});
    }
  }
  (void)store_.install(manifest, prune_below);
  return manifest;
}

void CkptAgent::handle_save(const protocol::CkptSaveRequest& request) {
  if (!started_) return;
  const LineKey key{request.app.value, request.rank};
  if (auto it = saves_.find(key); it != saves_.end()) {
    it->second->cancelled = true;
    saves_.erase(it);
  }
  auto op = std::make_shared<SaveOp>();
  op->request = request;
  op->done.app = request.app;
  op->done.rank = request.rank;
  op->done.version = request.version;
  op->done.epoch = request.epoch;
  op->done.image_bytes = request.image_bytes;
  // BSP checkpoints: the superstep is both the manifest version and the
  // image-model step.
  op->manifest = build_manifest(request.app, request.rank,
                                /*model_step=*/request.version, request.version,
                                static_cast<Bytes>(request.image_bytes),
                                request.prune_below);
  op->done.chunks_total = static_cast<std::int32_t>(op->manifest.chunks.size());
  if (request.repository.valid()) {
    op->destinations.push_back(request.repository);
  }
  for (const auto& peer : request.peers) {
    if (peer.valid() && peer.host != orb_.address()) {
      op->destinations.push_back(peer);
    }
  }
  metrics_.counter("saves").add();
  saves_[key] = op;
  ship_next(op);
}

void CkptAgent::ship_next(const std::shared_ptr<SaveOp>& op) {
  if (op->cancelled) return;
  if (op->next_destination >= op->destinations.size()) {
    finish_save(op, true);
    return;
  }
  const orb::ObjectRef dest = op->destinations[op->next_destination];
  auto alive = alive_;
  auto send_missing = [this, op, dest, alive](
                          const std::vector<std::uint32_t>& indices) {
    op->done.chunks_deduped += static_cast<std::int32_t>(
        op->manifest.chunks.size() - indices.size());
    auto install = [this, op, dest, alive]() {
      protocol::CkptManifestInstall msg;
      msg.manifest = op->manifest;
      msg.prune_below = op->request.prune_below;
      orb::call<protocol::CkptManifestInstall, protocol::CkptInstallReply>(
          orb_, dest, "ckpt_install", msg,
          [this, op, alive](Result<protocol::CkptInstallReply> reply) {
            if (!*alive || op->cancelled) return;
            if (!reply.is_ok() || !reply.value().accepted) {
              finish_save(op, false);
              return;
            }
            ++op->next_destination;
            ship_next(op);
          });
    };
    if (indices.empty()) {
      install();
      return;
    }
    protocol::CkptChunkPut put;
    put.app = op->manifest.app;
    put.chunks = chunk_payloads(op->manifest, indices);
    op->done.chunks_shipped += static_cast<std::int32_t>(put.chunks.size());
    for (const auto& chunk : put.chunks) {
      op->done.bytes_shipped += static_cast<std::int64_t>(chunk.payload.size());
    }
    orb::call<protocol::CkptChunkPut, protocol::CkptPutReply>(
        orb_, dest, "ckpt_put", put,
        [this, op, alive, install](Result<protocol::CkptPutReply> reply) {
          if (!*alive || op->cancelled) return;
          if (!reply.is_ok() || reply.value().rejected > 0) {
            finish_save(op, false);
            return;
          }
          install();
        },
        kTransferTimeout);
  };
  if (!options_.dedup) {
    // Baseline: no negotiation, the full image ships to every destination.
    std::vector<std::uint32_t> all(op->manifest.chunks.size());
    std::iota(all.begin(), all.end(), 0U);
    send_missing(all);
    return;
  }
  protocol::CkptManifestOffer offer;
  offer.manifest = op->manifest;
  orb::call<protocol::CkptManifestOffer, protocol::CkptChunkNeed>(
      orb_, dest, "ckpt_offer", offer,
      [this, op, alive, send_missing](Result<protocol::CkptChunkNeed> need) {
        if (!*alive || op->cancelled) return;
        if (!need.is_ok() || !need.value().accepted) {
          finish_save(op, false);
          return;
        }
        send_missing(need.value().missing);
      });
}

void CkptAgent::finish_save(const std::shared_ptr<SaveOp>& op, bool ok) {
  const LineKey key{op->request.app.value, op->request.rank};
  if (auto it = saves_.find(key); it != saves_.end() && it->second == op) {
    saves_.erase(it);
  }
  op->cancelled = true;
  op->done.ok = ok;
  metrics_.counter(ok ? "saves_ok" : "save_failures").add();
  metrics_.counter("chunks_shipped").add(op->done.chunks_shipped);
  metrics_.counter("chunks_deduped").add(op->done.chunks_deduped);
  metrics_.counter("bytes_shipped").add(op->done.bytes_shipped);
  if (op->request.notify.valid()) {
    orb::oneway(orb_, op->request.notify, "ckpt_saved", op->done);
  }
}

void CkptAgent::save_sequential(AppId app, std::int32_t rank,
                                std::int64_t version, Bytes image_bytes,
                                const std::vector<orb::ObjectRef>& peers) {
  if (!started_ || !repository_.valid()) return;
  const LineKey key{app.value, rank};
  const std::int64_t ordinal = ++lines_[key].seq_ordinal;
  if (auto it = saves_.find(key); it != saves_.end()) {
    it->second->cancelled = true;
    saves_.erase(it);
  }
  auto op = std::make_shared<SaveOp>();
  op->request.app = app;
  op->request.rank = rank;
  op->request.version = version;
  op->request.image_bytes = static_cast<std::int64_t>(image_bytes);
  op->request.repository = repository_;
  // Sequential tasks only roll back to their latest checkpoint, so each save
  // trims the line behind itself in every store that installs it, this
  // agent's own included (refcounted GC reclaims the chunks; chunks an
  // in-flight restore pins stay until it ends). A later save re-packs what
  // the trim reclaimed and the new content needs again.
  op->request.prune_below = version;
  op->done.app = app;
  op->done.rank = rank;
  op->done.version = version;
  op->done.image_bytes = static_cast<std::int64_t>(image_bytes);
  op->manifest = build_manifest(app, rank, /*model_step=*/ordinal, version,
                                image_bytes, op->request.prune_below);
  op->done.chunks_total = static_cast<std::int32_t>(op->manifest.chunks.size());
  op->destinations.push_back(repository_);
  for (const auto& peer : peers) {
    if (peer.valid() && peer.host != orb_.address()) {
      op->request.peers.push_back(peer);
      op->destinations.push_back(peer);
    }
  }
  metrics_.counter("seq_saves").add();
  saves_[key] = op;
  ship_next(op);
}

void CkptAgent::handle_restore(const protocol::CkptRestoreRequest& request) {
  if (!started_) return;
  const LineKey key{request.app.value, request.rank};
  if (auto it = restores_.find(key); it != restores_.end()) {
    it->second->cancelled = true;
    release_pins(*it->second);
    restores_.erase(it);
  }
  // Whatever the incremental cache held is stale after a rollback; it is
  // re-primed from the restored manifest on success.
  lines_.erase(key);
  auto op = std::make_shared<RestoreOp>();
  op->request = request;
  op->done.app = request.app;
  op->done.rank = request.rank;
  op->done.version = request.version;
  op->done.epoch = request.epoch;
  if (options_.dedup) {
    for (std::uint32_t index : store_.missing(request.manifest)) {
      op->missing.push_back(request.manifest.chunks[index].hash);
    }
    op->done.chunks_local = static_cast<std::int32_t>(
        request.manifest.chunks.size() - op->missing.size());
  } else {
    // Baseline: the whole image re-ships from the central repository even
    // when the local store already holds every chunk.
    for (const auto& ref : request.manifest.chunks) {
      op->missing.push_back(ref.hash);
    }
    op->stage = 1;
  }
  std::sort(op->missing.begin(), op->missing.end());
  op->missing.erase(std::unique(op->missing.begin(), op->missing.end()),
                    op->missing.end());
  // Pin every manifest chunk already resident: a prune (another line's GC,
  // an orphan sweep) racing this restore must not reclaim chunks the final
  // install will reference.
  for (const auto& ref : request.manifest.chunks) {
    if (store_.has(ref.hash)) pin_for_restore(*op, ref.hash);
  }
  metrics_.counter("restores").add();
  restores_[key] = op;
  restore_step(op);
}

void CkptAgent::pin_for_restore(RestoreOp& op, const protocol::CkptHash& hash) {
  if (std::find(op.pinned.begin(), op.pinned.end(), hash) != op.pinned.end()) {
    return;
  }
  store_.pin(hash);
  op.pinned.push_back(hash);
}

void CkptAgent::release_pins(RestoreOp& op) {
  for (const auto& hash : op.pinned) store_.unpin(hash);
  op.pinned.clear();
}

void CkptAgent::restore_step(const std::shared_ptr<RestoreOp>& op) {
  if (op->cancelled) return;
  if (op->missing.empty()) {
    const Status installed = store_.install(op->request.manifest);
    finish_restore(op, installed.is_ok());
    return;
  }
  auto alive = alive_;
  if (op->stage == 0) {
    // Stripe the missing set across every reachable peer, in parallel.
    std::vector<orb::ObjectRef> targets;
    for (const auto& peer : op->request.peers) {
      if (peer.valid() && peer.host != orb_.address()) targets.push_back(peer);
    }
    if (targets.empty()) {
      op->stage = 1;
      restore_step(op);
      return;
    }
    std::vector<protocol::CkptChunkGet> gets(targets.size());
    for (std::size_t i = 0; i < op->missing.size(); ++i) {
      gets[i % targets.size()].hashes.push_back(op->missing[i]);
    }
    op->outstanding = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (gets[i].hashes.empty()) continue;
      ++op->outstanding;
      orb::call<protocol::CkptChunkGet, protocol::CkptChunkGetReply>(
          orb_, targets[i], "ckpt_get", gets[i],
          [this, op, alive](Result<protocol::CkptChunkGetReply> reply) {
            if (!*alive || op->cancelled) return;
            if (reply.is_ok()) ingest(*op, reply.value(), false);
            if (--op->outstanding == 0) {
              op->stage = 1;
              restore_step(op);
            }
          },
          kTransferTimeout);
    }
    if (op->outstanding == 0) {
      op->stage = 1;
      restore_step(op);
    }
    return;
  }
  if (op->stage == 1) {
    op->stage = 2;
    if (!op->request.repository.valid()) {
      restore_step(op);
      return;
    }
    protocol::CkptChunkGet get;
    get.hashes = op->missing;
    orb::call<protocol::CkptChunkGet, protocol::CkptChunkGetReply>(
        orb_, op->request.repository, "ckpt_get", get,
        [this, op, alive](Result<protocol::CkptChunkGetReply> reply) {
          if (!*alive || op->cancelled) return;
          if (reply.is_ok()) ingest(*op, reply.value(), true);
          restore_step(op);
        },
        kTransferTimeout);
    return;
  }
  // Stage 2: the striped wave and the repository both left gaps (crashed
  // peers, a partitioned manager). Ask each peer for the full remainder,
  // one at a time.
  if (!options_.dedup) {
    finish_restore(op, false);  // baseline has no peer fallback
    return;
  }
  while (op->retry_peer < op->request.peers.size()) {
    const orb::ObjectRef peer = op->request.peers[op->retry_peer++];
    if (!peer.valid() || peer.host == orb_.address()) continue;
    protocol::CkptChunkGet get;
    get.hashes = op->missing;
    orb::call<protocol::CkptChunkGet, protocol::CkptChunkGetReply>(
        orb_, peer, "ckpt_get", get,
        [this, op, alive](Result<protocol::CkptChunkGetReply> reply) {
          if (!*alive || op->cancelled) return;
          if (reply.is_ok()) ingest(*op, reply.value(), false);
          restore_step(op);
        },
        kTransferTimeout);
    return;
  }
  finish_restore(op, false);
}

void CkptAgent::ingest(RestoreOp& op, const protocol::CkptChunkGetReply& reply,
                       bool from_repository) {
  for (const auto& chunk : reply.chunks) {
    auto it = std::find(op.missing.begin(), op.missing.end(), chunk.hash);
    if (it == op.missing.end()) continue;  // unrequested or already ingested
    if (!store_.has(chunk.hash)) {
      if (!store_.put(chunk, /*verify=*/true).is_ok()) {
        // Corrupt payload: keep the hash missing so another source can
        // supply a good copy.
        metrics_.counter("restore_chunks_rejected").add();
        continue;
      }
    }
    pin_for_restore(op, chunk.hash);
    op.done.bytes_pulled += static_cast<std::int64_t>(chunk.payload.size());
    if (from_repository) {
      ++op.done.chunks_from_repository;
    } else {
      ++op.done.chunks_from_peers;
    }
    op.missing.erase(it);
  }
}

void CkptAgent::finish_restore(const std::shared_ptr<RestoreOp>& op, bool ok) {
  const LineKey key{op->request.app.value, op->request.rank};
  if (auto it = restores_.find(key); it != restores_.end() && it->second == op) {
    restores_.erase(it);
  }
  op->cancelled = true;
  // On success the install's refcounts now hold the chunks; on failure the
  // orphan sweep may reclaim what we pulled. Either way the pins come off.
  release_pins(*op);
  op->done.ok = ok;
  metrics_.counter(ok ? "restores_ok" : "restore_failures").add();
  metrics_.counter("restore_bytes_pulled").add(op->done.bytes_pulled);
  metrics_.counter("restore_chunks_from_peers").add(op->done.chunks_from_peers);
  metrics_.counter("restore_chunks_from_repository")
      .add(op->done.chunks_from_repository);
  const protocol::CkptManifest& manifest = op->request.manifest;
  if (ok && options_.chunking.chunker == Chunker::kFixed &&
      manifest.chunker == static_cast<std::uint8_t>(Chunker::kFixed) &&
      manifest.chunk_size == options_.chunking.chunk_size &&
      options_.chunking.chunk_size % ImageModelParams{}.page_size == 0) {
    // Prime the incremental cache from the restored manifest so the next
    // save renders only the pages dirtied after the restored superstep.
    // The page versions are left empty: build_manifest replays them only if
    // a save continues from this cache. A sequential save seldom does: its
    // model step is a per-line save ordinal, far below a version in seconds.
    LineCache cache;
    cache.image_bytes = static_cast<Bytes>(manifest.image_bytes);
    cache.model_step = manifest.version;
    cache.chunk_refs = manifest.chunks;
    lines_[key] = std::move(cache);
  }
  if (op->request.notify.valid()) {
    orb::oneway(orb_, op->request.notify, "ckpt_restored", op->done);
  }
}

void CkptAgent::warm_restore(AppId app, std::int32_t rank,
                             std::vector<orb::ObjectRef> peers) {
  if (!started_ || peers.empty()) return;
  metrics_.counter("warm_restores").add();
  try_warm_peer(app, rank,
                std::make_shared<std::vector<orb::ObjectRef>>(std::move(peers)),
                0);
}

void CkptAgent::try_warm_peer(AppId app, std::int32_t rank,
                              std::shared_ptr<std::vector<orb::ObjectRef>> peers,
                              std::size_t index) {
  for (; index < peers->size(); ++index) {
    const orb::ObjectRef& peer = (*peers)[index];
    if (!peer.valid() || peer.host == orb_.address()) continue;
    protocol::CkptManifestQuery query;
    query.app = app;
    query.rank = rank;
    auto alive = alive_;
    orb::call<protocol::CkptManifestQuery, protocol::CkptManifestQueryReply>(
        orb_, peer, "ckpt_manifest_latest", query,
        [this, alive, app, rank, peers,
         index](Result<protocol::CkptManifestQueryReply> reply) {
          if (!*alive) return;
          if (!reply.is_ok() || !reply.value().found) {
            try_warm_peer(app, rank, peers, index + 1);
            return;
          }
          const protocol::CkptManifest* local =
              store_.latest_manifest(app, rank);
          if (local != nullptr &&
              local->version >= reply.value().manifest.version) {
            return;  // already as warm as the peers
          }
          protocol::CkptRestoreRequest request;
          request.app = app;
          request.rank = rank;
          request.version = reply.value().manifest.version;
          request.manifest = reply.value().manifest;
          request.repository = repository_;
          request.peers = *peers;
          handle_restore(request);
        },
        kTransferTimeout);
    return;
  }
}

void CkptAgent::handle_prune(const protocol::CkptPrune& prune) {
  store_.prune(prune.app, prune.keep_from);
}

void CkptAgent::handle_drop(const protocol::CkptDrop& drop) {
  store_.drop_app(drop.app);
  for (auto it = lines_.begin(); it != lines_.end();) {
    it = it->first.app == drop.app.value ? lines_.erase(it) : std::next(it);
  }
  for (auto it = saves_.begin(); it != saves_.end();) {
    if (it->first.app == drop.app.value) {
      it->second->cancelled = true;
      it = saves_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = restores_.begin(); it != restores_.end();) {
    if (it->first.app == drop.app.value) {
      it->second->cancelled = true;
      release_pins(*it->second);
      it = restores_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<protocol::CkptChunkData> CkptAgent::chunk_payloads(
    const protocol::CkptManifest& manifest,
    const std::vector<std::uint32_t>& indices) const {
  std::vector<protocol::CkptChunkData> out;
  out.reserve(indices.size());
  // A manifest can reference the same chunk at several offsets; ship each
  // hash once.
  std::vector<protocol::CkptHash> seen;
  for (std::uint32_t index : indices) {
    if (index >= manifest.chunks.size()) continue;
    const protocol::CkptHash& hash = manifest.chunks[index].hash;
    if (std::find(seen.begin(), seen.end(), hash) != seen.end()) continue;
    const ChunkStore::StoredChunk* chunk = store_.get(hash);
    if (chunk == nullptr) continue;
    protocol::CkptChunkData data;
    data.hash = hash;
    data.encoding = static_cast<std::uint8_t>(chunk->encoding);
    data.raw_size = chunk->raw_size;
    data.payload = chunk->payload;
    out.push_back(std::move(data));
    seen.push_back(hash);
  }
  return out;
}

}  // namespace integrade::ckpt
