#include "orb/orb.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/log.hpp"

namespace integrade::orb {

namespace {

/// Gap between retransmissions of the same request.
constexpr SimDuration kRetransmitTimeout = 1 * kSecond;
/// Per-server at-most-once window: the last kDedupWindow (caller,
/// request-id) pairs. It must exceed the requests one caller can have in
/// flight between a snapshot capture and a failover (docs/snapshots.md).
constexpr std::size_t kDedupWindow = 256;

}  // namespace

Status SkeletonBase::dispatch(std::string_view operation, cdr::Reader& args,
                              cdr::Writer& out) {
  for (auto& [name, handler] : ops_) {
    if (name == operation) return handler(args, out);
  }
  return Status(ErrorCode::kNotFound,
                "no such operation: " + std::string(operation));
}

void SkeletonBase::register_raw(const std::string& operation, RawHandler handler) {
  assert(std::none_of(ops_.begin(), ops_.end(),
                      [&](const auto& op) { return op.first == operation; }) &&
         "duplicate operation");
  ops_.emplace_back(operation, std::move(handler));
}

Orb::Orb(NodeAddress self, Transport& transport, sim::Engine* engine,
         OrbOptions options)
    : self_(self),
      transport_(transport),
      engine_(engine),
      options_(options),
      dedup_(kDedupWindow) {
  transport_.bind(self_, [this](NodeAddress src, const std::vector<std::uint8_t>& f) {
    on_frame(src, f);
  });
}

Orb::~Orb() {
  // Destruction is not shutdown(): the components that own the pending
  // callbacks share this node and may already be destroyed (a Cluster tears
  // its LRMs, ASCT and GRMs down before their ORBs), so the callbacks are
  // dropped unfired instead of failed.
  if (!shutdown_) transport_.unbind(self_);
  for (auto& [id, p] : pending_) {
    p.timeout.cancel();
    p.retransmit.cancel();
  }
}

void Orb::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  transport_.unbind(self_);
  // Fail callers; move the map out first since callbacks may re-enter.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, p] : pending) {
    p.timeout.cancel();
    p.retransmit.cancel();
    p.callback(Status(ErrorCode::kUnavailable, "ORB shut down"));
  }
}

ObjectRef Orb::activate(std::shared_ptr<Servant> servant) {
  return activate(std::move(servant), ObjectId(next_object_key_++));
}

ObjectRef Orb::activate(std::shared_ptr<Servant> servant, ObjectId reuse_key) {
  assert(servant != nullptr);
  assert(reuse_key.valid());
  assert(!servants_.contains(reuse_key) && "object key already active");
  // Keep fresh keys ahead of any reused one so they never collide.
  if (reuse_key.value >= next_object_key_) next_object_key_ = reuse_key.value + 1;
  ObjectRef ref;
  ref.host = self_;
  ref.key = reuse_key;
  ref.type_id = servant->type_id();
  servants_[ref.key] = std::move(servant);
  return ref;
}

void Orb::deactivate(ObjectId key) { servants_.erase(key); }

RequestHeader Orb::next_request(const ObjectRef& target,
                               const std::string& operation,
                               bool response_expected) {
  RequestHeader header;
  header.request_id = RequestId(next_request_id_++);
  header.object_key = target.key;
  header.operation = operation;
  header.response_expected = response_expected;
  if (ambient_.valid()) {
    header.trace_id = ambient_.trace_id;
    header.trace_parent = ambient_.span_id;
  }
  return header;
}

void Orb::send_frame(NodeAddress to, std::vector<std::uint8_t> frame) {
  bytes_sent_.add(static_cast<std::int64_t>(frame.size()));
  transport_.send(self_, to, std::move(frame));
}

void Orb::send_request(const ObjectRef& target, const std::string& operation,
                       Payload args, ReplyCallback callback,
                       SimDuration timeout) {
  assert(callback);
  if (shutdown_) {
    callback(Status(ErrorCode::kUnavailable, "ORB shut down"));
    return;
  }
  if (!target.valid()) {
    callback(Status(ErrorCode::kInvalidArgument, "nil object reference"));
    return;
  }
  requests_sent_.add();
  const RequestHeader header = next_request(target, operation, true);
  const RequestId id = header.request_id;

  Pending pending;
  pending.callback = std::move(callback);
  if (engine_ != nullptr) {
    pending.timeout = engine_->schedule_after(timeout, [this, id] {
      metrics_.counter("requests_timed_out").add();
      complete(id, Status(ErrorCode::kDeadlineExceeded, "request timed out"));
    });
  }

  FrameWriter frame(header);
  args.write(frame.payload());
  std::vector<std::uint8_t> wire = std::move(frame).finish();
  if (engine_ != nullptr && options_.request_retries > 0) {
    pending.frame = wire;  // keep a copy for retransmission
    pending.dest = target.host;
    pending.attempts_left = options_.request_retries;
    pending.retransmit = engine_->schedule_after(kRetransmitTimeout,
                                                 [this, id] { retransmit(id); });
  }
  pending_[id] = std::move(pending);
  send_frame(target.host, std::move(wire));

  // Synchronous transports (unit tests) deliver the reply during send(); if
  // there is no engine to enforce a deadline and the request is still open,
  // it will never complete — fail it now.
  if (engine_ == nullptr && pending_.contains(id)) {
    complete(id, Status(ErrorCode::kUnavailable, "no reply from host"));
  }
}

void Orb::send_oneway(const ObjectRef& target, const std::string& operation,
                      Payload args) {
  if (shutdown_ || !target.valid()) return;
  FrameWriter frame(next_request(target, operation, false));
  args.write(frame.payload());
  oneways_sent_.add();
  send_frame(target.host, std::move(frame).finish());
}

void Orb::invoke(const ObjectRef& target, const std::string& operation,
                 std::vector<std::uint8_t> args, InvokeCallback callback,
                 SimDuration timeout) {
  assert(callback);
  send_request(
      target, operation, Payload::encoded(args),
      [callback = std::move(callback)](Result<cdr::Reader> reply) {
        if (!reply.is_ok()) {
          callback(reply.status());
          return;
        }
        const std::span<const std::uint8_t> results = reply.value().unread();
        callback(std::vector<std::uint8_t>(results.begin(), results.end()));
      },
      timeout);
}

void Orb::on_frame(NodeAddress source, const std::vector<std::uint8_t>& bytes) {
  if (shutdown_) return;
  bytes_received_.add(static_cast<std::int64_t>(bytes.size()));
  auto parsed = view_frame(bytes);
  if (!parsed.is_ok()) {
    metrics_.counter("malformed_frames").add();
    log_warn("orb", "dropping malformed frame: " + parsed.status().to_string());
    return;
  }
  switch (parsed.value().type) {
    case MessageType::kRequest:
      handle_request(source, parsed.value());
      break;
    case MessageType::kReply:
      handle_reply(parsed.value());
      break;
  }
}

void Orb::retransmit(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.attempts_left <= 0) return;  // budget spent; the deadline decides
  --p.attempts_left;
  metrics_.counter("requests_retransmitted").add();
  send_frame(p.dest, p.frame);
  // The transport may deliver synchronously and complete the request,
  // invalidating `it`/`p` — re-find before rearming.
  it = pending_.find(id);
  if (it == pending_.end() || it->second.attempts_left <= 0) return;
  it->second.retransmit = engine_->schedule_after(kRetransmitTimeout,
                                                  [this, id] { retransmit(id); });
}

void Orb::handle_request(NodeAddress source, const FrameView& req) {
  requests_received_.add();

  // At-most-once: a request we already executed (retransmission or network
  // duplicate) is never re-dispatched — replay the cached reply instead.
  const DedupKey key{source, req.request_id.value};
  if (auto* cached = dedup_.get(key); cached != nullptr) {
    metrics_.counter("duplicate_requests").add();
    if (req.response_expected && !cached->empty()) send_frame(source, *cached);
    return;
  }

  // Ambient context for the duration of the dispatch: spans the servant
  // starts and calls it issues inherit the incoming request's trace slot.
  // Dispatch is synchronous and single-threaded, so save/restore suffices.
  struct AmbientGuard {
    Orb& orb;
    obs::TraceContext saved;
    ~AmbientGuard() { orb.ambient_ = saved; }
  } ambient_guard{*this, ambient_};
  ambient_ = obs::TraceContext{req.trace_id, req.trace_parent};

  auto servant = servants_.find(req.object_key);
  cdr::Reader args = req.payload_reader();
  if (!req.response_expected) {
    if (servant != servants_.end()) {
      // Nothing reads a oneway's results: a writer that reserves nothing
      // leaves an empty result unallocated.
      cdr::Writer discarded(cdr::native_byte_order(), 0);
      (void)servant->second->dispatch(req.operation, args, discarded);
    }
    // Remember the oneway so a duplicate delivery doesn't dispatch twice.
    dedup_.put(key, {});
    return;
  }

  // The results go straight into the reply frame.
  ReplyHeader reply;
  reply.request_id = req.request_id;
  std::vector<std::uint8_t> wire;
  if (servant == servants_.end()) {
    reply.status = ReplyStatus::kObjectNotExist;
    reply.exception_detail = "no object with key " + to_string(req.object_key);
    wire = FrameWriter(reply).finish();
  } else {
    FrameWriter frame(reply);
    const Status status =
        servant->second->dispatch(req.operation, args, frame.payload());
    if (status.is_ok()) {
      wire = std::move(frame).finish();
    } else {
      // A fresh frame drops the partial results.
      reply.status = status.code() == ErrorCode::kNotFound
                         ? ReplyStatus::kBadOperation
                         : ReplyStatus::kSystemException;
      reply.exception_detail = status.to_string();
      wire = FrameWriter(reply).finish();
    }
  }
  dedup_.put(key, wire);
  send_frame(source, std::move(wire));
}

void Orb::save_dedup(cdr::Writer& w) const {
  const auto& window = dedup_.entries();
  std::vector<DedupEntry> entries;
  entries.reserve(window.size());
  // Least-recent first: replaying put() in write order rebuilds recency.
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    entries.push_back({it->first, it->second});
  }
  cdr::Codec<std::vector<DedupEntry>>::encode(w, entries);
}

Status Orb::load_dedup(std::uint32_t version, cdr::Reader& r) {
  Result<DedupImage> image = decode_dedup(version, r);
  if (!image.is_ok()) return image.status();
  apply_dedup(std::move(image).value());
  return Status::ok();
}

Result<Orb::DedupImage> Orb::decode_dedup(std::uint32_t version,
                                          cdr::Reader& r) {
  if (version != kDedupSnapshotVersion) {
    return Status(ErrorCode::kInvalidArgument,
                  "orb_dedup snapshot version " + std::to_string(version) +
                      " unsupported");
  }
  DedupImage image{cdr::Codec<std::vector<DedupEntry>>::decode(r)};
  if (!r.exhausted()) {
    return Status(ErrorCode::kInternal, "malformed orb_dedup snapshot");
  }
  std::unordered_set<DedupKey, DedupKeyHash> keys;
  for (const DedupEntry& entry : image.entries) {
    if (!keys.insert(entry.key).second) {
      return Status(ErrorCode::kInternal, "orb_dedup snapshot repeats a key");
    }
  }
  return image;
}

void Orb::apply_dedup(DedupImage image) {
  for (DedupEntry& entry : image.entries) {
    // A locally-present entry is newer than the snapshot: keep it.
    if (dedup_.contains(entry.key)) continue;
    dedup_.put(entry.key, std::move(entry.reply));
  }
}

void Orb::handle_reply(const FrameView& rep) {
  switch (rep.status) {
    case ReplyStatus::kNoException:
      complete(rep.request_id, rep.payload_reader());
      break;
    case ReplyStatus::kObjectNotExist:
      complete(rep.request_id,
               Status(ErrorCode::kNotFound, std::string(rep.exception_detail)));
      break;
    case ReplyStatus::kBadOperation:
      complete(rep.request_id, Status(ErrorCode::kInvalidArgument,
                                      std::string(rep.exception_detail)));
      break;
    case ReplyStatus::kSystemException:
      complete(rep.request_id,
               Status(ErrorCode::kInternal, std::string(rep.exception_detail)));
      break;
  }
}

void Orb::complete(RequestId id, Result<cdr::Reader> result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late reply after timeout: discard
  Pending pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();
  pending.retransmit.cancel();
  pending.callback(std::move(result));
}

}  // namespace integrade::orb
