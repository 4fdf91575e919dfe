#include "snapshot/coordinator.hpp"

#include <optional>
#include <utility>

#include "protocol/messages.hpp"

namespace integrade::snapshot {

namespace {

/// Two-way install call timeout.
constexpr SimDuration kShipTimeout = 5 * kSecond;

/// The sections every image carries, in capture (and load) order.
constexpr const char* kGrm = "grm";
constexpr const char* kOrbDedup = "orb_dedup";

}  // namespace

// --- SnapshotCoordinator ---------------------------------------------------

SnapshotCoordinator::SnapshotCoordinator(sim::Engine& engine, orb::Orb& orb,
                                         grm::Grm& primary, orb::ObjectRef store)
    : engine_(engine), orb_(orb), primary_(primary), store_(std::move(store)) {}

SnapshotCoordinator::~SnapshotCoordinator() { *alive_ = false; }

void SnapshotCoordinator::start() {
  timer_.start(engine_, kPeriod, [this] { fire(); },
               /*initial_delay=*/kPeriod);
}

void SnapshotCoordinator::stop() { timer_.stop(); }

Envelope SnapshotCoordinator::capture() const {
  cdr::Writer state;
  primary_.save(state);
  cdr::Writer dedup;
  orb_.save_dedup(dedup);

  Envelope envelope;
  envelope.captured_at = engine_.now();
  envelope.sections = {
      {kGrm, grm::Grm::kSnapshotVersion, state.take_buffer()},
      {kOrbDedup, orb::Orb::kDedupSnapshotVersion, dedup.take_buffer()},
  };
  return envelope;
}

void SnapshotCoordinator::fire() {
  if (!store_.valid()) return;

  protocol::SnapshotInstall request;
  request.image = encode(capture());
  metrics_.counter("snapshots_shipped").add();
  metrics_.counter("snapshot_bytes_shipped")
      .add(static_cast<std::int64_t>(request.image.size()));

  orb::call<protocol::SnapshotInstall, protocol::SnapshotInstallReply>(
      orb_, store_, "install", request,
      [this, alive = alive_](Result<protocol::SnapshotInstallReply> reply) {
        // The ORB fails still-pending calls when it shuts down, which during
        // grid teardown happens after this coordinator is gone.
        if (!*alive) return;
        if (reply.is_ok() && reply.value().accepted) return;
        metrics_.counter("snapshot_ship_failures").add();
      },
      kShipTimeout);
}

// --- SnapshotStore ---------------------------------------------------------

namespace {

class StoreServant final : public orb::SkeletonBase {
 public:
  explicit StoreServant(SnapshotStore& store) {
    register_op<protocol::SnapshotInstall, protocol::SnapshotInstallReply>(
        "install",
        [&store](const protocol::SnapshotInstall& request)
            -> Result<protocol::SnapshotInstallReply> {
          protocol::SnapshotInstallReply reply;
          const Status status = store.install(request.image);
          reply.accepted = status.is_ok();
          if (!status.is_ok()) reply.reason = status.to_string();
          return reply;
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/SnapshotStore:1.0";
  }
};

}  // namespace

SnapshotStore::SnapshotStore(orb::Orb& orb, grm::Grm& standby)
    : orb_(orb), standby_(standby) {
  self_ref_ = orb_.activate(std::make_shared<StoreServant>(*this));
}

SnapshotStore::~SnapshotStore() {
  if (!orb_.is_shutdown()) orb_.deactivate(self_ref_.key);
}

Status SnapshotStore::load(const Envelope& envelope) {
  bool seen_grm = false;
  bool seen_dedup = false;
  for (const Section& s : envelope.sections) {
    if (s.name != kGrm && s.name != kOrbDedup) {
      return Status(ErrorCode::kInvalidArgument,
                    "unknown section '" + s.name + "'");
    }
    bool& seen = s.name == kGrm ? seen_grm : seen_dedup;
    if (seen) {
      return Status(ErrorCode::kInvalidArgument,
                    "section '" + s.name + "' repeated");
    }
    seen = true;
  }
  // Decode and check every section before applying any, so a refused
  // image loads nothing; applying cannot fail.
  std::optional<grm::Grm::Loaded> grm;
  std::optional<orb::Orb::DedupImage> dedup;
  for (const Section& s : envelope.sections) {
    cdr::Reader r(s.payload);
    Status status = Status::ok();
    if (s.name == kGrm) {
      auto loaded = standby_.decode_snapshot(s.version, r);
      if (loaded.is_ok()) grm.emplace(std::move(loaded).value());
      status = loaded.status();
    } else {
      auto loaded = orb::Orb::decode_dedup(s.version, r);
      if (loaded.is_ok()) dedup.emplace(std::move(loaded).value());
      status = loaded.status();
    }
    if (!status.is_ok()) {
      return Status(status.code(),
                    "section '" + s.name + "': " + status.message());
    }
  }
  if (grm) standby_.commit_snapshot(std::move(*grm));
  if (dedup) orb_.apply_dedup(std::move(*dedup));
  return Status::ok();
}

Status SnapshotStore::install(const std::vector<std::uint8_t>& image) {
  Result<Envelope> decoded = decode(image);
  const Status status =
      decoded.is_ok() ? load(decoded.value()) : decoded.status();
  if (!status.is_ok()) {
    // Every section is checked before any is applied, so a refused image
    // changed nothing; the next period's full image supersedes this one.
    metrics_.counter("installs_rejected").add();
    return status;
  }
  has_image_ = true;
  metrics_.counter("installs_ok").add();
  metrics_.counter("sections_applied")
      .add(static_cast<std::int64_t>(decoded.value().sections.size()));
  return Status::ok();
}

}  // namespace integrade::snapshot
