#include "snapshot/coordinator.hpp"

#include <utility>

#include "protocol/messages.hpp"

namespace integrade::snapshot {

namespace {

/// Two-way install call timeout.
constexpr SimDuration kShipTimeout = 5 * kSecond;

}  // namespace

// --- SnapshotCoordinator ---------------------------------------------------

SnapshotCoordinator::SnapshotCoordinator(sim::Engine& engine, orb::Orb& orb,
                                         SnapshotOptions options)
    : engine_(engine), orb_(orb), options_(options) {}

SnapshotCoordinator::~SnapshotCoordinator() { *alive_ = false; }

void SnapshotCoordinator::add_provider(CaptureProvider provider) {
  providers_.push_back(std::move(provider));
}

void SnapshotCoordinator::start() {
  if (!options_.enabled || providers_.empty()) return;
  timer_.start(engine_, options_.period, [this] { fire(); },
               /*initial_delay=*/options_.period);
}

void SnapshotCoordinator::stop() { timer_.stop(); }

Envelope SnapshotCoordinator::capture() const {
  Envelope envelope;
  envelope.captured_at = engine_.now();
  for (const CaptureProvider& provider : providers_) {
    envelope.sections.push_back(
        {provider.name, provider.version, provider.capture()});
  }
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

SnapshotStore::SnapshotStore(orb::Orb& orb) : orb_(orb) {
  self_ref_ = orb_.activate(std::make_shared<StoreServant>(*this));
}

SnapshotStore::~SnapshotStore() {
  if (!orb_.is_shutdown()) orb_.deactivate(self_ref_.key);
}

void SnapshotStore::register_loader(std::string name, SectionLoader loader) {
  loaders_[std::move(name)] = std::move(loader);
}

Status SnapshotStore::install(const std::vector<std::uint8_t>& image) {
  Result<Envelope> decoded = decode(image);
  const Status status = decoded.is_ok() ? snapshot::apply(decoded.value(), loaders_)
                                        : decoded.status();
  if (!status.is_ok()) {
    // Loaders validate before mutating, so the failing section's component
    // is untouched; the next period's full image supersedes this one.
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
