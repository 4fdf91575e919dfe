// Snapshot coordinator (primary side) and snapshot store (standby side).
//
// The coordinator periodically captures every registered component section,
// frames them in a snapshot::Envelope, and ships the image to the standby's
// SnapshotStore over the ORB ("install"). Every period ships one full image:
// a standby that missed one (timeout, rejection) holds the whole control
// plane again after the next period.
//
// The store validates (checksum, version) before applying anything, and
// applies through a SectionLoader registry; it installs every valid image
// whose sections all have a registered loader.
//
// Everything here is off unless explicitly started: no timer armed, no
// servant activated, no RNG draws — a run with snapshots disabled is
// byte-identical to one built before this module existed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "orb/orb.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"

namespace integrade::snapshot {

struct SnapshotOptions {
  /// Master switch. Off = no timers, no endpoints, no wire traffic.
  bool enabled = false;
  /// Capture-and-ship cadence (sim time); the first capture fires one
  /// period after start().
  SimDuration period = 10 * kSecond;
};

/// One component the coordinator snapshots. `capture` returns the section
/// payload bytes (component save() into a cdr::Writer, typically).
struct CaptureProvider {
  std::string name;
  std::uint32_t version = 1;
  std::function<std::vector<std::uint8_t>()> capture;
};

class SnapshotCoordinator {
 public:
  SnapshotCoordinator(sim::Engine& engine, orb::Orb& orb,
                      SnapshotOptions options);
  ~SnapshotCoordinator();
  SnapshotCoordinator(const SnapshotCoordinator&) = delete;
  SnapshotCoordinator& operator=(const SnapshotCoordinator&) = delete;

  /// Register a component. Call before start(); order fixes section order in
  /// every envelope (loaders with cross-section dependencies — the GRM
  /// validates its offers against the Trader — rely on it).
  void add_provider(CaptureProvider provider);

  /// Where images are shipped (a SnapshotStore ref).
  void set_target(const orb::ObjectRef& store) { store_ = store; }

  /// Arm the periodic capture timer. No-op unless options.enabled.
  void start();
  void stop();

  /// Capture all sections now without shipping (warm-start file save,
  /// tests).
  [[nodiscard]] Envelope capture() const;

  /// Capture-and-ship one image now (the timer body; public for tests).
  void fire();

  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 private:
  sim::Engine& engine_;
  orb::Orb& orb_;
  SnapshotOptions options_;

  std::vector<CaptureProvider> providers_;
  orb::ObjectRef store_;
  sim::PeriodicTimer timer_;

  /// Guards the install-ack callback: the ORB fails pending calls at
  /// shutdown, which can outlive this coordinator during grid teardown.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  MetricRegistry metrics_;
};

/// Standby-side sink for shipped snapshots. Activates an ORB servant
/// ("install") on construction; install() is also callable directly for
/// warm-start file restore and tests.
class SnapshotStore {
 public:
  explicit SnapshotStore(orb::Orb& orb);
  ~SnapshotStore();
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Register the loader that applies section `name`. An image carrying a
  /// section with no loader is rejected.
  void register_loader(std::string name, SectionLoader loader);

  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }

  /// Validate and apply an encoded envelope.
  Status install(const std::vector<std::uint8_t>& image);

  /// True once some image has been installed.
  [[nodiscard]] bool has_image() const { return has_image_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 private:
  orb::Orb& orb_;
  orb::ObjectRef self_ref_;
  std::map<std::string, SectionLoader> loaders_;
  bool has_image_ = false;

  MetricRegistry metrics_;
};

}  // namespace integrade::snapshot
