// Snapshot coordinator (primary side) and snapshot store (standby side).
//
// The coordinator captures the primary manager's two sections — its GRM
// ("grm", whose node records the standby rebuilds its Trader from) and its
// ORB's at-most-once window ("orb_dedup"), in that order — every kPeriod,
// frames them in a snapshot::Envelope, and ships the image to the standby's
// SnapshotStore over the ORB ("install"). Every period ships one full
// image: a standby that missed one (timeout, rejection) holds the whole
// control plane again after the next period.
//
// The store validates the envelope (checksum, version) and then decodes and
// checks every section before applying any: an image that names any other
// section, names one twice, or carries a section its loader refuses loads
// nothing. Applying the checked sections to the standby GRM and its ORB
// cannot fail.
//
// Both exist only in a cluster whose standby mode is kSnapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "grm/grm.hpp"
#include "orb/orb.hpp"
#include "sim/engine.hpp"
#include "snapshot/snapshot.hpp"

namespace integrade::snapshot {

class SnapshotCoordinator {
 public:
  /// Capture-and-ship cadence (sim time); the first capture fires one
  /// period after start().
  static constexpr SimDuration kPeriod = 10 * kSecond;

  /// `orb` is the primary manager's ORB: `primary` serves on it, and its
  /// dedup window is the second section. Images ship to `store`.
  SnapshotCoordinator(sim::Engine& engine, orb::Orb& orb, grm::Grm& primary,
                      orb::ObjectRef store);
  ~SnapshotCoordinator();
  SnapshotCoordinator(const SnapshotCoordinator&) = delete;
  SnapshotCoordinator& operator=(const SnapshotCoordinator&) = delete;

  /// Arm the periodic capture timer.
  void start();
  void stop();

  /// Capture both sections now without shipping (warm-start file save,
  /// tests).
  [[nodiscard]] Envelope capture() const;

  /// Capture-and-ship one image now (the timer body; public for tests).
  void fire();

  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 private:
  sim::Engine& engine_;
  orb::Orb& orb_;
  grm::Grm& primary_;
  orb::ObjectRef store_;
  sim::PeriodicTimer timer_;

  /// Guards the install-ack callback: the ORB fails pending calls at
  /// shutdown, which can outlive this coordinator during grid teardown.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  MetricRegistry metrics_;
};

/// Standby-side sink for shipped snapshots. Activates an ORB servant
/// ("install") on `orb`, the standby's ORB, on construction; install() is
/// also callable directly for warm-start file restore and tests.
class SnapshotStore {
 public:
  SnapshotStore(orb::Orb& orb, grm::Grm& standby);
  ~SnapshotStore();
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }

  /// Validate an encoded envelope and load its sections, all or none.
  Status install(const std::vector<std::uint8_t>& image);

  /// True once some image has been installed.
  [[nodiscard]] bool has_image() const { return has_image_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 private:
  /// Refuse an image naming an unknown or repeated section, decode and
  /// check every section, and only then apply them all; the first error
  /// refuses the image with nothing applied.
  Status load(const Envelope& envelope);

  orb::Orb& orb_;
  grm::Grm& standby_;
  orb::ObjectRef self_ref_;
  bool has_image_ = false;

  MetricRegistry metrics_;
};

}  // namespace integrade::snapshot
