// Fundamental value types shared by every InteGrade module.
//
// All quantities that cross module boundaries use these aliases so that a
// reader can tell a byte count from a MIPS rating from a simulated duration
// at a glance, and so that unit mistakes show up in code review.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace integrade {

// ---------------------------------------------------------------------------
// Simulated time.
//
// The discrete-event kernel measures time in integer microseconds since the
// start of the simulation. Integer time keeps the event queue total-ordered
// and the whole system bit-reproducible across platforms.
// ---------------------------------------------------------------------------
using SimTime = std::int64_t;      // absolute, microseconds
using SimDuration = std::int64_t;  // relative, microseconds

inline constexpr SimDuration kMicrosecond = 1;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;
inline constexpr SimDuration kWeek = 7 * kDay;

inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::max();

/// Seconds as a double, for reporting only (never for event ordering).
inline double to_seconds(SimDuration d) { return static_cast<double>(d) / kSecond; }
/// Seconds to microseconds, truncated toward zero. A value that does not
/// fit SimDuration (work or rates from outside input can yield anything)
/// clamps to kTimeNever, a negative one to -kTimeNever, and NaN to
/// kTimeNever: the cast itself is defined only in range.
inline SimDuration from_seconds(double s) {
  const double us = s * kSecond;
  if (us > -0x1p63 && us < 0x1p63) return static_cast<SimDuration>(us);
  return us < 0 ? -kTimeNever : kTimeNever;
}

// ---------------------------------------------------------------------------
// Resource quantities.
// ---------------------------------------------------------------------------
using Mips = double;       // CPU speed: millions of instructions per second
using MInstr = double;     // work: millions of instructions
using Bytes = std::int64_t;
using BytesPerSec = double;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

// ---------------------------------------------------------------------------
// Strongly typed identifiers.
//
// Every entity class gets its own id type; mixing a NodeId with a TaskId is a
// compile error. Ids are dense small integers handed out by their registries.
// ---------------------------------------------------------------------------
template <class Tag>
struct Id {
  std::uint64_t value = kInvalid;

  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value != kInvalid; }
  auto operator<=>(const Id&) const = default;
};

struct NodeTag {};
struct ClusterTag {};
struct TaskTag {};
struct AppTag {};
struct ObjectTag {};
struct RequestTag {};
struct ReservationTag {};

using NodeId = Id<NodeTag>;
using ClusterId = Id<ClusterTag>;
using TaskId = Id<TaskTag>;
using AppId = Id<AppTag>;
using ObjectId = Id<ObjectTag>;    // ORB-level object key
using RequestId = Id<RequestTag>;  // ORB-level request correlation id
using ReservationId = Id<ReservationTag>;

template <class Tag>
std::string to_string(Id<Tag> id) {
  return id.valid() ? std::to_string(id.value) : std::string("<invalid>");
}

}  // namespace integrade

// Hash support so ids can key unordered containers.
template <class Tag>
struct std::hash<integrade::Id<Tag>> {
  std::size_t operator()(const integrade::Id<Tag>& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value);
  }
};
