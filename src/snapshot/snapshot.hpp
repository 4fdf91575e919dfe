// Control-plane snapshot envelope.
//
// PR 2's warm-standby GRM failover rebuilds cluster state from heartbeats,
// which at scale means long stretches of simulated time with no scheduling.
// This module gives every control-plane component a versioned, checksummed
// binary image: components expose save(cdr::Writer&) / load(cdr::Reader&)
// pairs, and the envelope here frames a set of such component *sections*
// with a format version and a trailing SHA-256 over the whole body so a
// corrupted or truncated snapshot is rejected before any section is applied.
//
// Wire layout (all multi-byte fields in the byte order named by byte 4,
// "receiver makes it right" like GIOP):
//
//   'I' 'G' 'S' 'N'      magic, order-independent
//   u8  byte_order       0 = big endian, 1 = little endian
//   u32 format_version   currently 2
//   i64 captured_at      sim time of the capture
//   u32 section_count
//   per section:  string name, u32 component_version, octets payload
//   32 raw bytes         SHA-256 over everything above
//
// Everything between the byte-order byte and the checksum is the Envelope's
// field list. Section payloads are opaque here; each component owns its own
// format and version. Every envelope is a full image of the control plane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace integrade::snapshot {

inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kChecksumBytes = 32;

/// One component's serialized state. `version` is the component's own format
/// version (bumped when that component's save() layout changes), independent
/// of the envelope format version.
struct Section {
  std::string name;
  std::uint32_t version = 1;
  std::vector<std::uint8_t> payload;

  bool operator==(const Section&) const = default;
};
constexpr auto wire_fields(const Section*) {
  using S = Section;
  return cdr::fields(&S::name, &S::version, &S::payload);
}

struct Envelope {
  /// Layout of the envelope itself; decode() accepts only kFormatVersion.
  std::uint32_t format_version = kFormatVersion;
  SimTime captured_at = 0;
  std::vector<Section> sections;

  bool operator==(const Envelope&) const = default;
};
constexpr auto wire_fields(const Envelope*) {
  using S = Envelope;
  return cdr::fields(&S::format_version, &S::captured_at, &S::sections);
}

/// Serialize with header + trailing SHA-256.
[[nodiscard]] std::vector<std::uint8_t> encode(const Envelope& envelope);

/// Validate (length, magic, checksum, version, clean parse) then decode.
/// Any failure returns an error without partially-constructed state; callers
/// fall back to heartbeat reconvergence instead of crashing.
[[nodiscard]] Result<Envelope> decode(const std::vector<std::uint8_t>& bytes);

}  // namespace integrade::snapshot
