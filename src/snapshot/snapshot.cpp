#include "snapshot/snapshot.hpp"

#include <algorithm>

#include "security/sha256.hpp"

namespace integrade::snapshot {

namespace {

constexpr std::uint8_t kMagic[4] = {'I', 'G', 'S', 'N'};
/// Magic plus the byte-order byte: the only header bytes framed by hand.
constexpr std::size_t kPreambleBytes = sizeof(kMagic) + 1;

}  // namespace

std::vector<std::uint8_t> encode(const Envelope& envelope) {
  cdr::Writer w;
  for (const std::uint8_t b : kMagic) w.write_u8(b);
  w.write_u8(static_cast<std::uint8_t>(w.byte_order()));
  cdr::Codec<Envelope>::encode(w, envelope);
  std::vector<std::uint8_t> bytes = w.take_buffer();
  const security::Digest digest = security::Sha256::hash(bytes);
  bytes.insert(bytes.end(), digest.begin(), digest.end());
  return bytes;
}

Result<Envelope> decode(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kPreambleBytes + kChecksumBytes) {
    return Status(ErrorCode::kInvalidArgument,
                  "snapshot too short (" + std::to_string(bytes.size()) +
                      " bytes)");
  }
  const std::size_t body_size = bytes.size() - kChecksumBytes;
  const security::Digest digest = security::Sha256::hash(bytes.data(), body_size);
  if (!std::equal(digest.begin(), digest.end(), bytes.begin() + static_cast<std::ptrdiff_t>(body_size))) {
    return Status(ErrorCode::kInvalidArgument, "snapshot checksum mismatch");
  }
  if (!std::equal(std::begin(kMagic), std::end(kMagic), bytes.begin())) {
    return Status(ErrorCode::kInvalidArgument, "snapshot bad magic");
  }
  const std::uint8_t order_byte = bytes[sizeof(kMagic)];
  if (order_byte > 1) {
    return Status(ErrorCode::kInvalidArgument, "snapshot bad byte-order flag");
  }
  cdr::Reader r(bytes.data(), body_size, static_cast<cdr::ByteOrder>(order_byte));
  for (std::size_t i = 0; i < kPreambleBytes; ++i) (void)r.read_u8();
  Envelope envelope = cdr::Codec<Envelope>::decode(r);
  if (envelope.format_version != kFormatVersion) {
    return Status(ErrorCode::kInvalidArgument,
                  "snapshot format version " +
                      std::to_string(envelope.format_version) +
                      " unsupported (want " + std::to_string(kFormatVersion) +
                      ")");
  }
  if (!r.exhausted()) {
    return Status(ErrorCode::kInvalidArgument, "snapshot body malformed");
  }
  return envelope;
}

}  // namespace integrade::snapshot
