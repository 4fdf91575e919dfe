// Deterministic per-chunk compression for the checkpoint data plane.
//
// Checkpoint chunks travel the simulated network and sit in content-addressed
// stores on many nodes, so the codec must be bit-reproducible across
// platforms and compiler versions: same input bytes -> same output bytes,
// always. A small LZSS variant satisfies that with no dependencies: a control
// byte carries eight LSB-first flags, each selecting either a literal byte or
// a 16-bit token of (12-bit backward offset, 4-bit length-3) referencing a
// 4 KiB sliding window. Decompression is fully bounds-checked and rejects any
// stream that would read outside the produced output or disagree with the
// declared raw size — that rejection is the integrity backstop beneath the
// chunk-hash check.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace integrade::ckpt {

/// How a chunk payload is encoded on the wire / in a store.
enum class Encoding : std::uint8_t {
  kRaw = 0,  // payload is the chunk bytes verbatim
  kLz = 1,   // payload is an LZSS stream expanding to raw_size bytes
};

/// Compress `input`. Output may be larger than input for incompressible
/// data (callers use pack_chunk to fall back to kRaw). The output depends
/// on the input alone. Throws std::length_error for 4 GiB − 8 KiB or more,
/// which no 32-bit chunk size reaches.
std::vector<std::uint8_t> lz_compress(const std::uint8_t* input,
                                      std::size_t size);
inline std::vector<std::uint8_t> lz_compress(
    const std::vector<std::uint8_t>& input) {
  return lz_compress(input.data(), input.size());
}

/// Decompress an LZSS stream that must expand to exactly `raw_size` bytes.
/// Any malformed token, window underrun, or size mismatch yields an error —
/// never undefined behaviour or a partial buffer.
Result<std::vector<std::uint8_t>> lz_decompress(const std::uint8_t* input,
                                                std::size_t size,
                                                std::size_t raw_size);
inline Result<std::vector<std::uint8_t>> lz_decompress(
    const std::vector<std::uint8_t>& input, std::size_t raw_size) {
  return lz_decompress(input.data(), input.size(), raw_size);
}

/// A chunk payload ready for storage or transfer: raw bytes or an LZ stream,
/// whichever is smaller (ties go to kRaw so the degenerate path stays cheap).
struct PackedChunk {
  Encoding encoding = Encoding::kRaw;
  std::uint32_t raw_size = 0;
  std::vector<std::uint8_t> payload;
};

/// Encode chunk bytes for storage/transfer. With `try_compress` false the
/// payload is always kRaw (the compression-off bench cells).
PackedChunk pack_chunk(const std::vector<std::uint8_t>& raw, bool try_compress);

/// Decode a packed payload back to raw chunk bytes, validating sizes.
Result<std::vector<std::uint8_t>> unpack_chunk(Encoding encoding,
                                               std::uint32_t raw_size,
                                               const std::vector<std::uint8_t>& payload);

}  // namespace integrade::ckpt
