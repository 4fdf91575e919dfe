#include "ckpt/compress.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "ckpt/lz_tables.hpp"

namespace integrade::ckpt {
namespace {

// Stream format constants. Offsets are 1..kWindow back from the write cursor,
// match lengths are kMinMatch..kMinMatch+15 so length-3 fits in 4 bits.
constexpr std::size_t kWindow = 4096;        // 12-bit offset
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = kMinMatch + 15;  // 4-bit length field
// A 2-byte token yields at most kMaxMatch bytes and a literal byte yields
// one, so a stream never expands to more than this many bytes per byte.
constexpr std::size_t kMaxExpansion = kMaxMatch / 2;

// Hash-chain match finder: a 16-bit hash of the next three bytes heads a
// chain of earlier positions with that hash; at most kMaxChain of them are
// tried. Only the first position of a match enters the chains.
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr int kMaxChain = 4;

inline std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                          (std::uint32_t{p[2]} << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, at most `limit`: eight bytes per
// compare, the first differing byte found from the XOR of the two words.
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bits = std::endian::native == std::endian::big
                           ? std::countl_zero(diff)
                           : std::countr_zero(diff);
      return len + static_cast<std::size_t>(bits) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// The chains, kept per thread across calls. Positions in them are absolute:
// byte i of a call sits at start + i, and each call starts kWindow past the
// previous call's last byte, so every entry an earlier call left reads as
// out of window and the output depends on the input alone. `prev` is a ring
// over the window: a position's slot is only reused once it is out of reach.
struct MatchTables {
  // A zeroed entry reads as out of window from every position.
  static constexpr std::uint32_t kFirstStart = kWindow + 1;

  std::uint32_t head[kHashSize] = {};
  std::uint32_t prev[kWindow] = {};
  std::uint32_t next_start = kFirstStart;

  // Positions for a call of `size` bytes; clears the tables first when they
  // and the gap after them would not fit in 32 bits.
  std::uint32_t reserve(std::size_t size) {
    if (const std::uint32_t room = UINT32_MAX - next_start;
        room < kWindow || size > room - kWindow) {
      if (size > UINT32_MAX - kFirstStart - kWindow) {
        throw std::length_error("lz_compress input exceeds 32-bit positions");
      }
      std::memset(head, 0, sizeof head);
      std::memset(prev, 0, sizeof prev);
      next_start = kFirstStart;
    }
    const std::uint32_t start = next_start;
    next_start = static_cast<std::uint32_t>(start + size + kWindow);
    return start;
  }
};

// Allocated on a thread's first compression, so a process that never
// compresses carries none of it.
MatchTables& match_tables() {
  thread_local std::unique_ptr<MatchTables> tables;
  if (!tables) tables = std::make_unique<MatchTables>();
  return *tables;
}

}  // namespace

namespace detail {

std::uint32_t lz_next_position() { return match_tables().next_start; }

void lz_skip_positions(std::size_t count) { match_tables().reserve(count); }

}  // namespace detail

// Cache-line aligned: otherwise its hot match loop's speed shifts with the
// size of whatever code the linker places before it.
[[gnu::aligned(64)]] std::vector<std::uint8_t> lz_compress(
    const std::uint8_t* input, std::size_t size) {
  std::vector<std::uint8_t> out;
  if (size == 0) return out;
  out.reserve(size / 2 + 16);

  MatchTables& tables = match_tables();
  std::uint32_t* const head = tables.head;
  std::uint32_t* const prev = tables.prev;
  const std::uint32_t start = tables.reserve(size);

  std::size_t pos = 0;
  while (pos < size) {
    const std::size_t control_at = out.size();
    out.push_back(0);
    std::uint8_t control = 0;
    for (int bit = 0; bit < 8 && pos < size; ++bit) {
      std::size_t best_len = 0;
      std::size_t best_off = 0;
      if (pos + kMinMatch <= size) {
        const std::uint32_t here = start + static_cast<std::uint32_t>(pos);
        const std::uint32_t h = hash3(input + pos);
        const std::size_t limit = std::min(kMaxMatch, size - pos);
        std::uint32_t cand = head[h];
        for (int depth = 0; depth < kMaxChain; ++depth) {
          const std::size_t off = here - cand;
          if (off > kWindow) break;  // chain only gets older from here
          const std::size_t len =
              match_length(input + pos, input + pos - off, limit);
          if (len > best_len) {
            best_len = len;
            best_off = off;
            if (len == limit) break;
          }
          cand = prev[cand % kWindow];
        }
        prev[here % kWindow] = head[h];
        head[h] = here;
      }
      if (best_len >= kMinMatch) {
        // Token: low byte = offset-1 low bits; high byte = offset-1 high
        // nibble in bits 4..7, length-kMinMatch in bits 0..3.
        const std::uint32_t off1 = static_cast<std::uint32_t>(best_off - 1);
        out.push_back(static_cast<std::uint8_t>(off1 & 0xff));
        out.push_back(static_cast<std::uint8_t>(((off1 >> 8) & 0x0f) << 4 |
                                                (best_len - kMinMatch)));
        pos += best_len;
      } else {
        control |= static_cast<std::uint8_t>(1u << bit);
        out.push_back(input[pos]);
        ++pos;
      }
    }
    out[control_at] = control;
  }
  return out;
}

Result<std::vector<std::uint8_t>> lz_decompress(const std::uint8_t* input,
                                                std::size_t size,
                                                std::size_t raw_size) {
  // Sized once. The cap keeps a hostile raw_size from allocating more than
  // the stream could ever fill; such a stream ends short and is rejected.
  std::vector<std::uint8_t> out(std::min(raw_size, size * kMaxExpansion));
  std::uint8_t* const base = out.data();
  std::size_t produced = 0;
  std::size_t pos = 0;
  while (pos < size) {
    const std::uint8_t control = input[pos++];
    for (int bit = 0; bit < 8; ++bit) {
      if (produced == raw_size) {
        // Output complete; the stream must end exactly here.
        if (pos != size) {
          return Status(ErrorCode::kInvalidArgument,
                        "lz stream continues past declared raw size");
        }
        return out;
      }
      if (pos >= size) break;  // stream exhausted mid-control-group
      if (control & (1u << bit)) {
        base[produced++] = input[pos++];
      } else {
        if (pos + 2 > size) {
          return Status(ErrorCode::kInvalidArgument,
                        "lz stream truncated inside a match token");
        }
        const std::uint8_t lo = input[pos];
        const std::uint8_t hi = input[pos + 1];
        pos += 2;
        const std::size_t off =
            (std::size_t{lo} | (static_cast<std::size_t>(hi >> 4) << 8)) + 1;
        const std::size_t len = static_cast<std::size_t>(hi & 0x0f) + kMinMatch;
        if (off > produced) {
          return Status(ErrorCode::kInvalidArgument,
                        "lz match offset reaches before stream start");
        }
        if (produced + len > raw_size) {
          return Status(ErrorCode::kInvalidArgument,
                        "lz match overruns declared raw size");
        }
        std::uint8_t* const dst = base + produced;
        const std::uint8_t* const src = dst - off;
        if (off >= len) {
          std::memcpy(dst, src, len);
        } else if (off == 1) {
          std::memset(dst, *src, len);  // a run of the byte before it
        } else {
          // Overlapping match (off < len): copy forwards, byte by byte, so
          // the match reads the bytes it has just produced.
          for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
        }
        produced += len;
      }
    }
  }
  if (produced != raw_size) {
    return Status(ErrorCode::kInvalidArgument,
                  "lz stream ended short of declared raw size");
  }
  return out;
}

PackedChunk pack_chunk(const std::vector<std::uint8_t>& raw,
                       bool try_compress) {
  PackedChunk packed;
  packed.raw_size = static_cast<std::uint32_t>(raw.size());
  if (try_compress && !raw.empty()) {
    std::vector<std::uint8_t> lz = lz_compress(raw);
    if (lz.size() < raw.size()) {
      packed.encoding = Encoding::kLz;
      // lz_compress reserves for a typical ratio, and a store keeps the
      // payload as is: hand it over at its exact size.
      lz.shrink_to_fit();
      packed.payload = std::move(lz);
      return packed;
    }
  }
  packed.encoding = Encoding::kRaw;
  packed.payload = raw;
  return packed;
}

Result<std::vector<std::uint8_t>> unpack_chunk(
    Encoding encoding, std::uint32_t raw_size,
    const std::vector<std::uint8_t>& payload) {
  switch (encoding) {
    case Encoding::kRaw:
      if (payload.size() != raw_size) {
        return Status(ErrorCode::kInvalidArgument,
                      "raw chunk payload size disagrees with raw_size");
      }
      return payload;
    case Encoding::kLz:
      return lz_decompress(payload, raw_size);
  }
  return Status(ErrorCode::kInvalidArgument, "unknown chunk encoding");
}

}  // namespace integrade::ckpt
