// LZSS match-finder tables, private to the checkpoint layer.
//
// lz_compress keeps its hash-chain tables per thread across calls, with
// absolute positions that every call advances (compress.cpp). These two
// functions let the tests read and advance the position counter, so they
// reach the reset at the 32-bit limit without compressing 4 GiB; nothing
// outside src/ckpt/ and its tests includes this header.
#pragma once

#include <cstddef>
#include <cstdint>

namespace integrade::ckpt::detail {

/// The absolute position the calling thread's next lz_compress starts at.
std::uint32_t lz_next_position();

/// Advance the counter as a call of `count` bytes would, clearing the
/// tables when the positions would not fit.
void lz_skip_positions(std::size_t count);

}  // namespace integrade::ckpt::detail
