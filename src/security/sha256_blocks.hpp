// SHA-256 block compression, private to the security layer.
//
// Sha256 hashes whole 64-byte blocks through one of two functions, chosen
// once per process from CPUID: the x86 SHA extensions when the host has
// them, the portable C++ rounds otherwise. Both are declared here so the
// tests can hold them against each other; nothing outside src/security/
// and its tests includes this header, and no option selects the path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace integrade::security::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compress `blocks` consecutive 64-byte blocks at `data` into `state`.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* data,
                            std::size_t blocks);

/// The same with the SHA extensions. Call only when host_has_sha_ni().
void sha256_blocks_sha_ni(Sha256State& state, const std::uint8_t* data,
                          std::size_t blocks);

/// CPUID: SHA extensions (leaf 7, EBX bit 29) plus SSSE3 and SSE4.1.
/// Always false off x86-64.
bool host_has_sha_ni();

}  // namespace integrade::security::detail
