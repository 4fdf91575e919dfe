// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper (§3) lists authentication and cryptography among InteGrade's
// security requirements. SHA-256 is the primitive beneath the HMAC message
// authentication used by the SecureTransport; it is implemented here rather
// than imported so the repository stays dependency-free. Whole blocks go
// through the x86 SHA extensions when CPUID reports them and through
// portable C++ rounds otherwise (sha256_blocks.hpp); both are verified
// against the FIPS/NIST test vectors, and each other, in
// tests/security_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace integrade::security {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  /// Streaming interface.
  void update(const std::uint8_t* data, std::size_t size);
  void update(const std::vector<std::uint8_t>& data) {
    update(data.data(), data.size());
  }
  void update(const std::string& data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  /// Finalize and return the digest. The object must not be reused after.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  static Digest hash(const std::uint8_t* data, std::size_t size);
  static Digest hash(const std::vector<std::uint8_t>& data) {
    return hash(data.data(), data.size());
  }
  static Digest hash(const std::string& data) {
    return hash(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finished_ = false;
};

/// Lowercase hex rendering (for vectors/tests/logs).
std::string to_hex(const Digest& digest);

}  // namespace integrade::security
