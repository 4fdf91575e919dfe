// Security layer: SHA-256 / HMAC-SHA256 against published test vectors,
// the authenticating transport, and the task-admission sandbox.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "orb/orb.hpp"
#include "security/auth.hpp"
#include "security/hmac.hpp"
#include "security/sandbox.hpp"
#include "security/sha256.hpp"
#include "security/sha256_blocks.hpp"

namespace integrade::security {
namespace {

// --- SHA-256: FIPS 180-4 / NIST vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string message = "The quick brown fox jumps over the lazy dog";
  Sha256 hasher;
  for (char c : message) {
    hasher.update(reinterpret_cast<const std::uint8_t*>(&c), 1);
  }
  EXPECT_EQ(to_hex(hasher.finish()), to_hex(Sha256::hash(message)));
}

// Boundary lengths around the 64-byte block / 56-byte padding threshold.
class Sha256Boundary : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Lengths, Sha256Boundary,
                         ::testing::Values(54, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128));

TEST_P(Sha256Boundary, StreamedAndSplitAgree) {
  const int n = GetParam();
  std::vector<std::uint8_t> data(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) data[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 7);
  const auto whole = Sha256::hash(data);
  Sha256 split;
  split.update(data.data(), data.size() / 2);
  split.update(data.data() + data.size() / 2, data.size() - data.size() / 2);
  EXPECT_EQ(to_hex(split.finish()), to_hex(whole));
}

// --- The two block paths: SHA-NI and portable (sha256_blocks.hpp) ---

using BlockFn = void (*)(detail::Sha256State&, const std::uint8_t*, std::size_t);

// One-shot SHA-256 through one block function: FIPS 180-4 padding, then all
// blocks in one call.
Digest hash_with(BlockFn blocks_fn, const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks_fn(state, padded.data(), padded.size() / 64);
  Digest digest{};
  for (std::size_t i = 0; i < 32; ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

void expect_fips_vectors(BlockFn blocks_fn) {
  EXPECT_EQ(to_hex(hash_with(blocks_fn, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash_with(blocks_fn, bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash_with(
                blocks_fn,
                bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(hash_with(blocks_fn, std::vector<std::uint8_t>(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Seeded random messages of every length 0..300 bytes, plus one 64 KiB
// checkpoint chunk.
std::vector<std::vector<std::uint8_t>> random_messages() {
  Rng rng(180);
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::size_t n = 0; n <= 300; ++n) messages.emplace_back(n);
  messages.emplace_back(64 * 1024);
  for (auto& message : messages) {
    for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  return messages;
}

TEST(Sha256Paths, PortableMatchesFipsVectors) {
  std::cout << "[ host     ] Sha256 block path: "
            << (detail::host_has_sha_ni() ? "SHA-NI" : "portable") << std::endl;
  expect_fips_vectors(&detail::sha256_blocks_portable);
}

TEST(Sha256Paths, ShaNiMatchesFipsVectorsAndPortable) {
  if (!detail::host_has_sha_ni()) {
    GTEST_SKIP() << "host has no SHA-NI; the portable path is checked alone";
  }
  expect_fips_vectors(&detail::sha256_blocks_sha_ni);
  for (const auto& message : random_messages()) {
    EXPECT_EQ(hash_with(&detail::sha256_blocks_sha_ni, message),
              hash_with(&detail::sha256_blocks_portable, message))
        << message.size() << " bytes";
  }
}

TEST(Sha256Paths, StreamedPiecesMatchPortable) {
  // Each message goes through update() as a first piece that leaves the
  // block buffer part full, then a piece that tops it up and runs on across
  // several whole blocks (hashed straight from the caller's bytes), then the
  // rest.
  for (const auto& message : random_messages()) {
    const Digest expected = hash_with(&detail::sha256_blocks_portable, message);
    EXPECT_EQ(Sha256::hash(message), expected) << message.size() << " bytes";
    for (const std::size_t lead : {1, 17, 63}) {
      const std::size_t first = std::min(lead, message.size());
      const std::size_t second = std::min<std::size_t>(lead + 3 * 64 + 5,
                                                       message.size() - first);
      Sha256 hasher;
      hasher.update(message.data(), first);
      hasher.update(message.data() + first, second);
      hasher.update(message.data() + first + second,
                    message.size() - first - second);
      EXPECT_EQ(hasher.finish(), expected)
          << message.size() << " bytes, lead " << lead;
    }
  }
}

// --- HMAC-SHA256: RFC 4231 vectors ---

TEST(Hmac, Rfc4231Case1) {
  Key key{std::vector<std::uint8_t>(20, 0x0b)};
  const std::string data = "Hi There";
  EXPECT_EQ(to_hex(hmac_sha256(
                key, reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Key key{std::vector<std::uint8_t>{'J', 'e', 'f', 'e'}};
  const std::string data = "what do ya want for nothing?";
  EXPECT_EQ(to_hex(hmac_sha256(
                key, reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Key key{std::vector<std::uint8_t>(131, 0xaa)};
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(to_hex(hmac_sha256(
                key, reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeyFromPassphraseDeterministic) {
  EXPECT_EQ(Key::from_passphrase("campus-grid"), Key::from_passphrase("campus-grid"));
  EXPECT_NE(Key::from_passphrase("campus-grid"), Key::from_passphrase("other"));
  EXPECT_EQ(Key::from_passphrase("x").bytes.size(), 32u);
}

TEST(Hmac, DigestsEqualConstantTimeSemantics) {
  Digest a{};
  Digest b{};
  EXPECT_TRUE(digests_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digests_equal(a, b));
}

// --- SecureTransport ---

class EchoServant final : public orb::SkeletonBase {
 public:
  EchoServant() {
    register_raw("echo", [](cdr::Reader& r, cdr::Writer& w) {
      w.write_string(r.read_string());
      return Status::ok();
    });
  }
  [[nodiscard]] const char* type_id() const override { return "IDL:test/E:1.0"; }
};

TEST(SecureTransport, AuthenticatedRoundTrip) {
  orb::DirectTransport wire;
  SecureTransport secure(wire, Key::from_passphrase("realm"));
  orb::Orb client(1, secure, nullptr);
  orb::Orb server(2, secure, nullptr);
  auto ref = server.activate(std::make_shared<EchoServant>());

  cdr::Writer args;
  args.write_string("hello");
  std::string echoed;
  client.invoke(ref, "echo", args.take_buffer(),
                [&](Result<std::vector<std::uint8_t>> reply) {
                  ASSERT_TRUE(reply.is_ok());
                  cdr::Reader r(reply.value());
                  echoed = r.read_string();
                });
  EXPECT_EQ(echoed, "hello");
  EXPECT_GE(secure.metrics().counter_value("frames_verified"), 2);
  EXPECT_EQ(secure.rejected_frames(), 0);
}

TEST(SecureTransport, CrossRealmFramesDropped) {
  orb::DirectTransport wire;
  // Client and server keyed to different realms over the same wire.
  SecureTransport client_side(wire, Key::from_passphrase("realm-A"));
  SecureTransport server_side(wire, Key::from_passphrase("realm-B"));
  orb::Orb client(1, client_side, nullptr);
  orb::Orb server(2, server_side, nullptr);
  auto ref = server.activate(std::make_shared<EchoServant>());

  Status status;
  client.invoke(ref, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  // The request never verified at the server: no reply, synchronous fail.
  EXPECT_FALSE(status.is_ok());
  EXPECT_GE(server_side.rejected_frames(), 1);
}

TEST(SecureTransport, TamperedFrameDropped) {
  // A hostile middlebox flips one payload byte.
  class TamperingTransport final : public orb::Transport {
   public:
    explicit TamperingTransport(orb::Transport& inner) : inner_(inner) {}
    void bind(orb::NodeAddress self, orb::FrameHandler handler) override {
      inner_.bind(self, std::move(handler));
    }
    void unbind(orb::NodeAddress self) override { inner_.unbind(self); }
    void send(orb::NodeAddress from, orb::NodeAddress to,
              std::vector<std::uint8_t> frame) override {
      if (!frame.empty()) frame[frame.size() / 2] ^= 0x01;
      inner_.send(from, to, std::move(frame));
    }
   private:
    orb::Transport& inner_;
  };

  orb::DirectTransport wire;
  TamperingTransport hostile(wire);
  SecureTransport secure(hostile, Key::from_passphrase("realm"));
  orb::Orb client(1, secure, nullptr);
  orb::Orb server(2, secure, nullptr);
  auto ref = server.activate(std::make_shared<EchoServant>());

  Status status;
  client.invoke(ref, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_FALSE(status.is_ok());
  EXPECT_GE(secure.rejected_frames(), 1);
}

TEST(SecureTransport, SpoofedSenderAddressRejected) {
  // A frame signed for sender 1 replayed as sender 3 must not verify,
  // because the tag binds the sender address.
  class ReaddressingTransport final : public orb::Transport {
   public:
    explicit ReaddressingTransport(orb::Transport& inner) : inner_(inner) {}
    void bind(orb::NodeAddress self, orb::FrameHandler handler) override {
      inner_.bind(self, std::move(handler));
    }
    void unbind(orb::NodeAddress self) override { inner_.unbind(self); }
    void send(orb::NodeAddress, orb::NodeAddress to,
              std::vector<std::uint8_t> frame) override {
      inner_.send(/*spoofed=*/3, to, std::move(frame));
    }
   private:
    orb::Transport& inner_;
  };

  orb::DirectTransport wire;
  ReaddressingTransport spoofer(wire);
  SecureTransport secure(spoofer, Key::from_passphrase("realm"));
  orb::Orb client(1, secure, nullptr);
  orb::Orb server(2, secure, nullptr);
  auto ref = server.activate(std::make_shared<EchoServant>());

  Status status;
  client.invoke(ref, "echo", {}, [&](Result<std::vector<std::uint8_t>> reply) {
    status = reply.status();
  });
  EXPECT_FALSE(status.is_ok());
  EXPECT_GE(secure.rejected_frames(), 1);
}

// --- Sandbox ---

protocol::TaskDescriptor task(MInstr work, Bytes ram, Bytes io = 0,
                              const std::string& platform = "linux-x86") {
  protocol::TaskDescriptor t;
  t.work = work;
  t.ram_needed = ram;
  t.input_bytes = io / 2;
  t.output_bytes = io - io / 2;
  t.binary_platform = platform;
  return t;
}

TEST(Sandbox, DefaultPolicyAdmitsEverything) {
  Sandbox sandbox;
  EXPECT_TRUE(sandbox.admit(task(1e9, kGiB, kGiB)).is_ok());
}

TEST(Sandbox, EnforcesEveryLimit) {
  SandboxPolicy policy;
  policy.max_work = 1e6;
  policy.max_ram = 64 * kMiB;
  policy.max_io = 10 * kMiB;
  policy.max_checkpoint = kMiB;
  policy.allowed_platforms = {"java"};
  Sandbox sandbox(policy);

  EXPECT_FALSE(sandbox.admit(task(2e6, kMiB, 0, "java")).is_ok());
  EXPECT_FALSE(sandbox.admit(task(1e3, 128 * kMiB, 0, "java")).is_ok());
  EXPECT_FALSE(sandbox.admit(task(1e3, kMiB, 20 * kMiB, "java")).is_ok());
  EXPECT_FALSE(sandbox.admit(task(1e3, kMiB, 0, "linux-x86")).is_ok());
  auto big_ckpt = task(1e3, kMiB, 0, "java");
  big_ckpt.checkpoint_bytes = 2 * kMiB;
  EXPECT_FALSE(sandbox.admit(big_ckpt).is_ok());

  EXPECT_TRUE(sandbox.admit(task(1e5, kMiB, kMiB, "java")).is_ok());
}

TEST(Sandbox, RefusalsCarryReasons) {
  SandboxPolicy policy;
  policy.max_work = 1;
  Sandbox sandbox(policy);
  const auto status = sandbox.admit(task(100, 0));
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("work"), std::string::npos);
}

}  // namespace
}  // namespace integrade::security
