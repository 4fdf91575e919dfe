// Checkpoint repository: versioning, global consistency lines, pruning —
// plus the content-addressed data plane: chunking, compression, the chunk
// store's refcounted GC, and the agent's peer-first restore path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>

#include "ckpt/agent.hpp"
#include "ckpt/chunk.hpp"
#include "ckpt/compress.hpp"
#include "ckpt/lz_tables.hpp"
#include "ckpt/repository.hpp"
#include "ckpt/store.hpp"
#include "common/rng.hpp"
#include "orb/transport.hpp"
#include "security/sha256.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace integrade::ckpt {
namespace {

Checkpoint make(AppId app, std::int32_t rank, std::int64_t version,
                std::size_t bytes = 16) {
  Checkpoint c;
  c.app = app;
  c.rank = rank;
  c.version = version;
  c.created_at = version * kSecond;
  c.state.assign(bytes, static_cast<std::uint8_t>(version));
  return c;
}

TEST(CkptRepo, StoreAndLatest) {
  CheckpointRepository repo;
  const AppId app(1);
  ASSERT_TRUE(repo.store(make(app, 0, 1)).is_ok());
  ASSERT_TRUE(repo.store(make(app, 0, 3)).is_ok());
  ASSERT_NE(repo.latest(app, 0), nullptr);
  EXPECT_EQ(repo.latest(app, 0)->version, 3);
  EXPECT_EQ(repo.latest(app, 1), nullptr);
  EXPECT_EQ(repo.latest(AppId(2), 0), nullptr);
  EXPECT_EQ(repo.checkpoint_count(), 2u);
  EXPECT_EQ(repo.stores(), 2);
}

TEST(CkptRepo, VersionRegressionRejected) {
  CheckpointRepository repo;
  const AppId app(1);
  ASSERT_TRUE(repo.store(make(app, 0, 5)).is_ok());
  EXPECT_FALSE(repo.store(make(app, 0, 5)).is_ok());  // same version
  EXPECT_FALSE(repo.store(make(app, 0, 4)).is_ok());  // older
  EXPECT_EQ(repo.latest(app, 0)->version, 5);
}

TEST(CkptRepo, AtVersionLookup) {
  CheckpointRepository repo;
  const AppId app(1);
  (void)repo.store(make(app, 0, 1));
  (void)repo.store(make(app, 0, 2));
  ASSERT_NE(repo.at_version(app, 0, 1), nullptr);
  EXPECT_EQ(repo.at_version(app, 0, 1)->version, 1);
  EXPECT_EQ(repo.at_version(app, 0, 9), nullptr);
}

TEST(CkptRepo, CompleteVersionNeedsEveryRank) {
  CheckpointRepository repo;
  const AppId app(1);
  // 3-rank app: version 4 complete, version 8 missing rank 2.
  for (std::int32_t rank = 0; rank < 3; ++rank) {
    (void)repo.store(make(app, rank, 4));
  }
  (void)repo.store(make(app, 0, 8));
  (void)repo.store(make(app, 1, 8));

  EXPECT_EQ(repo.latest_complete_version(app, 3), 4);
  EXPECT_EQ(repo.latest_complete_version(app, 4), std::nullopt);  // rank 3 never stored
  EXPECT_EQ(repo.latest_complete_version(app, 2), 8);  // ranks 0,1 only
  EXPECT_EQ(repo.latest_complete_version(AppId(9), 3), std::nullopt);
  EXPECT_EQ(repo.latest_complete_version(app, 0), std::nullopt);
}

TEST(CkptRepo, PruneDropsOldVersionsAndAccounting) {
  CheckpointRepository repo;
  const AppId app(1);
  (void)repo.store(make(app, 0, 1, 100));
  (void)repo.store(make(app, 0, 2, 100));
  (void)repo.store(make(app, 0, 3, 100));
  EXPECT_EQ(repo.total_bytes(), 300);
  repo.prune(app, 3);
  EXPECT_EQ(repo.total_bytes(), 100);
  EXPECT_EQ(repo.at_version(app, 0, 1), nullptr);
  EXPECT_NE(repo.at_version(app, 0, 3), nullptr);
}

TEST(CkptRepo, DropAppRemovesEverything) {
  CheckpointRepository repo;
  (void)repo.store(make(AppId(1), 0, 1, 50));
  (void)repo.store(make(AppId(1), 1, 1, 50));
  (void)repo.store(make(AppId(2), 0, 1, 50));
  repo.drop_app(AppId(1));
  EXPECT_EQ(repo.latest(AppId(1), 0), nullptr);
  EXPECT_NE(repo.latest(AppId(2), 0), nullptr);
  EXPECT_EQ(repo.total_bytes(), 50);
}

TEST(CkptRepo, CheckpointCdrRoundTrip) {
  auto c = make(AppId(7), 3, 42, 128);
  auto bytes = cdr::encode_message(c);
  auto decoded = cdr::decode_message<Checkpoint>(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), c);
}

TEST(CkptRepo, SequentialStateRoundTrip) {
  SequentialState state{123456.75};
  auto bytes = cdr::encode_message(state);
  auto decoded = cdr::decode_message<SequentialState>(bytes);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), state);
}

// --- chunking ---

void expect_exact_cover(const std::vector<ChunkSpan>& spans, std::size_t size) {
  std::uint64_t at = 0;
  for (const auto& span : spans) {
    EXPECT_EQ(span.offset, at);
    EXPECT_GT(span.size, 0u);
    at += span.size;
  }
  EXPECT_EQ(at, size);
}

TEST(Chunking, FixedBoundarySweep) {
  ChunkParams params;
  params.chunker = Chunker::kFixed;
  params.chunk_size = 4096;
  const std::size_t cs = params.chunk_size;
  // Image sizes straddling every interesting boundary.
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, cs - 1, cs, cs + 1,
                           2 * cs, 2 * cs + 17}) {
    std::vector<std::uint8_t> image(size, 0x5a);
    auto spans = chunk_spans(image, params);
    expect_exact_cover(spans, size);
    EXPECT_EQ(spans.size(), (size + cs - 1) / cs);
    for (const auto& span : spans) EXPECT_LE(span.size, cs);
  }
}

TEST(Chunking, CdcBoundarySweepRespectsBounds) {
  ChunkParams params;
  params.chunker = Chunker::kCdc;
  params.chunk_size = 4096;
  params.cdc_min = 1024;
  params.cdc_max = 16384;
  Rng rng(99);
  const std::size_t cs = params.chunk_size;
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, cs - 1, cs, cs + 1,
                           std::size_t{200'000}}) {
    std::vector<std::uint8_t> image(size);
    for (auto& b : image) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    auto spans = chunk_spans(image, params);
    expect_exact_cover(spans, size);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_LE(spans[i].size, params.cdc_max);
      // Every span but the last respects the minimum.
      if (i + 1 < spans.size()) {
        EXPECT_GE(spans[i].size, params.cdc_min);
      }
    }
  }
}

TEST(Chunking, CdcBoundariesShiftLocallyOnInsertion) {
  // An insertion near the front must not re-chunk the distant tail: spans
  // resynchronize, so most chunk hashes are shared with the original.
  ChunkParams params;
  params.chunker = Chunker::kCdc;
  params.chunk_size = 4096;
  params.cdc_min = 1024;
  params.cdc_max = 16384;
  Rng rng(7);
  std::vector<std::uint8_t> image(256 * 1024);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::uint8_t> shifted(image);
  shifted.insert(shifted.begin() + 1000, {1, 2, 3, 4, 5, 6, 7});

  auto hashes = [&](const std::vector<std::uint8_t>& img) {
    std::vector<security::Digest> out;
    for (const auto& span : chunk_spans(img, params)) {
      out.push_back(security::Sha256::hash(img.data() + span.offset, span.size));
    }
    return out;
  };
  const auto a = hashes(image);
  const auto b = hashes(shifted);
  std::size_t shared = 0;
  for (const auto& h : b) {
    if (std::find(a.begin(), a.end(), h) != a.end()) ++shared;
  }
  // All but the first couple of chunks resynchronize.
  EXPECT_GE(shared + 3, b.size());
  EXPECT_GE(shared, a.size() / 2);
}

// --- compression ---

// "the quick brown fox " 200 times.
std::vector<std::uint8_t> fox_text() {
  std::vector<std::uint8_t> text;
  for (int i = 0; i < 200; ++i) {
    for (char c : std::string("the quick brown fox ")) {
      text.push_back(static_cast<std::uint8_t>(c));
    }
  }
  return text;
}

// Chunk 9 of 16 (64 KiB each) of app 7 rank 3's 1 MiB image at superstep 5;
// it holds pages superstep 5 dirtied.
std::vector<std::uint8_t> image_chunk() {
  ImageModelParams mp;
  mp.image_bytes = 1 * kMiB;
  const auto image = ImageModel(AppId(7), 3, mp).render(5);
  return {image.begin() + 9 * 64 * 1024, image.begin() + 10 * 64 * 1024};
}

TEST(Compress, RoundTripAndRawFallback) {
  // Compressible: repeated text.
  const auto text = fox_text();
  auto packed = pack_chunk(text, /*try_compress=*/true);
  EXPECT_EQ(packed.encoding, Encoding::kLz);
  EXPECT_LT(packed.payload.size(), text.size());
  auto unpacked = unpack_chunk(packed.encoding, packed.raw_size, packed.payload);
  ASSERT_TRUE(unpacked.is_ok());
  EXPECT_EQ(unpacked.value(), text);

  // Incompressible: random bytes fall back to kRaw, verbatim.
  Rng rng(3);
  std::vector<std::uint8_t> noise(4096);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  auto raw = pack_chunk(noise, /*try_compress=*/true);
  EXPECT_EQ(raw.encoding, Encoding::kRaw);
  EXPECT_EQ(raw.payload, noise);

  // try_compress=false always stores raw.
  EXPECT_EQ(pack_chunk(text, /*try_compress=*/false).encoding, Encoding::kRaw);
}

TEST(Compress, TruncatedStreamRejected) {
  std::vector<std::uint8_t> text(8192, 0x41);
  auto packed = pack_chunk(text, true);
  ASSERT_EQ(packed.encoding, Encoding::kLz);
  auto cut = packed.payload;
  cut.resize(cut.size() / 2);
  EXPECT_FALSE(unpack_chunk(Encoding::kLz, packed.raw_size, cut).is_ok());
  // Wrong declared size also rejected.
  EXPECT_FALSE(
      unpack_chunk(Encoding::kLz, packed.raw_size + 1, packed.payload).is_ok());
}

// The compressor's exact output. Chunk hashes, wire bytes and E17 depend on
// it, so a match-finder change that alters the parse must fail here first.
// Pinned values: size and SHA-256 of the packed stream.
TEST(Compress, PinnedStream) {
  const auto chunk = image_chunk();
  EXPECT_EQ(security::to_hex(security::Sha256::hash(chunk)),
            "cf2cb325812a0908a6eb13d907a00673f67a018c47bacbb559f5003246dd4734");
  const auto packed = lz_compress(chunk);
  EXPECT_EQ(packed.size(), 26226u);
  EXPECT_EQ(security::to_hex(security::Sha256::hash(packed)),
            "4026d5a24efb5cc640da719feae79c260b7add90ea109282032018808c6dfdcd");

  const auto packed_text = lz_compress(fox_text());
  EXPECT_EQ(packed_text.size(), 495u);
  EXPECT_EQ(security::to_hex(security::Sha256::hash(packed_text)),
            "d4f52a3e3a860dc49ba96b6de720ab39294c7c48812a59b92c0739050eda0262");
}

// A store keeps a packed payload as is, for as long as it holds the chunk.
TEST(Compress, PackedPayloadHasNoSpareCapacity) {
  const auto packed = pack_chunk(image_chunk(), /*try_compress=*/true);
  ASSERT_EQ(packed.encoding, Encoding::kLz);
  EXPECT_EQ(packed.payload.capacity(), packed.payload.size());
}

// Hand-built streams, one per decoder rejection. A control byte's bits,
// LSB first, pick a literal (1) or a 2-byte token (0): low byte = offset-1
// low bits, high byte = offset-1 high nibble << 4 | length-3.
TEST(Compress, DecoderRejectsEachMalformedStream) {
  auto rejection = [](std::vector<std::uint8_t> stream, std::size_t raw_size) {
    auto result = lz_decompress(stream, raw_size);
    EXPECT_FALSE(result.is_ok());
    return result.is_ok() ? std::string() : result.status().message();
  };
  // A match at the very start: offset 1 reaches before the first byte.
  EXPECT_EQ(rejection({0x00, 0x00, 0x00}, 3),
            "lz match offset reaches before stream start");
  // 'a', then offset 1 length 18: 19 bytes against a declared 4.
  EXPECT_EQ(rejection({0x01, 'a', 0x00, 0x0f}, 4),
            "lz match overruns declared raw size");
  // Two literals where the declared size is one.
  EXPECT_EQ(rejection({0xff, 'a', 'b'}, 1),
            "lz stream continues past declared raw size");
  // A token cut after its first byte.
  EXPECT_EQ(rejection({0x01, 'a', 0x00}, 10),
            "lz stream truncated inside a match token");
  // Three literals where five are declared.
  EXPECT_EQ(rejection({0xff, 'a', 'b', 'c'}, 5),
            "lz stream ended short of declared raw size");
}

TEST(Compress, OverlappingMatchRoundTrip) {
  // A run of one byte: after the first literal the compressor emits one
  // offset-1 match of the maximum length, 18, which reads bytes the match
  // itself produces.
  const std::vector<std::uint8_t> run(1 + 18, 'x');
  const auto packed = lz_compress(run);
  EXPECT_EQ(packed, (std::vector<std::uint8_t>{0x01, 'x', 0x00, 0x0f}));
  auto back = lz_decompress(packed, run.size());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), run);
}

// lz_compress keeps its match tables from one call to the next
// (lz_tables.hpp). Nothing a call leaves in them may change a later call's
// output, including across the reset when the position counter would wrap.
TEST(Compress, OutputIsAPureFunctionOfInput) {
  constexpr std::size_t kWindow = 4096;
  Rng rng(21);
  std::vector<std::vector<std::uint8_t>> inputs;
  for (std::size_t size : {0, 1, 2, 3, 4095, 4096, 4097}) {
    // Four symbols, so three-byte matches are everywhere.
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    inputs.push_back(std::move(bytes));
  }
  inputs.push_back(image_chunk());
  inputs.push_back(fox_text());

  auto round_trips = [](const std::uint8_t* raw, std::size_t size,
                        const std::vector<std::uint8_t>& packed) {
    auto back = lz_decompress(packed, size);
    return back.is_ok() && std::equal(raw, raw + size, back.value().begin(),
                                      back.value().end());
  };
  std::vector<std::vector<std::uint8_t>> firsts;
  for (const auto& a : inputs) {
    // B (a's size, other bytes) sits right before a copy of A in one
    // buffer, so a chain B left behind would point at B's bytes and find
    // real matches in the second A.
    std::vector<std::uint8_t> ba(a);
    for (auto& byte : ba) byte ^= 0x01;
    ba.insert(ba.end(), a.begin(), a.end());
    const std::uint8_t* const b = ba.data();
    const auto first = lz_compress(a);
    const auto other = lz_compress(b, a.size());
    const auto again = lz_compress(b + a.size(), a.size());
    EXPECT_EQ(again, first) << "size " << a.size();
    EXPECT_TRUE(round_trips(a.data(), a.size(), first)) << "size " << a.size();
    EXPECT_TRUE(round_trips(b, a.size(), other)) << "size " << a.size();
    firsts.push_back(first);
  }

  // Move the counter so the image chunk's positions end just below the
  // 32-bit limit: it still fits, and no call after it does.
  const std::uint32_t chunk_start =
      UINT32_MAX - 10 - static_cast<std::uint32_t>(inputs[7].size() + kWindow);
  detail::lz_skip_positions(chunk_start - kWindow - detail::lz_next_position());
  ASSERT_EQ(detail::lz_next_position(), chunk_start);
  EXPECT_EQ(lz_compress(inputs[7]), firsts[7]);
  EXPECT_EQ(detail::lz_next_position(), UINT32_MAX - 10);
  // Each call below would cross the limit, so it clears the tables and
  // starts over one window past zero. A counter that wrapped instead would
  // bring entries from before the wrap back into the window.
  for (std::size_t i : {4, 5, 6, 7, 8}) {
    EXPECT_EQ(lz_compress(inputs[i]), firsts[i]) << "size " << inputs[i].size();
    EXPECT_EQ(detail::lz_next_position(), kWindow + 1 + inputs[i].size() + kWindow)
        << "size " << inputs[i].size();
    detail::lz_skip_positions(UINT32_MAX - kWindow - detail::lz_next_position());
    ASSERT_EQ(detail::lz_next_position(), UINT32_MAX);
  }
}

// Decodes a well-formed stream one byte at a time, as the format reads.
std::vector<std::uint8_t> reference_decode(const std::vector<std::uint8_t>& s) {
  std::vector<std::uint8_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::uint8_t control = s[pos++];
    for (int bit = 0; bit < 8 && pos < s.size(); ++bit) {
      if ((control >> bit) & 1) {
        out.push_back(s[pos++]);
        continue;
      }
      const std::size_t off = (s[pos] | (std::size_t{s[pos + 1]} >> 4) << 8) + 1;
      const std::size_t len = (s[pos + 1] & 0x0fu) + 3;
      pos += 2;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[out.size() - off]);
    }
  }
  return out;
}

TEST(Compress, EveryMutatedStreamIsRejectedOrExact) {
  auto rejected_or_exact = [](const std::vector<std::uint8_t>& stream,
                              std::size_t raw_size) {
    auto result = lz_decompress(stream, raw_size);
    return !result.is_ok() || result.value().size() == raw_size;
  };
  auto flip = [](std::vector<std::uint8_t> stream, std::size_t bit) {
    stream[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return stream;
  };

  const auto text = fox_text();
  const auto packed_text = lz_compress(text);
  for (std::size_t bit = 0; bit < packed_text.size() * 8; ++bit) {
    EXPECT_TRUE(rejected_or_exact(flip(packed_text, bit), text.size()))
        << "bit " << bit;
  }
  // Every strict prefix ends short of the declared size.
  for (std::size_t len = 0; len < packed_text.size(); ++len) {
    const std::vector<std::uint8_t> cut(packed_text.begin(),
                                        packed_text.begin() + len);
    EXPECT_FALSE(lz_decompress(cut, text.size()).is_ok()) << "length " << len;
  }

  const auto chunk = image_chunk();
  const auto packed_chunk = lz_compress(chunk);
  Rng rng(4096);
  const auto bits = static_cast<std::int64_t>(packed_chunk.size() * 8);
  for (int i = 0; i < 4096; ++i) {
    const auto bit = static_cast<std::size_t>(rng.uniform_int(0, bits - 1));
    EXPECT_TRUE(rejected_or_exact(flip(packed_chunk, bit), chunk.size()))
        << "bit " << bit;
  }

  // Seventeen distinct literals, then one match of every offset 1-17 and
  // length 3-18: runs (offset 1), other overlaps (offset < length) and
  // plain copies, each against the byte-at-a-time reference.
  for (std::size_t off = 1; off <= 17; ++off) {
    for (std::size_t len = 3; len <= 18; ++len) {
      std::vector<std::uint8_t> stream;
      for (std::size_t i = 0; i < 17; ++i) {
        if (i % 8 == 0) stream.push_back(i < 16 ? 0xff : 0x01);
        stream.push_back(static_cast<std::uint8_t>('a' + i));
      }
      stream.push_back(static_cast<std::uint8_t>(off - 1));
      stream.push_back(static_cast<std::uint8_t>(len - 3));
      const auto decoded = lz_decompress(stream, 17 + len);
      ASSERT_TRUE(decoded.is_ok()) << "offset " << off << " length " << len;
      EXPECT_EQ(decoded.value(), reference_decode(stream))
          << "offset " << off << " length " << len;
    }
  }
}

// --- image model ---

TEST(ImageModel, DeterministicAndIncrementallyDirty) {
  ImageModelParams params;
  params.image_bytes = 512 * 1024;
  ImageModel model(AppId(3), 1, params);
  EXPECT_TRUE(model.dirty_pages(0).empty());
  EXPECT_FALSE(model.dirty_pages(1).empty());
  // Pure function: identical renders, and a sibling model agrees.
  EXPECT_EQ(model.render(4), model.render(4));
  EXPECT_EQ(model.render(4), ImageModel(AppId(3), 1, params).render(4));
  // Different rank -> different bytes.
  EXPECT_NE(model.render(4), ImageModel(AppId(3), 2, params).render(4));
  // Consecutive supersteps differ only in the dirtied pages.
  const auto before = model.render(3);
  const auto after = model.render(4);
  const auto dirty = model.dirty_pages(4);
  for (std::size_t page = 0; page < model.pages(); ++page) {
    const std::size_t off = page * params.page_size;
    const std::size_t len = std::min<std::size_t>(
        params.page_size, params.image_bytes - off);
    const bool changed = !std::equal(before.begin() + off,
                                     before.begin() + off + len,
                                     after.begin() + off);
    const bool dirtied = std::find(dirty.begin(), dirty.end(), page) != dirty.end();
    EXPECT_EQ(changed, dirtied) << "page " << page;
  }
}

// The per-byte rendering that ImageModel::render_page's block stores
// replaced, with its splitmix64 mixer: 32-byte blocks of h's low eight bytes
// (least significant first) then 24 copies of h's top byte.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
std::uint64_t splitmix64(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a * 0x2545f4914f6cdd1dull + b);
}
std::vector<std::uint8_t> reference_page(AppId app, std::int32_t rank,
                                         const ImageModelParams& params,
                                         std::size_t page, std::uint64_t version) {
  const std::size_t offset = page * params.page_size;
  const std::size_t size = std::min<std::size_t>(
      params.page_size, static_cast<std::size_t>(params.image_bytes) - offset);
  const std::uint64_t base =
      splitmix64(splitmix64(app.value, static_cast<std::uint64_t>(rank)),
                 splitmix64(page, version));
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t h = splitmix64(base, i / 32);
    const std::size_t rel = i % 32;
    out[i] = static_cast<std::uint8_t>(rel < 8 ? h >> (8 * rel) : h >> 56);
  }
  return out;
}

TEST(ImageModel, RenderPageMatchesBytewiseReference) {
  // Neither image size is a multiple of 32 or of its page size. With 4 KiB
  // pages the last page is 165 bytes and ends in a 5-byte block; 1000-byte
  // pages end in an 8-byte block, and the last page is one 20-byte block.
  for (const auto& [page_size, image_bytes] :
       {std::pair<std::uint32_t, Bytes>{4096, 3 * 4096 + 165},
        std::pair<std::uint32_t, Bytes>{1000, 5 * 1000 + 20}}) {
    ImageModelParams params;
    params.page_size = page_size;
    params.image_bytes = image_bytes;
    const ImageModel model(AppId(11), 2, params);
    std::vector<std::uint8_t> out;  // reused, as the agent reuses its buffer
    for (std::uint64_t version : {0, 1, 7}) {
      for (std::size_t page = 0; page < model.pages(); ++page) {
        model.render_page(page, version, out);
        EXPECT_EQ(out, reference_page(AppId(11), 2, params, page, version))
            << "page size " << page_size << " page " << page << " version "
            << version;
      }
    }
  }
}

// --- chunk store ---

protocol::CkptManifest manifest_for(const std::vector<std::uint8_t>& image,
                                    ChunkStore& store, AppId app,
                                    std::int32_t rank, std::int64_t version,
                                    const ChunkParams& params) {
  protocol::CkptManifest m;
  m.app = app;
  m.rank = rank;
  m.version = version;
  m.chunker = static_cast<std::uint8_t>(params.chunker);
  m.chunk_size = params.chunk_size;
  m.image_bytes = image.size();
  for (const auto& span : chunk_spans(image, params)) {
    std::vector<std::uint8_t> raw(image.begin() + span.offset,
                                  image.begin() + span.offset + span.size);
    const auto hash = security::Sha256::hash(raw);
    if (!store.has(hash)) {
      auto packed = pack_chunk(raw, true);
      EXPECT_TRUE(store
                      .put(hash, packed.encoding, packed.raw_size,
                           std::move(packed.payload), /*verify=*/false)
                      .is_ok());
    }
    m.chunks.push_back({hash, span.size});
  }
  return m;
}

TEST(ChunkStore, ManifestRoundTripMaterializes) {
  ChunkStore store;
  ChunkParams params;
  params.chunk_size = 16 * 1024;
  ImageModelParams mp;
  mp.image_bytes = 300'000;
  ImageModel model(AppId(5), 0, mp);
  const auto image = model.render(2);
  auto m = manifest_for(image, store, AppId(5), 0, 2, params);
  ASSERT_TRUE(store.install(m).is_ok());
  ASSERT_NE(store.manifest(AppId(5), 0, 2), nullptr);
  auto back = store.materialize(AppId(5), 0, 2);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), image);
}

TEST(ChunkStore, DedupAcrossDirtySupersteps) {
  // "Dirty 5% of pages" supersteps: storing each full image should cost
  // roughly only the dirty fraction after the first, i.e. dedup >= 3x.
  ChunkStore store;
  ChunkParams params;  // 64 KiB fixed
  ImageModelParams mp;
  mp.image_bytes = 4 * kMiB;
  ImageModel model(AppId(6), 0, mp);
  for (std::int64_t step = 0; step <= 8; ++step) {
    const auto image = model.render(step);
    auto m = manifest_for(image, store, AppId(6), 0, step, params);
    ASSERT_TRUE(store.install(m).is_ok());
  }
  EXPECT_GE(store.dedup_ratio(), 3.0);
  // Far more bytes were installed (logically) than ever stored.
  EXPECT_GT(store.logical_bytes_installed(), 3 * store.raw_bytes_added());
  // Compression on the synthetic content also wins.
  EXPECT_GT(store.compression_ratio(), 1.2);
}

TEST(ChunkStore, CorruptedChunkRejected) {
  ChunkStore store;
  std::vector<std::uint8_t> raw(8192, 0x42);
  const auto hash = security::Sha256::hash(raw);
  auto packed = pack_chunk(raw, true);

  // Tampered payload: hash mismatch after unpack.
  auto tampered = packed.payload;
  tampered[tampered.size() / 2] ^= 0xff;
  auto r1 = store.put(hash, packed.encoding, packed.raw_size, tampered, true);
  EXPECT_FALSE(r1.is_ok());
  // Garbage that is not even a valid LZ stream.
  std::vector<std::uint8_t> garbage(64, 0xff);
  auto r2 = store.put(hash, Encoding::kLz, 8192, garbage, true);
  EXPECT_FALSE(r2.is_ok());
  EXPECT_EQ(store.rejects(), 2);
  EXPECT_FALSE(store.has(hash));
  EXPECT_EQ(store.chunk_count(), 0u);

  // The honest payload lands.
  auto r3 = store.put(hash, packed.encoding, packed.raw_size,
                      std::move(packed.payload), true);
  ASSERT_TRUE(r3.is_ok());
  EXPECT_TRUE(r3.value());
  EXPECT_TRUE(store.has(hash));
}

TEST(ChunkStore, PruneReclaimsUnreferencedChunks) {
  ChunkStore store;
  ChunkParams params;
  params.chunk_size = 16 * 1024;
  ImageModelParams mp;
  mp.image_bytes = 1 * kMiB;
  mp.dirty_permille = 300;  // heavy churn: most chunks die with their version
  mp.dirty_run_pages = 16;
  ImageModel model(AppId(8), 0, mp);
  for (std::int64_t step = 0; step <= 5; ++step) {
    const auto image = model.render(step);
    auto m = manifest_for(image, store, AppId(8), 0, step, params);
    ASSERT_TRUE(store.install(m).is_ok());
  }
  const auto resident_before = store.stored_bytes();
  store.prune(AppId(8), 5);
  EXPECT_GT(store.bytes_reclaimed(), 0);
  EXPECT_LT(store.stored_bytes(), resident_before);
  EXPECT_GT(store.chunks_reclaimed(), 0);
  // The kept version still materializes intact.
  auto back = store.materialize(AppId(8), 0, 5);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), model.render(5));
  EXPECT_EQ(store.manifest_count(), 1u);
}

TEST(ChunkStore, PruneDoesNotReclaimPinnedRestoreChunks) {
  // Regression: a keep-latest trim landing while a striped peer restore was
  // in flight reclaimed chunks the restore had already counted as resident,
  // so the reassembled image failed its hash check. In-flight restores pin
  // their chunks; prune_line must leave pinned data alone.
  ChunkStore store;
  ChunkParams params;
  params.chunk_size = 16 * 1024;
  ImageModelParams mp;
  mp.image_bytes = 1 * kMiB;
  mp.dirty_permille = 300;  // v1 and v2 share little: v1-only chunks exist
  mp.dirty_run_pages = 16;
  ImageModel model(AppId(11), 0, mp);
  const auto image1 = model.render(1);
  auto m1 = manifest_for(image1, store, AppId(11), 0, 1, params);
  ASSERT_TRUE(store.install(m1).is_ok());
  const auto image2 = model.render(2);
  auto m2 = manifest_for(image2, store, AppId(11), 0, 2, params);
  ASSERT_TRUE(store.install(m2).is_ok());

  // A restore of version 1 starts: it pins every stripe it will assemble.
  for (const auto& c : m1.chunks) store.pin(c.hash);

  // The trim lands mid-restore and drops the v1 manifest...
  store.prune_line(AppId(11), 0, /*keep_from=*/2);
  EXPECT_EQ(store.manifest(AppId(11), 0, 1), nullptr);

  // ...but every pinned stripe is still resident and re-hashes to its
  // declared content hash, so the restore completes with an intact image.
  for (const auto& c : m1.chunks) {
    const auto* stored = store.get(c.hash);
    ASSERT_NE(stored, nullptr);
    auto raw = unpack_chunk(stored->encoding, stored->raw_size, stored->payload);
    ASSERT_TRUE(raw.is_ok());
    EXPECT_EQ(security::Sha256::hash(raw.value()), c.hash);
  }

  // Restore finished: pins drop, and the now-unreferenced v1-only chunks
  // are reclaimed on the spot.
  const auto resident_before = store.chunk_count();
  for (const auto& c : m1.chunks) store.unpin(c.hash);
  EXPECT_LT(store.chunk_count(), resident_before);
  // The surviving version is untouched throughout.
  auto back = store.materialize(AppId(11), 0, 2);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), image2);
}

TEST(ChunkStore, OrphanChunksNeedTwoSweeps) {
  // A chunk put without a manifest install (aborted save) survives the
  // first prune sweep and is reclaimed by the second.
  ChunkStore store;
  std::vector<std::uint8_t> raw(4096, 0x17);
  const auto hash = security::Sha256::hash(raw);
  auto packed = pack_chunk(raw, true);
  ASSERT_TRUE(store.put(hash, packed.encoding, packed.raw_size,
                        std::move(packed.payload), false)
                  .is_ok());
  store.prune(AppId(1), 100);
  EXPECT_TRUE(store.has(hash));
  store.prune(AppId(1), 100);
  EXPECT_FALSE(store.has(hash));
  EXPECT_GT(store.bytes_reclaimed(), 0);
}

TEST(ChunkStore, InstallRejectsRegressionAndMissingChunks) {
  ChunkStore store;
  ChunkParams params;
  std::vector<std::uint8_t> image(100'000, 0x31);
  auto m5 = manifest_for(image, store, AppId(9), 0, 5, params);
  ASSERT_TRUE(store.install(m5).is_ok());
  auto m4 = m5;
  m4.version = 4;
  EXPECT_FALSE(store.install(m4).is_ok());  // regression
  auto m6 = m5;
  m6.version = 6;
  m6.chunks.push_back({protocol::CkptHash{{9, 9, 9}}, 4096});
  EXPECT_FALSE(store.install(m6).is_ok());  // references absent chunk
  // Idempotent re-install of the current version.
  EXPECT_TRUE(store.install(m5).is_ok());
}

// --- agent: peer-first restore under manager partition ---

TEST(CkptAgent, RestorePullsFromPeersWhenManagerPartitioned) {
  sim::Engine engine;
  sim::Network network(engine, Rng(42));
  network.set_jitter(0.0);
  sim::FaultInjector faults(engine, network, Rng(43));
  auto lan = network.add_segment(sim::SegmentSpec{});
  for (sim::EndpointId ep = 1; ep <= 4; ++ep) network.attach(ep, lan);
  orb::SimNetworkTransport transport(network);

  // Node 1: the cluster manager's repository store.
  orb::Orb manager_orb(1, transport, &engine);
  ChunkStore repo_store;
  auto repo_ref =
      manager_orb.activate(std::make_shared<StoreServant>(repo_store));

  DataPlaneOptions options;
  options.enabled = true;
  options.chunking.chunk_size = 16 * 1024;
  orb::Orb orb_a(2, transport, &engine);
  orb::Orb orb_b(3, transport, &engine);
  orb::Orb orb_c(4, transport, &engine);
  CkptAgent agent_a(engine, orb_a, options);
  CkptAgent agent_b(engine, orb_b, options);
  CkptAgent agent_c(engine, orb_c, options);
  for (auto* agent : {&agent_a, &agent_b, &agent_c}) {
    agent->set_repository(repo_ref);
    agent->start();
  }

  // Rank 0 checkpoints on node A, replicating to peer B (and the manager).
  const AppId app(77);
  protocol::CkptSaveRequest save;
  save.app = app;
  save.rank = 0;
  save.version = 3;
  save.image_bytes = 600'000;
  save.repository = repo_ref;
  save.peers = {agent_b.ref()};
  agent_a.handle_save(save);
  engine.run();
  const auto* manifest = agent_a.store().latest_manifest(app, 0);
  ASSERT_NE(manifest, nullptr);
  ASSERT_EQ(manifest->version, 3);
  ASSERT_NE(agent_b.store().manifest(app, 0, 3), nullptr);
  ASSERT_NE(repo_store.manifest(app, 0, 3), nullptr);

  // The manager node drops off the network; node A dies too. The rank is
  // rescheduled onto node C, which has none of the chunks.
  faults.crash_endpoint(1);
  faults.crash_endpoint(2);
  agent_a.abort_inflight();

  protocol::CkptRestoreRequest restore;
  restore.app = app;
  restore.rank = 0;
  restore.version = 3;
  restore.manifest = *manifest;
  restore.repository = repo_ref;      // unreachable
  restore.peers = {agent_b.ref()};    // the surviving replica
  agent_c.handle_restore(restore);
  engine.run();

  // C rebuilt the image from B alone.
  ASSERT_NE(agent_c.store().manifest(app, 0, 3), nullptr);
  auto image = agent_c.store().materialize(app, 0, 3);
  ASSERT_TRUE(image.is_ok());
  ImageModelParams mp;
  mp.image_bytes = 600'000;
  EXPECT_EQ(image.value(), ImageModel(app, 0, mp).render(3));
  EXPECT_GT(agent_c.metrics().counter_value("restore_chunks_from_peers"), 0);
  EXPECT_EQ(agent_c.metrics().counter_value("restore_chunks_from_repository"), 0);
}

// --- agent: a save after a restore equals a save without one ---

// Agents on one LAN around a repository store (endpoint 1).
struct AgentLan {
  explicit AgentLan(int count) {
    network.set_jitter(0.0);
    const auto lan = network.add_segment(sim::SegmentSpec{});
    for (sim::EndpointId ep = 1; ep <= static_cast<sim::EndpointId>(count) + 1;
         ++ep) {
      network.attach(ep, lan);
    }
    repo_ref = repo_orb.activate(std::make_shared<StoreServant>(repo_store));
    for (int i = 0; i < count; ++i) {
      orbs.push_back(std::make_unique<orb::Orb>(
          static_cast<sim::EndpointId>(i + 2), transport, &engine));
      agents.push_back(std::make_unique<CkptAgent>(engine, *orbs.back(),
                                                   DataPlaneOptions{}));
      agents.back()->set_repository(repo_ref);
      agents.back()->start();
    }
  }
  CkptAgent& agent(std::size_t i) { return *agents[i]; }

  sim::Engine engine;
  sim::Network network{engine, Rng(42)};
  orb::SimNetworkTransport transport{network};
  orb::Orb repo_orb{1, transport, &engine};
  ChunkStore repo_store;
  orb::ObjectRef repo_ref;
  std::vector<std::unique_ptr<orb::Orb>> orbs;
  std::vector<std::unique_ptr<CkptAgent>> agents;
};

TEST(CkptAgent, BspSaveAfterRestoreEqualsSaveWithoutOne) {
  // A restore primes the agent's incremental image cache from the restored
  // manifest; the next save re-renders only the chunks dirtied since. Its
  // manifest must be the one built by an agent that never restored.
  AgentLan lan(3);
  CkptAgent& origin = lan.agent(0);
  CkptAgent& restored = lan.agent(1);
  CkptAgent& fresh = lan.agent(2);
  const AppId app(31);
  const std::int32_t rank = 1;
  const std::int64_t v = 6;
  auto save_at = [&](std::int64_t version) {
    protocol::CkptSaveRequest save;
    save.app = app;
    save.rank = rank;
    save.version = version;
    save.image_bytes = 1 * kMiB;
    save.repository = lan.repo_ref;
    return save;
  };

  origin.handle_save(save_at(v));
  lan.engine.run();
  const auto* at_v = origin.store().latest_manifest(app, rank);
  ASSERT_NE(at_v, nullptr);
  protocol::CkptRestoreRequest restore;
  restore.app = app;
  restore.rank = rank;
  restore.version = v;
  restore.manifest = *at_v;
  restore.repository = lan.repo_ref;
  restore.peers = {origin.ref()};
  restored.handle_restore(restore);
  lan.engine.run();
  ASSERT_NE(restored.store().manifest(app, rank, v), nullptr);

  restored.handle_save(save_at(v + 2));
  fresh.handle_save(save_at(v + 2));
  lan.engine.run();
  const auto* after_restore = restored.store().manifest(app, rank, v + 2);
  const auto* without_restore = fresh.store().manifest(app, rank, v + 2);
  ASSERT_NE(after_restore, nullptr);
  ASSERT_NE(without_restore, nullptr);
  EXPECT_EQ(*after_restore, *without_restore);
  auto image = restored.store().materialize(app, rank, v + 2);
  ASSERT_TRUE(image.is_ok());
  ImageModelParams mp;
  mp.image_bytes = 1 * kMiB;
  EXPECT_EQ(image.value(), ImageModel(app, rank, mp).render(v + 2));
}

TEST(CkptAgent, SequentialSaveAfterWarmRestoreEqualsFreshSave) {
  // Sequential versions are seconds of sim time; the image's content step
  // is the agent's per-line save ordinal.
  AgentLan lan(3);
  CkptAgent& origin = lan.agent(0);
  CkptAgent& restored = lan.agent(1);
  CkptAgent& fresh = lan.agent(2);
  const AppId app(32);
  origin.save_sequential(app, 0, /*version=*/86'400, 1 * kMiB);
  lan.engine.run();
  restored.warm_restore(app, 0, {origin.ref()});
  lan.engine.run();
  const auto* warm = restored.store().latest_manifest(app, 0);
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(warm->version, 86'400);

  restored.save_sequential(app, 0, /*version=*/86'460, 1 * kMiB);
  fresh.save_sequential(app, 0, /*version=*/86'460, 1 * kMiB);
  lan.engine.run();
  const auto* after_restore = restored.store().latest_manifest(app, 0);
  const auto* without_restore = fresh.store().latest_manifest(app, 0);
  ASSERT_NE(after_restore, nullptr);
  ASSERT_NE(without_restore, nullptr);
  EXPECT_EQ(after_restore->version, 86'460);
  EXPECT_EQ(*after_restore, *without_restore);
}

// --- agent: one version of a sequential line in every store ---

constexpr Bytes kSeqImage = 1 * kMiB;

ImageModel seq_model(AppId app) {
  ImageModelParams params;
  params.image_bytes = kSeqImage;
  return ImageModel(app, 0, params);
}

TEST(CkptAgent, SequentialSavesKeepOneVersionInTheWritersStore) {
  // A sequential save trims its line in the writer's own store, as the
  // repository's and the peers' installs do: after any number of saves the
  // writer holds the newest version and no chunk beyond that one image's.
  AgentLan lan(1);
  CkptAgent& writer = lan.agent(0);
  const AppId app(33);
  for (std::int64_t save = 1; save <= 12; ++save) {
    writer.save_sequential(app, 0, /*version=*/60 * save, kSeqImage);
    lan.engine.run();
    const ChunkStore& store = writer.store();
    const protocol::CkptManifest* newest = store.latest_manifest(app, 0);
    ASSERT_NE(newest, nullptr);
    EXPECT_EQ(newest->version, 60 * save);
    EXPECT_EQ(store.manifest_count(), 1u) << "after save " << save;
    EXPECT_LE(store.chunk_count(), newest->chunks.size())
        << "after save " << save;
    EXPECT_EQ(lan.repo_store.manifest_count(), 1u) << "after save " << save;
  }
  EXPECT_EQ(writer.metrics().counter_value("saves_ok"), 12);
  auto image = writer.store().materialize(app, 0, 720);
  ASSERT_TRUE(image.is_ok());
  EXPECT_EQ(image.value(), seq_model(app).render(12));
}

TEST(CkptAgent, WritersTrimLeavesAnInFlightRestoreItsPinnedChunks) {
  // A restore pins the chunks of its manifest that are already resident. A
  // save of the same line landing mid-restore trims the version those
  // chunks belong to; the pinned ones stay, so the restore still installs
  // an intact image.
  AgentLan lan(2);
  CkptAgent& node = lan.agent(0);
  CkptAgent& peer = lan.agent(1);
  const AppId app(34);
  for (std::int64_t version : {10, 20}) {  // the node's content steps 1, 2
    node.save_sequential(app, 0, version, kSeqImage);
    lan.engine.run();
  }
  for (std::int64_t version : {30, 40, 1000}) {  // the peer's steps 1, 2, 3
    peer.save_sequential(app, 0, version, kSeqImage);
    lan.engine.run();
  }
  const protocol::CkptManifest target = *peer.store().latest_manifest(app, 0);
  std::vector<protocol::CkptHash> pinned;
  for (const auto& ref : target.chunks) {
    if (node.store().has(ref.hash)) pinned.push_back(ref.hash);
  }
  ASSERT_FALSE(pinned.empty());
  ASSERT_LT(pinned.size(), target.chunks.size());  // the rest must be pulled

  protocol::CkptRestoreRequest restore;
  restore.app = app;
  restore.rank = 0;
  restore.version = target.version;
  restore.manifest = target;
  restore.repository = lan.repo_ref;
  restore.peers = {peer.ref()};
  node.handle_restore(restore);
  // A restore resets the writer's image cache, so this save renders content
  // step 1 and trimming version 20 releases chunks the restore pinned.
  node.save_sequential(app, 0, 50, kSeqImage);
  EXPECT_EQ(node.store().manifest(app, 0, 20), nullptr);
  const protocol::CkptManifest* saved = node.store().manifest(app, 0, 50);
  ASSERT_NE(saved, nullptr);
  std::size_t released = 0;
  for (const auto& hash : pinned) {
    EXPECT_TRUE(node.store().has(hash));
    released += std::none_of(saved->chunks.begin(), saved->chunks.end(),
                             [&](const protocol::CkptChunkRef& ref) {
                               return ref.hash == hash;
                             });
  }
  ASSERT_GT(released, 0u);

  lan.engine.run();
  EXPECT_EQ(node.metrics().counter_value("restores_ok"), 1);
  auto image = node.store().materialize(app, 0, 1000);
  ASSERT_TRUE(image.is_ok());
  EXPECT_EQ(image.value(), seq_model(app).render(3));
}

TEST(CkptAgent, SaveThatReachesNoDestinationLeavesTheWriterItsNewestVersion) {
  // The writer trims at its own install, before any destination answers.
  // A save that every destination misses still leaves the writer its
  // newest version, and a restore on that node completes from the local
  // store alone.
  AgentLan lan(2);
  sim::FaultInjector faults(lan.engine, lan.network, Rng(43));
  CkptAgent& writer = lan.agent(0);
  CkptAgent& peer = lan.agent(1);
  const AppId app(35);
  writer.save_sequential(app, 0, 10, kSeqImage, {peer.ref()});
  lan.engine.run();
  ASSERT_NE(lan.repo_store.manifest(app, 0, 10), nullptr);

  faults.crash_endpoint(1);  // the repository
  faults.crash_endpoint(3);  // the peer
  writer.save_sequential(app, 0, 20, kSeqImage, {peer.ref()});
  lan.engine.run();
  EXPECT_EQ(writer.metrics().counter_value("save_failures"), 1);
  const protocol::CkptManifest* newest = writer.store().latest_manifest(app, 0);
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->version, 20);
  EXPECT_EQ(writer.store().manifest_count(), 1u);

  protocol::CkptRestoreRequest restore;
  restore.app = app;
  restore.rank = 0;
  restore.version = 20;
  restore.manifest = *newest;
  restore.repository = lan.repo_ref;
  restore.peers = {peer.ref()};
  writer.handle_restore(restore);
  lan.engine.run();
  EXPECT_EQ(writer.metrics().counter_value("restores_ok"), 1);
  auto image = writer.store().materialize(app, 0, 20);
  ASSERT_TRUE(image.is_ok());
  EXPECT_EQ(image.value(), seq_model(app).render(2));
}

TEST(CkptAgent, MigratedSequentialLineLeavesOneVersionOnEveryNode) {
  // A sequential task checkpoints on A, is preempted (its last save
  // replicates to B and C), restarts warm on B, is preempted again and
  // finishes on C. Every store, the nodes it left included, holds at most
  // one version of its line until the app's drop empties them all.
  AgentLan lan(3);
  CkptAgent& a = lan.agent(0);
  CkptAgent& b = lan.agent(1);
  CkptAgent& c = lan.agent(2);
  const AppId app(36);
  const auto expect_one_version = [&](const std::string& after) {
    for (std::size_t i = 0; i < 3; ++i) {
      const ChunkStore& store = lan.agent(i).store();
      EXPECT_LE(store.manifest_count(), 1u) << after << ", node " << i;
      if (const auto* held = store.latest_manifest(app, 0)) {
        EXPECT_LE(store.chunk_count(), held->chunks.size())
            << after << ", node " << i;
      }
    }
    EXPECT_LE(lan.repo_store.manifest_count(), 1u) << after;
  };
  std::int64_t version = 0;
  const auto run_on = [&](CkptAgent& host,
                          const std::vector<orb::ObjectRef>& successors) {
    for (int save = 0; save < 3; ++save) {
      host.save_sequential(app, 0, version += 60, kSeqImage);
      lan.engine.run();
      expect_one_version("save at " + std::to_string(version));
    }
    if (successors.empty()) return;
    host.save_sequential(app, 0, version += 60, kSeqImage, successors);
    lan.engine.run();
    expect_one_version("preemption at " + std::to_string(version));
  };

  run_on(a, {b.ref(), c.ref()});
  b.warm_restore(app, 0, {b.ref(), c.ref()});
  lan.engine.run();
  run_on(b, {a.ref(), c.ref()});
  c.warm_restore(app, 0, {a.ref(), c.ref()});
  lan.engine.run();
  run_on(c, {});
  EXPECT_NE(a.store().latest_manifest(app, 0), nullptr);
  EXPECT_NE(b.store().latest_manifest(app, 0), nullptr);

  for (std::size_t i = 0; i < 3; ++i) {
    lan.agent(i).handle_drop(protocol::CkptDrop{app});
    EXPECT_EQ(lan.agent(i).store().manifest_count(), 0u) << "node " << i;
    EXPECT_EQ(lan.agent(i).store().chunk_count(), 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace integrade::ckpt
