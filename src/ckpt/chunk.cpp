#include "ckpt/chunk.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace integrade::ckpt {
namespace {

// splitmix64: the deterministic mixer used for both the Gear table and the
// image model's dirty-run placement. Chosen for portability — plain integer
// ops, identical on every platform.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return mix64(a * 0x2545f4914f6cdd1dull + b);
}

// Gear table: one 64-bit constant per byte value, generated once.
struct GearTable {
  std::uint64_t t[256];
  GearTable() {
    for (int i = 0; i < 256; ++i) {
      t[i] = mix64(0x6765617274616264ull, static_cast<std::uint64_t>(i));
    }
  }
};
const GearTable kGear;

std::uint32_t round_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

}  // namespace

std::vector<ChunkSpan> chunk_spans(const std::uint8_t* data, std::size_t size,
                                   const ChunkParams& params) {
  std::vector<ChunkSpan> spans;
  if (size == 0) return spans;

  if (params.chunker == Chunker::kFixed) {
    const std::size_t cs = std::max<std::uint32_t>(1, params.chunk_size);
    spans.reserve((size + cs - 1) / cs);
    for (std::size_t off = 0; off < size; off += cs) {
      spans.push_back({off, static_cast<std::uint32_t>(std::min(cs, size - off))});
    }
    return spans;
  }

  // Content-defined: Gear rolling hash, boundary when the hash's low bits are
  // all zero. min/max bound the chunk sizes; the final chunk is whatever is
  // left.
  const std::uint64_t mask = round_pow2(std::max<std::uint32_t>(2, params.chunk_size)) - 1;
  const std::size_t min_sz = std::max<std::uint32_t>(1, params.cdc_min);
  const std::size_t max_sz = std::max<std::uint32_t>(params.cdc_min + 1, params.cdc_max);
  std::size_t start = 0;
  std::uint64_t h = 0;
  std::size_t len = 0;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h << 1) + kGear.t[data[i]];
    ++len;
    if ((len >= min_sz && (h & mask) == 0) || len >= max_sz) {
      spans.push_back({start, static_cast<std::uint32_t>(len)});
      start = i + 1;
      h = 0;
      len = 0;
    }
  }
  if (len > 0) spans.push_back({start, static_cast<std::uint32_t>(len)});
  return spans;
}

// ---------------------------------------------------------------------------
// ImageModel
// ---------------------------------------------------------------------------

ImageModel::ImageModel(AppId app, std::int32_t rank, ImageModelParams params)
    : app_(app), rank_(rank), params_(params) {
  image_bytes_ = params_.image_bytes < 0
                     ? 0
                     : static_cast<std::size_t>(params_.image_bytes);
  const std::size_t ps = std::max<std::uint32_t>(1, params_.page_size);
  pages_ = (image_bytes_ + ps - 1) / ps;
}

std::size_t ImageModel::runs_per_superstep() const {
  if (pages_ == 0 || params_.dirty_permille == 0) return 0;
  const std::size_t dirty_pages =
      (pages_ * params_.dirty_permille + 999) / 1000;
  const std::size_t run = std::max<std::uint32_t>(1, params_.dirty_run_pages);
  return std::max<std::size_t>(1, (dirty_pages + run - 1) / run);
}

std::size_t ImageModel::run_start(std::int64_t superstep,
                                  std::size_t run) const {
  const std::uint64_t h =
      mix64(mix64(app_.value, static_cast<std::uint64_t>(rank_)),
            mix64(static_cast<std::uint64_t>(superstep),
                  static_cast<std::uint64_t>(run)));
  return static_cast<std::size_t>(h % pages_);
}

std::uint64_t ImageModel::page_version(std::size_t page,
                                       std::int64_t superstep) const {
  if (page >= pages_) return 0;
  const std::size_t runs = runs_per_superstep();
  const std::size_t run_len = std::max<std::uint32_t>(1, params_.dirty_run_pages);
  std::uint64_t version = 0;
  for (std::int64_t t = 1; t <= superstep; ++t) {
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t start = run_start(t, r);
      if (page >= start && page < start + run_len) ++version;
    }
  }
  return version;
}

std::vector<std::size_t> ImageModel::dirty_pages(std::int64_t superstep) const {
  std::vector<std::size_t> pages;
  if (superstep <= 0 || pages_ == 0) return pages;
  const std::size_t runs = runs_per_superstep();
  const std::size_t run_len = std::max<std::uint32_t>(1, params_.dirty_run_pages);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t start = run_start(superstep, r);
    const std::size_t end = std::min(start + run_len, pages_);
    for (std::size_t p = start; p < end; ++p) pages.push_back(p);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return pages;
}

void ImageModel::render_page(std::size_t page, std::uint64_t version,
                             std::vector<std::uint8_t>& out) const {
  const std::size_t ps = std::max<std::uint32_t>(1, params_.page_size);
  const std::size_t offset = page * ps;
  const std::size_t size =
      offset >= image_bytes_ ? 0 : std::min(ps, image_bytes_ - offset);
  out.resize(size);
  // 32-byte blocks: 8 mixed bytes then 24 copies of a per-block fill byte.
  // The repetition makes pages ~2x LZ-compressible, like the zeroed/sparse
  // regions of a real process image.
  const std::uint64_t base =
      mix64(mix64(app_.value, static_cast<std::uint64_t>(rank_)),
            mix64(static_cast<std::uint64_t>(page), version));
  // Each block is stored whole: its mixed bytes are h's bytes, least
  // significant first, in one 8-byte store, and the fill is one memset.
  std::uint8_t* const bytes = out.data();
  for (std::size_t block = 0; block * 32 < size; ++block) {
    const std::uint64_t h = mix64(base, block);
    std::uint8_t* const dst = bytes + block * 32;
    const std::size_t len = std::min<std::size_t>(32, size - block * 32);
    if (len >= 8) {
      const std::uint64_t mixed =
          std::endian::native == std::endian::big ? __builtin_bswap64(h) : h;
      std::memcpy(dst, &mixed, 8);
      std::memset(dst + 8, static_cast<std::uint8_t>(h >> 56), len - 8);
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        dst[i] = static_cast<std::uint8_t>(h >> (8 * i));
      }
    }
  }
}

std::vector<std::uint8_t> ImageModel::render(std::int64_t superstep) const {
  // Advance page versions incrementally instead of calling page_version per
  // page (which is O(superstep) each).
  std::vector<std::uint64_t> versions(pages_, 0);
  for (std::int64_t t = 1; t <= superstep; ++t) {
    for (std::size_t p : dirty_pages(t)) ++versions[p];
  }
  std::vector<std::uint8_t> image(image_bytes_);
  std::vector<std::uint8_t> page;
  const std::size_t ps = std::max<std::uint32_t>(1, params_.page_size);
  for (std::size_t p = 0; p < pages_; ++p) {
    render_page(p, versions[p], page);
    std::copy(page.begin(), page.end(), image.begin() + static_cast<std::ptrdiff_t>(p * ps));
  }
  return image;
}

}  // namespace integrade::ckpt
