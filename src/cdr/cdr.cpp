#include "cdr/cdr.hpp"

#include <bit>
#include <type_traits>

namespace integrade::cdr {

void Writer::patch_u32(std::size_t offset, std::uint32_t v) {
  std::uint8_t bytes[4];
  std::memcpy(bytes, &v, 4);
  if (order_ != native_byte_order()) std::reverse(bytes, bytes + 4);
  std::memcpy(buf_.data() + offset, bytes, 4);
}

void Writer::write_string(const std::string& v) {
  write_u32(static_cast<std::uint32_t>(v.size() + 1));
  buf_.insert(buf_.end(), v.begin(), v.end());
  buf_.push_back(0);
}

void Writer::write_octets(const std::vector<std::uint8_t>& v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

Reader::Reader(const std::uint8_t* data, std::size_t size, ByteOrder order)
    : data_(data), size_(size), order_(order) {}

Reader::Reader(const std::vector<std::uint8_t>& data, ByteOrder order)
    : Reader(data.data(), data.size(), order) {}

bool Reader::ensure(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

namespace {

// True when the `pad` bytes before `end` are zero, as Writer pads. They end
// an aligned N-byte word that lies inside the buffer, so one load reads them.
template <std::size_t N>
bool padding_is_zero(const std::uint8_t* end, std::size_t pad) {
  static_assert(N == 2 || N == 4 || N == 8);
  using Word = std::conditional_t<
      N == 8, std::uint64_t,
      std::conditional_t<N == 4, std::uint32_t, std::uint16_t>>;
  Word word;
  std::memcpy(&word, end - N, N);
  // Shift out the N - pad bytes that precede the padding.
  const unsigned before = 8 * static_cast<unsigned>(N - pad);
  return static_cast<Word>(std::endian::native == std::endian::little
                               ? word >> before
                               : word << before) == 0;
}

}  // namespace

template <class T>
T Reader::read_scalar() {
  const std::size_t pad = (sizeof(T) - pos_ % sizeof(T)) % sizeof(T);
  if (!ensure(pad + sizeof(T))) return T{};
  if (pad != 0) {
    if (!padding_is_zero<sizeof(T)>(data_ + pos_ + pad, pad)) {
      ok_ = false;
      return T{};
    }
    pos_ += pad;
  }
  std::uint8_t bytes[sizeof(T)];
  const bool swap = order_ != native_byte_order();
  if (swap) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = data_[pos_ + sizeof(T) - 1 - i];
    }
  } else {
    std::memcpy(bytes, data_ + pos_, sizeof(T));
  }
  pos_ += sizeof(T);
  T v;
  std::memcpy(&v, bytes, sizeof(T));
  return v;
}

bool Reader::read_bool() {
  if (!ensure(1)) return false;
  const std::uint8_t b = data_[pos_++];
  if (b > 1) ok_ = false;  // Writer emits 0 or 1 only
  return b == 1;
}

std::uint8_t Reader::read_u8() {
  if (!ensure(1)) return 0;
  return data_[pos_++];
}

std::int16_t Reader::read_i16() { return read_scalar<std::int16_t>(); }
std::uint16_t Reader::read_u16() { return read_scalar<std::uint16_t>(); }
std::int32_t Reader::read_i32() { return read_scalar<std::int32_t>(); }
std::uint32_t Reader::read_u32() { return read_scalar<std::uint32_t>(); }
std::int64_t Reader::read_i64() { return read_scalar<std::int64_t>(); }
std::uint64_t Reader::read_u64() { return read_scalar<std::uint64_t>(); }
float Reader::read_f32() { return read_scalar<float>(); }
double Reader::read_f64() { return read_scalar<double>(); }

std::string Reader::read_string() {
  std::string s;
  read_string_into(s);
  return s;
}

void Reader::read_string_into(std::string& out) { out.assign(read_string_view()); }

std::string_view Reader::read_string_view() {
  const std::uint32_t len = read_u32();
  if (len == 0 || !ensure(len)) {
    ok_ = false;
    return {};
  }
  // len includes the trailing NUL.
  const std::string_view v(reinterpret_cast<const char*>(data_ + pos_), len - 1);
  if (data_[pos_ + len - 1] != 0) ok_ = false;  // malformed: missing NUL
  pos_ += len;
  return v;
}

std::vector<std::uint8_t> Reader::read_octets() {
  const std::span<const std::uint8_t> v = read_octets_view();
  return {v.begin(), v.end()};
}

std::span<const std::uint8_t> Reader::read_octets_view() {
  const std::uint32_t len = read_u32();
  if (!ensure(len)) return {};
  const std::span<const std::uint8_t> v(data_ + pos_, len);
  pos_ += len;
  return v;
}

}  // namespace integrade::cdr
