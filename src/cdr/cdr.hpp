// CORBA Common Data Representation (CDR) marshaling.
//
// InteGrade exports all of its services as CORBA interfaces (paper §1); the
// LRM runs on a tiny ORB (UIC-CORBA) precisely so that resource-provider
// machines pay almost nothing for grid membership. This module implements
// the CDR encoding those ORBs speak: primitive types aligned to their
// natural boundary, strings as length-prefixed NUL-terminated octets,
// sequences as length-prefixed element runs, and a byte-order flag so a
// little-endian sender never forces a same-endian receiver to swap
// ("receiver makes it right").
//
// The encoding here is faithful enough that bench_orb's bytes-per-message
// numbers are meaningful proxies for the real protocol cost.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace integrade::cdr {

enum class ByteOrder : std::uint8_t { kBigEndian = 0, kLittleEndian = 1 };

/// Native byte order of this process.
constexpr ByteOrder native_byte_order() {
  return std::endian::native == std::endian::little ? ByteOrder::kLittleEndian
                                                    : ByteOrder::kBigEndian;
}

class Writer {
 public:
  /// Bytes a fresh writer reserves: enough for most control messages.
  static constexpr std::size_t kDefaultReserve = 64;

  explicit Writer(ByteOrder order = native_byte_order(),
                  std::size_t reserve = kDefaultReserve)
      : order_(order) {
    buf_.reserve(reserve);
  }

  void write_bool(bool v) { buf_.push_back(v ? 1 : 0); }
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_i16(std::int16_t v) { write_scalar(v); }
  void write_u16(std::uint16_t v) { write_scalar(v); }
  void write_i32(std::int32_t v) { write_scalar(v); }
  void write_u32(std::uint32_t v) { write_scalar(v); }
  void write_i64(std::int64_t v) { write_scalar(v); }
  void write_u64(std::uint64_t v) { write_scalar(v); }
  void write_f32(float v) { write_scalar(v); }
  void write_f64(double v) { write_scalar(v); }
  /// CORBA string: u32 length including terminating NUL, then bytes, then NUL.
  void write_string(const std::string& v);
  /// Raw octet sequence: u32 length then bytes (no NUL).
  void write_octets(const std::vector<std::uint8_t>& v);

  template <class Tag>
  void write_id(Id<Tag> id) {
    write_u64(id.value);
  }

  /// Bytes as they are, with no length and no alignment.
  void write_raw(const std::uint8_t* data, std::size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  /// Pad so the next value of size `alignment` lands on its natural boundary,
  /// counted from the alignment origin.
  void align(std::size_t alignment) {
    const std::size_t rem = (buf_.size() - origin_) % alignment;
    if (rem != 0) buf_.resize(buf_.size() + alignment - rem);
  }

  /// Make the current end of the buffer the alignment origin: later values
  /// pad as if a fresh Writer started here, which is how a Reader over just
  /// the bytes that follow will read them.
  void align_from_here() { origin_ = buf_.size(); }

  /// Overwrite the u32 written earlier at `offset`, in this writer's byte
  /// order (a length known only once what it counts is written).
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take_buffer() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] ByteOrder byte_order() const { return order_; }

 private:
  template <class T>
  void write_scalar(T v) {
    align(sizeof(T));
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    if (order_ != native_byte_order()) std::reverse(bytes, bytes + sizeof(T));
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
  std::size_t origin_ = 0;  // alignment counts from here
  ByteOrder order_;
};

/// Reader mirrors Writer. Errors latch a failure flag; after a failure every
/// read returns a zero value. Callers check ok() once after decoding a whole
/// message, which keeps decode functions linear. Besides truncation, the
/// reader rejects bytes Writer never produces (a bool other than 0 or 1,
/// non-zero alignment padding), so whatever it accepts re-encodes to the
/// same bytes.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size,
         ByteOrder order = native_byte_order());
  explicit Reader(const std::vector<std::uint8_t>& data,
                  ByteOrder order = native_byte_order());

  bool read_bool();
  std::uint8_t read_u8();
  std::int16_t read_i16();
  std::uint16_t read_u16();
  std::int32_t read_i32();
  std::uint32_t read_u32();
  std::int64_t read_i64();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();
  /// Same, into an existing string (no temporary to move from).
  void read_string_into(std::string& out);
  /// Same, as a view of the buffer: valid while the buffer lives.
  std::string_view read_string_view();
  std::vector<std::uint8_t> read_octets();
  /// Same, as a view of the buffer: valid while the buffer lives.
  std::span<const std::uint8_t> read_octets_view();

  template <class Tag>
  Id<Tag> read_id() {
    return Id<Tag>(read_u64());
  }

  /// Latch a failure for a value that decoded but is not canonical.
  void fail() { ok_ = false; }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// The bytes not read yet.
  [[nodiscard]] std::span<const std::uint8_t> unread() const {
    return {data_ + pos_, size_ - pos_};
  }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  template <class T>
  T read_scalar();
  bool ensure(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  ByteOrder order_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Codec<T>: how a type crosses the wire. A struct gets its codec from its
// field list; scalars, strings, ids, enums, sequences and fixed-size arrays
// have the codecs after it. Only tagged unions (cdr::Value,
// services::PropertySet) still specialize Codec by hand.
// ---------------------------------------------------------------------------

/// A struct's wire layout: its fields in wire order (`base`), then an
/// optional trailing extension (`tail`). Entries are pointers to data
/// members, or BaseOf/TailOf entries for a nested struct.
///
/// The tail rule, for every struct that has one: the tail is written only
/// when one of its fields differs from its value-initialized default, and
/// read only when bytes remain after the base. A struct with a tail must
/// therefore end its message; nest it elsewhere through BaseOf/TailOf.
template <class Base, class Tail = std::tuple<>>
struct FieldList {
  Base base;
  Tail tail;

  template <class... F>
  constexpr FieldList<Base, std::tuple<F...>> with_tail(F... f) const {
    return {base, std::tuple<F...>(f...)};
  }
};

template <class... F>
constexpr FieldList<std::tuple<F...>> fields(F... f) {
  return {std::tuple<F...>(f...), {}};
}

/// `BaseOf{&S::m}`: the nested struct m without its tail.
template <class M>
struct BaseOf {
  M member;
};

/// `TailOf{&S::m}`: the nested struct m's tail, as one entry of the
/// enclosing struct's own tail. In a base list it is an ordinary entry,
/// written and read unconditionally: `BaseOf{&S::m}, TailOf{&S::m}` lays
/// out all of m in a context that never ends the message (snapshot
/// records).
template <class M>
struct TailOf {
  M member;
};

/// A struct declares its layout once, next to the struct and in its
/// namespace, by an overload found through argument-dependent lookup:
///
///   constexpr auto wire_fields(const TaskReport*) {
///     using S = TaskReport;
///     return cdr::fields(&S::task, &S::node, &S::outcome, &S::work_done,
///                        &S::detail);
///   }
template <class T>
concept HasFieldList = requires(const T* p) { wire_fields(p); };

template <class T>
struct Codec;

namespace detail {

template <class T>
constexpr auto field_list() {
  return wire_fields(static_cast<const T*>(nullptr));
}

/// T's base entries, or its tail entries, as a compile-time constant: every
/// field access below compiles to a fixed offset. The folds over them take
/// the Writer/Reader and the struct as parameters, not captures, so those
/// stay in registers when a long list is not inlined.
template <class T, bool kTail>
inline constexpr auto kEntries = [] {
  if constexpr (kTail) {
    return field_list<T>().tail;
  } else {
    return field_list<T>().base;
  }
}();

template <class T, bool kTail>
using EntryIndices =
    std::make_index_sequence<std::tuple_size_v<decltype(kEntries<T, kTail>)>>;

template <bool kTail, class S>
void put_all(Writer& w, const S& v);
template <bool kTail, class S>
void get_all(Reader& r, S& v);
template <class S>
void get_struct(Reader& r, S& v);
template <class S>
bool tail_set(const S& v);

template <class S, class M>
void put_field(Writer& w, const S& v, M S::*f) {
  Codec<M>::encode(w, v.*f);
}
template <class S, class M>
void put_field(Writer& w, const S& v, BaseOf<M> f) {
  put_all<false>(w, v.*(f.member));
}
template <class S, class M>
void put_field(Writer& w, const S& v, TailOf<M> f) {
  put_all<true>(w, v.*(f.member));
}

// Nested structs and strings decode in place: a fresh struct's field is
// filled directly instead of being move-assigned from a temporary.
template <class S, class M>
void get_field(Reader& r, S& v, M S::*f) {
  if constexpr (HasFieldList<M>) {
    get_struct(r, v.*f);
  } else if constexpr (std::is_same_v<M, std::string>) {
    r.read_string_into(v.*f);
  } else {
    v.*f = Codec<M>::decode(r);
  }
}
template <class S, class M>
void get_field(Reader& r, S& v, BaseOf<M> f) {
  get_all<false>(r, v.*(f.member));
}
template <class S, class M>
void get_field(Reader& r, S& v, TailOf<M> f) {
  get_all<true>(r, v.*(f.member));
}

template <class S, class M>
bool is_set(const S& v, M S::*f) {
  return !(v.*f == M{});
}
template <class S, class M>
bool is_set(const S& v, TailOf<M> f) {
  return tail_set(v.*(f.member));
}

template <bool kTail, class S, std::size_t... I>
void put_each(Writer& w, const S& v, std::index_sequence<I...>) {
  (put_field(w, v, std::get<I>(kEntries<S, kTail>)), ...);
}
template <bool kTail, class S>
void put_all(Writer& w, const S& v) {
  put_each<kTail>(w, v, EntryIndices<S, kTail>{});
}

template <bool kTail, class S, std::size_t... I>
void get_each(Reader& r, S& v, std::index_sequence<I...>) {
  (get_field(r, v, std::get<I>(kEntries<S, kTail>)), ...);
}
template <bool kTail, class S>
void get_all(Reader& r, S& v) {
  get_each<kTail>(r, v, EntryIndices<S, kTail>{});
}

template <class S, std::size_t... I>
bool any_set(const S& v, std::index_sequence<I...>) {
  return (is_set(v, std::get<I>(kEntries<S, true>)) || ...);
}
/// True when some tail field differs from its value-initialized default.
template <class S>
bool tail_set(const S& v) {
  return any_set(v, EntryIndices<S, true>{});
}

/// Decode a whole struct, tail included, into a default-constructed v.
template <class S>
void get_struct(Reader& r, S& v) {
  get_all<false>(r, v);
  if constexpr (EntryIndices<S, true>::size() != 0) {
    if (r.ok() && r.remaining() > 0) {
      get_all<true>(r, v);
      // An all-default tail is never written, so it is not canonical.
      if (!tail_set(v)) r.fail();
    }
  }
}

}  // namespace detail

/// The codec of every struct with a field list. encode and decode walk the
/// same list, so they are mirrors by construction.
template <class T>
struct Codec {
  static_assert(HasFieldList<T>,
                "no Codec for T: declare wire_fields(const T*) next to T");

  static void encode(Writer& w, const T& v) {
    detail::put_all<false>(w, v);
    if (detail::tail_set(v)) detail::put_all<true>(w, v);
  }
  static T decode(Reader& r) {
    T v;
    detail::get_struct(r, v);
    return v;
  }
};

/// Codec of a type that maps onto one Writer/Reader member pair.
template <auto Put, auto Get>
struct PrimitiveCodec {
  static void encode(Writer& w, const auto& v) { (w.*Put)(v); }
  static auto decode(Reader& r) { return (r.*Get)(); }
};

// clang-format off
template <> struct Codec<bool> : PrimitiveCodec<&Writer::write_bool, &Reader::read_bool> {};
template <> struct Codec<std::uint8_t> : PrimitiveCodec<&Writer::write_u8, &Reader::read_u8> {};
template <> struct Codec<std::int16_t> : PrimitiveCodec<&Writer::write_i16, &Reader::read_i16> {};
template <> struct Codec<std::uint16_t> : PrimitiveCodec<&Writer::write_u16, &Reader::read_u16> {};
template <> struct Codec<std::int32_t> : PrimitiveCodec<&Writer::write_i32, &Reader::read_i32> {};
template <> struct Codec<std::uint32_t> : PrimitiveCodec<&Writer::write_u32, &Reader::read_u32> {};
template <> struct Codec<std::int64_t> : PrimitiveCodec<&Writer::write_i64, &Reader::read_i64> {};
template <> struct Codec<std::uint64_t> : PrimitiveCodec<&Writer::write_u64, &Reader::read_u64> {};
template <> struct Codec<float> : PrimitiveCodec<&Writer::write_f32, &Reader::read_f32> {};
template <> struct Codec<double> : PrimitiveCodec<&Writer::write_f64, &Reader::read_f64> {};
template <> struct Codec<std::string> : PrimitiveCodec<&Writer::write_string, &Reader::read_string> {};
// clang-format on

/// Ids travel as their u64 value.
template <class Tag>
struct Codec<Id<Tag>> {
  static void encode(Writer& w, Id<Tag> v) { w.write_id(v); }
  static Id<Tag> decode(Reader& r) { return r.read_id<Tag>(); }
};

/// Enums travel as their declared underlying type.
template <class T>
  requires std::is_enum_v<T>
struct Codec<T> {
  using U = std::underlying_type_t<T>;
  static void encode(Writer& w, T v) { Codec<U>::encode(w, static_cast<U>(v)); }
  static T decode(Reader& r) { return static_cast<T>(Codec<U>::decode(r)); }
};

/// Encode a sequence as u32 count + elements.
template <class T>
void encode_sequence(Writer& w, const std::vector<T>& items) {
  w.write_u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) Codec<T>::encode(w, item);
}

template <class T>
std::vector<T> decode_sequence(Reader& r) {
  const std::uint32_t n = r.read_u32();
  std::vector<T> items;
  // Guard against hostile/corrupt lengths: never reserve more elements than
  // bytes remaining (each element costs at least one byte on the wire).
  if (n > r.remaining() && n > 0) {
    // Still attempt to decode; the reader will latch an error on underrun.
    items.reserve(r.remaining());
  } else {
    items.reserve(n);
  }
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    items.push_back(Codec<T>::decode(r));
  }
  return items;
}

/// Byte payloads take the bulk octet path; every other element type goes
/// through the one guarded sequence loop. Both encode as u32 count +
/// elements.
template <class T>
struct Codec<std::vector<T>> {
  static void encode(Writer& w, const std::vector<T>& v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      w.write_octets(v);
    } else {
      encode_sequence(w, v);
    }
  }
  static std::vector<T> decode(Reader& r) {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      return r.read_octets();
    } else {
      return decode_sequence<T>(r);
    }
  }
};

/// Fixed-size arrays (a SHA-256 digest, an RNG state): the elements only.
template <class T, std::size_t N>
struct Codec<std::array<T, N>> {
  static void encode(Writer& w, const std::array<T, N>& v) {
    for (const T& item : v) Codec<T>::encode(w, item);
  }
  static std::array<T, N> decode(Reader& r) {
    std::array<T, N> v{};
    for (T& item : v) item = Codec<T>::decode(r);
    return v;
  }
};

/// Empty request/ack payload for operations that need no arguments.
struct Empty {
  bool operator==(const Empty&) const = default;
};
constexpr auto wire_fields(const Empty*) { return fields(); }

template <class T>
std::vector<std::uint8_t> encode_message(const T& value,
                                         ByteOrder order = native_byte_order()) {
  Writer w(order);
  Codec<T>::encode(w, value);
  return w.take_buffer();
}

/// Accepts exactly one canonical encoding of a T: the decode must succeed
/// and consume every byte.
template <class T>
Result<T> decode_message(const std::vector<std::uint8_t>& bytes,
                         ByteOrder order = native_byte_order()) {
  Reader r(bytes, order);
  T value = Codec<T>::decode(r);
  if (!r.exhausted()) return Status(ErrorCode::kInternal, "malformed CDR message");
  return value;
}

}  // namespace integrade::cdr
