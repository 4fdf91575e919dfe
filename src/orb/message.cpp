#include "orb/message.hpp"

namespace integrade::orb {
namespace {

constexpr std::size_t kPreambleBytes = 12;

void put_u32_be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t get_u32_be(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// Request flag byte. Bit 0 doubles as the legacy response_expected bool
// (cdr::Writer::write_bool emits 0x00/0x01), so a request without a trace
// context encodes exactly as it did before the tracing slot existed.
constexpr std::uint8_t kFlagResponseExpected = 0x01;
constexpr std::uint8_t kFlagHasTrace = 0x02;

void encode_request_header(cdr::Writer& w, const RequestHeader& h) {
  w.write_id(h.request_id);
  w.write_id(h.object_key);
  w.write_string(h.operation);
  std::uint8_t flags = h.response_expected ? kFlagResponseExpected : 0;
  if (h.has_trace()) flags |= kFlagHasTrace;
  w.write_u8(flags);
  if (h.has_trace()) {
    w.write_u64(h.trace_id);
    w.write_u64(h.trace_parent);
  }
}

void decode_request_header(cdr::Reader& r, FrameView& f) {
  f.request_id = r.read_id<RequestTag>();
  f.object_key = r.read_id<ObjectTag>();
  f.operation = r.read_string_view();
  const std::uint8_t flags = r.read_u8();
  f.response_expected = (flags & kFlagResponseExpected) != 0;
  if ((flags & kFlagHasTrace) != 0) {
    f.trace_id = r.read_u64();
    f.trace_parent = r.read_u64();
  }
}

void encode_reply_header(cdr::Writer& w, const ReplyHeader& h) {
  w.write_id(h.request_id);
  w.write_u8(static_cast<std::uint8_t>(h.status));
  w.write_string(h.exception_detail);
}

void decode_reply_header(cdr::Reader& r, FrameView& f) {
  f.request_id = r.read_id<RequestTag>();
  f.status = static_cast<ReplyStatus>(r.read_u8());
  f.exception_detail = r.read_string_view();
}

}  // namespace

// Fixed 12-byte protocol header (the preamble), after which the chosen byte
// order applies:
//   u32 magic | u8 version | u8 byte_order | u8 msg_type | u8 reserved |
//   u32 body_length
// The magic and length are always big-endian so any receiver can frame.
FrameWriter::FrameWriter(MessageType type, cdr::ByteOrder order)
    : w_(order, kReserve) {
  std::uint8_t preamble[kPreambleBytes] = {};
  put_u32_be(preamble, kProtocolMagic);
  preamble[4] = kProtocolVersion;
  preamble[5] = static_cast<std::uint8_t>(order);
  preamble[6] = static_cast<std::uint8_t>(type);
  // preamble[7] is reserved; the body length is patched by finish().
  w_.write_raw(preamble, kPreambleBytes);
  // The body is read by a Reader of its own: it aligns from its start.
  w_.align_from_here();
}

FrameWriter::FrameWriter(const RequestHeader& header, cdr::ByteOrder order)
    : FrameWriter(MessageType::kRequest, order) {
  encode_request_header(w_, header);
  begin_payload();
}

FrameWriter::FrameWriter(const ReplyHeader& header, cdr::ByteOrder order)
    : FrameWriter(MessageType::kReply, order) {
  encode_reply_header(w_, header);
  begin_payload();
}

void FrameWriter::begin_payload() {
  // The payload is an octet sequence: a u32 length, then the bytes, which
  // the receiver decodes with a Reader of their own.
  w_.write_u32(0);
  length_at_ = w_.size() - 4;
  w_.align_from_here();
}

std::vector<std::uint8_t> FrameWriter::finish() && {
  w_.patch_u32(length_at_,
               static_cast<std::uint32_t>(w_.size() - length_at_ - 4));
  std::vector<std::uint8_t> out = w_.take_buffer();
  put_u32_be(out.data() + 8,
             static_cast<std::uint32_t>(out.size() - kPreambleBytes));
  return out;
}

std::vector<std::uint8_t> frame_request(const RequestHeader& header,
                                        const std::vector<std::uint8_t>& payload,
                                        cdr::ByteOrder order) {
  FrameWriter frame(header, order);
  frame.payload().write_raw(payload.data(), payload.size());
  return std::move(frame).finish();
}

std::vector<std::uint8_t> frame_reply(const ReplyHeader& header,
                                      const std::vector<std::uint8_t>& payload,
                                      cdr::ByteOrder order) {
  FrameWriter frame(header, order);
  frame.payload().write_raw(payload.data(), payload.size());
  return std::move(frame).finish();
}

Result<FrameView> view_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kPreambleBytes) {
    return Status(ErrorCode::kInternal, "frame shorter than protocol header");
  }
  if (get_u32_be(bytes.data()) != kProtocolMagic) {
    return Status(ErrorCode::kInternal, "bad protocol magic");
  }
  if (bytes[4] != kProtocolVersion) {
    return Status(ErrorCode::kInternal, "unsupported protocol version");
  }
  if (bytes[5] > static_cast<std::uint8_t>(cdr::ByteOrder::kLittleEndian)) {
    return Status(ErrorCode::kInternal, "bad byte-order flag");
  }
  if (bytes[7] != 0) {
    return Status(ErrorCode::kInternal, "non-zero reserved header byte");
  }
  FrameView out;
  out.byte_order = static_cast<cdr::ByteOrder>(bytes[5]);
  out.type = static_cast<MessageType>(bytes[6]);
  const std::uint32_t body_len = get_u32_be(bytes.data() + 8);
  if (bytes.size() != kPreambleBytes + body_len) {
    return Status(ErrorCode::kInternal, "frame length mismatch");
  }
  cdr::Reader r(bytes.data() + kPreambleBytes, body_len, out.byte_order);
  switch (out.type) {
    case MessageType::kRequest:
      decode_request_header(r, out);
      break;
    case MessageType::kReply:
      decode_reply_header(r, out);
      break;
    default:
      return Status(ErrorCode::kInternal, "unknown message type");
  }
  out.payload = r.read_octets_view();
  if (!r.exhausted()) return Status(ErrorCode::kInternal, "malformed message body");
  return out;
}

Result<ParsedFrame> parse_frame(const std::vector<std::uint8_t>& bytes) {
  auto view = view_frame(bytes);
  if (!view.is_ok()) return view.status();
  const FrameView& f = view.value();
  ParsedFrame out;
  out.type = f.type;
  out.byte_order = f.byte_order;
  if (f.type == MessageType::kRequest) {
    out.request.request_id = f.request_id;
    out.request.object_key = f.object_key;
    out.request.operation = f.operation;
    out.request.response_expected = f.response_expected;
    out.request.trace_id = f.trace_id;
    out.request.trace_parent = f.trace_parent;
  } else {
    out.reply.request_id = f.request_id;
    out.reply.status = f.status;
    out.reply.exception_detail = f.exception_detail;
  }
  out.payload.assign(f.payload.begin(), f.payload.end());
  return out;
}

}  // namespace integrade::orb
