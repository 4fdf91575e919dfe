#include "orb/message.hpp"

namespace integrade::orb {
namespace {

// Fixed 12-byte protocol header, after which the chosen byte order applies:
//   u32 magic | u8 version | u8 byte_order | u8 msg_type | u8 reserved |
//   u32 body_length
// The magic and length are always big-endian so any receiver can frame.
void put_u32_be(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v));
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

RequestHeader decode_request_header(cdr::Reader& r) {
  RequestHeader h;
  h.request_id = r.read_id<RequestTag>();
  h.object_key = r.read_id<ObjectTag>();
  h.operation = r.read_string();
  const std::uint8_t flags = r.read_u8();
  h.response_expected = (flags & kFlagResponseExpected) != 0;
  if ((flags & kFlagHasTrace) != 0) {
    h.trace_id = r.read_u64();
    h.trace_parent = r.read_u64();
  }
  return h;
}

void encode_reply_header(cdr::Writer& w, const ReplyHeader& h) {
  w.write_id(h.request_id);
  w.write_u8(static_cast<std::uint8_t>(h.status));
  w.write_string(h.exception_detail);
}

ReplyHeader decode_reply_header(cdr::Reader& r) {
  ReplyHeader h;
  h.request_id = r.read_id<RequestTag>();
  h.status = static_cast<ReplyStatus>(r.read_u8());
  h.exception_detail = r.read_string();
  return h;
}

std::vector<std::uint8_t> frame(MessageType type, cdr::ByteOrder order,
                                const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  out.reserve(12 + body.size());
  put_u32_be(out, kProtocolMagic);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(order));
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);  // reserved
  put_u32_be(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

std::vector<std::uint8_t> frame_request(const RequestHeader& header,
                                        const std::vector<std::uint8_t>& payload,
                                        cdr::ByteOrder order) {
  cdr::Writer w(order);
  encode_request_header(w, header);
  w.write_octets(payload);
  return frame(MessageType::kRequest, order, w.buffer());
}

std::vector<std::uint8_t> frame_reply(const ReplyHeader& header,
                                      const std::vector<std::uint8_t>& payload,
                                      cdr::ByteOrder order) {
  cdr::Writer w(order);
  encode_reply_header(w, header);
  w.write_octets(payload);
  return frame(MessageType::kReply, order, w.buffer());
}

Result<ParsedFrame> parse_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 12) {
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
  ParsedFrame out;
  out.byte_order = static_cast<cdr::ByteOrder>(bytes[5]);
  out.type = static_cast<MessageType>(bytes[6]);
  const std::uint32_t body_len = get_u32_be(bytes.data() + 8);
  if (bytes.size() != 12u + body_len) {
    return Status(ErrorCode::kInternal, "frame length mismatch");
  }
  cdr::Reader r(bytes.data() + 12, body_len, out.byte_order);
  switch (out.type) {
    case MessageType::kRequest:
      out.request = decode_request_header(r);
      break;
    case MessageType::kReply:
      out.reply = decode_reply_header(r);
      break;
    default:
      return Status(ErrorCode::kInternal, "unknown message type");
  }
  out.payload = r.read_octets();
  if (!r.exhausted()) return Status(ErrorCode::kInternal, "malformed message body");
  return out;
}

}  // namespace integrade::orb
