// Inter-ORB protocol messages (a GIOP subset).
//
// Every remote invocation in InteGrade crosses the wire as one of these
// frames: a fixed header carrying magic/version/byte-order/type/length,
// followed by a request or reply header, followed by the CDR-encoded
// operation arguments or results. The frame layout mirrors GIOP 1.0 closely
// enough that bench_orb's per-message byte counts are honest estimates of
// what the real LRM/GRM traffic costs (paper §5: UIC-CORBA on providers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdr/cdr.hpp"
#include "common/types.hpp"

namespace integrade::orb {

inline constexpr std::uint32_t kProtocolMagic = 0x49474F50;  // "IGOP"
inline constexpr std::uint8_t kProtocolVersion = 1;

enum class MessageType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
};

enum class ReplyStatus : std::uint8_t {
  kNoException = 0,
  kObjectNotExist = 1,
  kBadOperation = 2,
  kSystemException = 3,
};

struct RequestHeader {
  RequestId request_id;
  ObjectId object_key;
  std::string operation;
  bool response_expected = true;
  /// Tracing service-context slot (GIOP-style, see docs/observability.md):
  /// the trace this request belongs to and the span that caused it. Encoded
  /// only when trace_id != 0 — the response_expected flag byte grows a
  /// "has trace" bit, so untraced frames stay byte-identical to the
  /// pre-tracing wire format.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;

  [[nodiscard]] bool has_trace() const { return trace_id != 0; }
};

struct ReplyHeader {
  RequestId request_id;
  ReplyStatus status = ReplyStatus::kNoException;
  std::string exception_detail;  // empty unless status != kNoException
};

/// A fully framed message ready for the transport.
struct Frame {
  MessageType type = MessageType::kRequest;
  cdr::ByteOrder byte_order = cdr::native_byte_order();
  std::vector<std::uint8_t> header_and_body;  // encoded headers + payload
};

/// Serialize a request frame: protocol header + request header + payload.
std::vector<std::uint8_t> frame_request(const RequestHeader& header,
                                        const std::vector<std::uint8_t>& payload,
                                        cdr::ByteOrder order = cdr::native_byte_order());

std::vector<std::uint8_t> frame_reply(const ReplyHeader& header,
                                      const std::vector<std::uint8_t>& payload,
                                      cdr::ByteOrder order = cdr::native_byte_order());

struct ParsedFrame {
  MessageType type;
  cdr::ByteOrder byte_order;
  RequestHeader request;  // valid when type == kRequest
  ReplyHeader reply;      // valid when type == kReply
  std::vector<std::uint8_t> payload;
};

/// Parse a wire frame. Rejects bad magic, version, byte-order flag or
/// reserved byte, truncation, and body bytes after the payload.
Result<ParsedFrame> parse_frame(const std::vector<std::uint8_t>& bytes);

}  // namespace integrade::orb
