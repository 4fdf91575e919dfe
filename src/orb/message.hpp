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
#include <span>
#include <string>
#include <string_view>
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

/// Writes one frame into one buffer: the preamble and the header first,
/// then the payload, which the caller writes through payload() and which
/// aligns from its own start, as encode_message would write it alone.
/// finish() patches the payload's length and the preamble's body length.
class FrameWriter {
 public:
  /// Bytes reserved up front: a heartbeat's frame fits.
  static constexpr std::size_t kReserve = 256;

  explicit FrameWriter(const RequestHeader& header,
                       cdr::ByteOrder order = cdr::native_byte_order());
  explicit FrameWriter(const ReplyHeader& header,
                       cdr::ByteOrder order = cdr::native_byte_order());

  [[nodiscard]] cdr::Writer& payload() { return w_; }
  [[nodiscard]] std::vector<std::uint8_t> finish() &&;

 private:
  FrameWriter(MessageType type, cdr::ByteOrder order);
  void begin_payload();

  cdr::Writer w_;
  std::size_t length_at_ = 0;  // offset of the payload's u32 length
};

/// Serialize a request frame: protocol header + request header + payload.
std::vector<std::uint8_t> frame_request(const RequestHeader& header,
                                        const std::vector<std::uint8_t>& payload,
                                        cdr::ByteOrder order = cdr::native_byte_order());

std::vector<std::uint8_t> frame_reply(const ReplyHeader& header,
                                      const std::vector<std::uint8_t>& payload,
                                      cdr::ByteOrder order = cdr::native_byte_order());

/// A parsed frame that borrows the received bytes: the operation, the
/// exception detail and the payload are views, valid while those bytes
/// live. The ORB dispatches from it without copying.
struct FrameView {
  MessageType type = MessageType::kRequest;
  cdr::ByteOrder byte_order = cdr::native_byte_order();
  RequestId request_id;
  // kRequest only.
  ObjectId object_key;
  std::string_view operation;
  bool response_expected = true;
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;
  // kReply only.
  ReplyStatus status = ReplyStatus::kNoException;
  std::string_view exception_detail;
  std::span<const std::uint8_t> payload;

  [[nodiscard]] cdr::Reader payload_reader() const {
    return cdr::Reader(payload.data(), payload.size(), byte_order);
  }
};

/// Parse a wire frame. Rejects bad magic, version, byte-order flag or
/// reserved byte, truncation, and body bytes after the payload.
Result<FrameView> view_frame(std::span<const std::uint8_t> bytes);

struct ParsedFrame {
  MessageType type;
  cdr::ByteOrder byte_order;
  RequestHeader request;  // valid when type == kRequest
  ReplyHeader reply;      // valid when type == kReply
  std::vector<std::uint8_t> payload;
};

/// view_frame, with the views copied out.
Result<ParsedFrame> parse_frame(const std::vector<std::uint8_t>& bytes);

}  // namespace integrade::orb
