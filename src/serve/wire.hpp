// citl-wire-v1: the session server's length-prefixed binary protocol.
//
// One frame on the wire is
//
//   u32  length      — bytes that follow (header + payload), little-endian
//   u8   version     — kWireVersion (1); anything else is kBadFrame
//   u8   opcode      — Opcode below; responses echo the request's opcode
//   u16  status      — citl::ErrorCode; requests send kOk, responses carry
//                      the same typed code an in-process caller would catch
//   u32  request_id  — echoed verbatim (client-side correlation)
//   u32  session_id  — 0 where no session applies (hello, create, stats)
//   ...  payload     — opcode-specific, layouts in docs/SERVING.md
//
// Every multi-byte integer is little-endian; every double travels as the
// raw IEEE-754 bit pattern of its binary64 value. That makes the protocol
// bit-transparent: a TurnRecord decoded from the wire compares bytewise
// equal to the record the engine produced, which is what the byte-identity
// acceptance tests pin (a session stepped over the wire must be
// bit-identical to the in-process library path).
//
// Encoding/decoding never touches sockets: WireWriter/WireReader work on
// byte buffers and FrameParser incrementally splits a byte stream into
// frames, so the whole protocol layer is testable (and fuzzable) without a
// server.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "core/error.hpp"
#include "hil/turnloop.hpp"

namespace citl::serve {

inline constexpr std::uint8_t kWireVersion = 1;
/// Header bytes after the length prefix.
inline constexpr std::size_t kHeaderBytes = 12;
/// Upper bound on the length prefix: a frame claiming more is malformed
/// (kBadFrame), not a request to allocate 4 GiB.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// Bytes of one TurnRecord on the wire: six binary64 bit patterns.
inline constexpr std::size_t kTurnRecordBytes = 48;
/// Most records one kStep response carries: its header, its u32 count and
/// the records fill at most kMaxFrameBytes, so 21845. A longer step is
/// refused (kOutOfRange) before it runs.
inline constexpr std::uint32_t kMaxStepTurns = static_cast<std::uint32_t>(
    (kMaxFrameBytes - kHeaderBytes - 4) / kTurnRecordBytes);

/// Request/response operations. Wire-stable like ErrorCode: never renumber,
/// only append.
enum class Opcode : std::uint8_t {
  kHello = 0,          ///< protocol handshake; response payload: magic string
  kCreateSession = 1,  ///< payload: SessionConfig; response: session header
  kSetParam = 2,       ///< name + value (kernel parameter register)
  kGetParam = 3,       ///< name; response: value
  kSetState = 4,       ///< name + value (loop-carried state)
  kGetState = 5,       ///< name; response: value
  kEnableControl = 6,  ///< u8 on/off: open/close the phase loop
  kStep = 7,           ///< u32 turns; response: TurnRecord stream
  kSnapshot = 8,       ///< response: u32 snapshot id
  kRestore = 9,        ///< u32 snapshot id
  kDestroySession = 10,
  kStats = 11,         ///< runtime-wide stats (session_id 0)
  /// Re-attach to a journalled session after a reconnect (empty request
  /// payload; response: f64 time_s + u64 turn + u64 last applied step
  /// sequence number, so the client resynchronises its exactly-once step
  /// counter with the server's journal).
  kAttachSession = 12,
};

[[nodiscard]] const char* opcode_name(Opcode op) noexcept;

/// One decoded frame (header + payload), direction-agnostic.
struct Frame {
  std::uint8_t version = kWireVersion;
  Opcode opcode = Opcode::kHello;
  ErrorCode status = ErrorCode::kOk;
  std::uint32_t request_id = 0;
  std::uint32_t session_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Serialises a frame, length prefix included.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental stream-to-frame splitter. feed() appends raw bytes; next()
/// yields completed frames in order. Malformed input — unknown version, a
/// length prefix shorter than the header or larger than kMaxFrameBytes —
/// throws Error{kBadFrame} and poisons the parser (the server answers with
/// a kBadFrame status and closes the connection).
class FrameParser {
 public:
  void feed(const std::uint8_t* data, std::size_t len);
  /// Extracts the next complete frame, or nullopt if more bytes are needed.
  [[nodiscard]] std::optional<Frame> next();
  /// Unconsumed bytes waiting for a complete frame.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - consumed_;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< bytes of buf_ already handed out
};

/// Append-only little-endian payload builder. Each field is one append of
/// its little-endian bytes.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw binary64 bit pattern — the bit-transparent double encoding.
  void f64(double v);
  /// u32 length + bytes, no terminator.
  void str(std::string_view s);
  /// `n` bytes as they are.
  void raw(const std::uint8_t* data, std::size_t n);
  /// Room for `n` more bytes, so the appends that follow do not reallocate.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }

 private:
  friend class FrameWriter;
  std::vector<std::uint8_t> buf_;
};

/// A frame encoded in place: the constructor writes the length prefix and
/// the header, payload() appends behind them, and finish() fills in the
/// length, status and session id. The bytes equal encode_frame() of the same
/// Frame, with no separate payload to copy.
class FrameWriter {
 public:
  FrameWriter(Opcode opcode, std::uint32_t request_id);
  [[nodiscard]] WireWriter& payload() noexcept { return w_; }
  /// Drops the payload written so far (an error message replaces it).
  void clear_payload();
  /// The finished frame. Throws Error{kBadFrame} past kMaxFrameBytes.
  [[nodiscard]] std::vector<std::uint8_t> finish(ErrorCode status,
                                                 std::uint32_t session_id);

 private:
  WireWriter w_;
};

/// Bounds-checked little-endian payload reader. Reading past the end (a
/// truncated payload) throws Error{kBadFrame} naming the opcode's field
/// context — malformed input is a typed protocol error, never UB.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// The next `n` bytes, bounds-checked once; the reader moves past them.
  [[nodiscard]] const std::uint8_t* raw(std::size_t n);
  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }
  /// Trailing bytes after the fields a decoder consumed are malformed input.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// --- DTO encodings --------------------------------------------------------

/// SessionConfig payload layout (create request). Fixed field order; the
/// decoder rejects trailing bytes, so v1 frames are exactly this shape.
void encode_session_config(WireWriter& w, const api::SessionConfig& config);
[[nodiscard]] api::SessionConfig decode_session_config(WireReader& r);

/// TurnRecord as 6 consecutive binary64 bit patterns (48 bytes), written
/// as one append and read after one bounds check.
void encode_turn_record(WireWriter& w, const hil::TurnRecord& rec);
[[nodiscard]] hil::TurnRecord decode_turn_record(WireReader& r);

/// kStep response payload: u32 count, then the records. The encoder sizes
/// the writer for all of them first; the decoder checks once that the rest
/// of the payload is exactly count records (kBadFrame otherwise).
void encode_step_records(WireWriter& w,
                         const std::vector<hil::TurnRecord>& records);
[[nodiscard]] std::vector<hil::TurnRecord> decode_step_records(WireReader& r);

}  // namespace citl::serve
