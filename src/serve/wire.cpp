#include "serve/wire.hpp"

#include <bit>
#include <cstring>

namespace citl::serve {

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kHello: return "hello";
    case Opcode::kCreateSession: return "create_session";
    case Opcode::kSetParam: return "set_param";
    case Opcode::kGetParam: return "get_param";
    case Opcode::kSetState: return "set_state";
    case Opcode::kGetState: return "get_state";
    case Opcode::kEnableControl: return "enable_control";
    case Opcode::kStep: return "step";
    case Opcode::kSnapshot: return "snapshot";
    case Opcode::kRestore: return "restore";
    case Opcode::kDestroySession: return "destroy_session";
    case Opcode::kStats: return "stats";
    case Opcode::kAttachSession: return "attach_session";
  }
  return "unknown";
}

namespace {

/// Little-endian stores and loads: one copy on a little-endian host, byte
/// by byte elsewhere, so the bytes never depend on the host.
template <class T>
void put_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <class T>
[[nodiscard]] T get_le(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
    }
  }
  return v;
}

/// One append of `v`'s little-endian bytes.
template <class T>
void append_le(WireWriter& w, T v) {
  std::uint8_t b[sizeof(T)];
  put_le(b, v);
  w.raw(b, sizeof(b));
}

void put_f64(std::uint8_t* p, double v) {
  put_le(p, std::bit_cast<std::uint64_t>(v));
}

[[nodiscard]] double get_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(get_le<std::uint64_t>(p));
}

[[nodiscard]] hil::TurnRecord load_turn_record(const std::uint8_t* p) {
  hil::TurnRecord rec;
  rec.time_s = get_f64(p);
  rec.phase_rad = get_f64(p + 8);
  rec.dt_s = get_f64(p + 16);
  rec.dgamma = get_f64(p + 24);
  rec.correction_hz = get_f64(p + 32);
  rec.gap_phase_rad = get_f64(p + 40);
  return rec;
}

/// The bytes before a payload: the length prefix and the header.
constexpr std::size_t kFrameHead = 4 + kHeaderBytes;

/// Writes a frame's kFrameHead bytes at `p`.
void put_head(std::uint8_t* p, std::size_t body, std::uint8_t version,
              Opcode opcode, ErrorCode status, std::uint32_t request_id,
              std::uint32_t session_id) {
  put_le(p, static_cast<std::uint32_t>(body));
  p[4] = version;
  p[5] = static_cast<std::uint8_t>(opcode);
  put_le(p + 6, static_cast<std::uint16_t>(status));
  put_le(p + 8, request_id);
  put_le(p + 12, session_id);
}

[[noreturn]] void throw_bad_frame(const std::string& what) {
  throw Error("citl-wire-v1: " + what, ErrorCode::kBadFrame);
}

void check_frame_size(std::size_t payload_bytes) {
  if (kHeaderBytes + payload_bytes > kMaxFrameBytes) {
    throw_bad_frame("frame payload exceeds kMaxFrameBytes (" +
                    std::to_string(payload_bytes) + " bytes)");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  check_frame_size(frame.payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHead + frame.payload.size());
  out.resize(kFrameHead);
  put_head(out.data(), kHeaderBytes + frame.payload.size(), frame.version,
           frame.opcode, frame.status, frame.request_id, frame.session_id);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

FrameWriter::FrameWriter(Opcode opcode, std::uint32_t request_id) {
  w_.buf_.resize(kFrameHead);
  put_head(w_.buf_.data(), kHeaderBytes, kWireVersion, opcode, ErrorCode::kOk,
           request_id, 0);
}

void FrameWriter::clear_payload() { w_.buf_.resize(kFrameHead); }

std::vector<std::uint8_t> FrameWriter::finish(ErrorCode status,
                                              std::uint32_t session_id) {
  std::vector<std::uint8_t>& buf = w_.buf_;
  check_frame_size(buf.size() - kFrameHead);
  put_le(buf.data(), static_cast<std::uint32_t>(buf.size() - 4));
  put_le(buf.data() + 6, static_cast<std::uint16_t>(status));
  put_le(buf.data() + 12, session_id);
  return std::move(buf);
}

void FrameParser::feed(const std::uint8_t* data, std::size_t len) {
  // Compact lazily: drop fully-consumed prefix before growing the buffer.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

std::optional<Frame> FrameParser::next() {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  const std::uint8_t* p = buf_.data() + consumed_;
  const auto body = get_le<std::uint32_t>(p);
  if (body < kHeaderBytes) {
    throw_bad_frame("length prefix " + std::to_string(body) +
                    " is shorter than the 12-byte header");
  }
  if (body > kMaxFrameBytes) {
    throw_bad_frame("length prefix " + std::to_string(body) +
                    " exceeds kMaxFrameBytes");
  }
  if (avail < 4 + static_cast<std::size_t>(body)) return std::nullopt;
  Frame f;
  f.version = p[4];
  if (f.version != kWireVersion) {
    throw_bad_frame("unsupported protocol version " +
                    std::to_string(static_cast<int>(f.version)));
  }
  f.opcode = static_cast<Opcode>(p[5]);
  f.status = static_cast<ErrorCode>(get_le<std::uint16_t>(p + 6));
  f.request_id = get_le<std::uint32_t>(p + 8);
  f.session_id = get_le<std::uint32_t>(p + 12);
  f.payload.assign(p + 4 + kHeaderBytes, p + 4 + body);
  consumed_ += 4 + static_cast<std::size_t>(body);
  return f;
}

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) { append_le(*this, v); }

void WireWriter::u32(std::uint32_t v) { append_le(*this, v); }

void WireWriter::u64(std::uint64_t v) { append_le(*this, v); }

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::raw(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void WireReader::need(std::size_t n) const {
  if (len_ - pos_ < n) {
    throw_bad_frame("truncated payload: need " + std::to_string(n) +
                    " byte(s) at offset " + std::to_string(pos_) + " of " +
                    std::to_string(len_));
  }
}

const std::uint8_t* WireReader::raw(std::size_t n) {
  need(n);
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8() { return *raw(1); }

std::uint16_t WireReader::u16() { return get_le<std::uint16_t>(raw(2)); }

std::uint32_t WireReader::u32() { return get_le<std::uint32_t>(raw(4)); }

std::uint64_t WireReader::u64() { return get_le<std::uint64_t>(raw(8)); }

double WireReader::f64() { return get_f64(raw(8)); }

std::string WireReader::str() {
  const std::uint32_t n = u32();
  return std::string(reinterpret_cast<const char*>(raw(n)), n);
}

void WireReader::expect_end() const {
  if (pos_ != len_) {
    throw_bad_frame("payload has " + std::to_string(len_ - pos_) +
                    " trailing byte(s)");
  }
}

void encode_session_config(WireWriter& w, const api::SessionConfig& config) {
  w.f64(config.f_ref_hz);
  w.u32(static_cast<std::uint32_t>(config.harmonic));
  w.f64(config.f_sync_hz);
  w.f64(config.gap_voltage_v);
  w.f64(config.jump_amplitude_deg);
  w.f64(config.jump_start_s);
  w.f64(config.jump_interval_s);
  w.f64(config.gain);
  w.u8(config.control_enabled ? 1 : 0);
  w.u8(config.pipelined ? 1 : 0);
  w.u8(config.cycle_accurate ? 1 : 0);
  w.u8(config.synthesize_waveform ? 1 : 0);
  w.u8(config.quantise_period ? 1 : 0);
  w.f64(config.phase_noise_rad);
  w.u64(config.noise_seed);
  w.u8(config.supervised ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(config.exec_tier));
}

api::SessionConfig decode_session_config(WireReader& r) {
  api::SessionConfig config;
  config.f_ref_hz = r.f64();
  config.harmonic = static_cast<int>(r.u32());
  config.f_sync_hz = r.f64();
  config.gap_voltage_v = r.f64();
  config.jump_amplitude_deg = r.f64();
  config.jump_start_s = r.f64();
  config.jump_interval_s = r.f64();
  config.gain = r.f64();
  config.control_enabled = r.u8() != 0;
  config.pipelined = r.u8() != 0;
  config.cycle_accurate = r.u8() != 0;
  config.synthesize_waveform = r.u8() != 0;
  config.quantise_period = r.u8() != 0;
  config.phase_noise_rad = r.f64();
  config.noise_seed = r.u64();
  config.supervised = r.u8() != 0;
  const std::uint8_t tier = r.u8();
  if (tier > static_cast<std::uint8_t>(cgra::ExecTier::kAuto)) {
    throw_bad_frame("unknown exec tier " + std::to_string(tier));
  }
  config.exec_tier = static_cast<cgra::ExecTier>(tier);
  return config;
}

void encode_turn_record(WireWriter& w, const hil::TurnRecord& rec) {
  std::uint8_t b[kTurnRecordBytes];
  put_f64(b, rec.time_s);
  put_f64(b + 8, rec.phase_rad);
  put_f64(b + 16, rec.dt_s);
  put_f64(b + 24, rec.dgamma);
  put_f64(b + 32, rec.correction_hz);
  put_f64(b + 40, rec.gap_phase_rad);
  w.raw(b, sizeof(b));
}

hil::TurnRecord decode_turn_record(WireReader& r) {
  return load_turn_record(r.raw(kTurnRecordBytes));
}

void encode_step_records(WireWriter& w,
                         const std::vector<hil::TurnRecord>& records) {
  w.reserve(4 + records.size() * kTurnRecordBytes);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& rec : records) encode_turn_record(w, rec);
}

std::vector<hil::TurnRecord> decode_step_records(WireReader& r) {
  const std::uint32_t count = r.u32();
  const std::size_t bytes = std::size_t{count} * kTurnRecordBytes;
  if (r.remaining() != bytes) {
    throw_bad_frame("step response carries " + std::to_string(r.remaining()) +
                    " record bytes for " + std::to_string(count) +
                    " records");
  }
  const std::uint8_t* p = r.raw(bytes);
  std::vector<hil::TurnRecord> out(count);
  for (auto& rec : out) {
    rec = load_turn_record(p);
    p += kTurnRecordBytes;
  }
  return out;
}

}  // namespace citl::serve
