#include "api/api.hpp"

#include <cstring>
#include <sstream>

#include "core/units.hpp"
#include "phys/ion.hpp"
#include "phys/machine.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::api {

namespace {

[[noreturn]] void throw_field(const char* field, const std::string& detail) {
  std::ostringstream os;
  os << "SessionConfig." << field << ": " << detail;
  throw ConfigError(os.str(), ErrorCode::kInvalidConfig);
}

}  // namespace

SessionConfig paper_operating_point() {
  SessionConfig config;       // the defaults are the paper's operating point
  config.jump_amplitude_deg = 8.0;
  return config;
}

void validate(const SessionConfig& config) {
  if (!(config.f_ref_hz > 0.0)) {
    throw_field("f_ref_hz", "revolution frequency must be > 0 (got " +
                                std::to_string(config.f_ref_hz) + ")");
  }
  if (config.harmonic < 1) {
    throw_field("harmonic", "RF harmonic must be >= 1 (got " +
                                std::to_string(config.harmonic) + ")");
  }
  if (config.gap_voltage_v <= 0.0 && !(config.f_sync_hz > 0.0)) {
    throw_field("f_sync_hz",
                "synchrotron frequency must be > 0 when no explicit "
                "gap_voltage_v is given (got " +
                    std::to_string(config.f_sync_hz) + ")");
  }
  if (config.jump_amplitude_deg < 0.0) {
    throw_field("jump_amplitude_deg",
                "jump amplitude must be >= 0 (got " +
                    std::to_string(config.jump_amplitude_deg) + ")");
  }
  if (config.jump_amplitude_deg > 0.0 && !(config.jump_interval_s > 0.0)) {
    throw_field("jump_interval_s",
                "jump interval must be > 0 (got " +
                    std::to_string(config.jump_interval_s) + ")");
  }
  if (config.phase_noise_rad < 0.0) {
    throw_field("phase_noise_rad",
                "noise amplitude must be >= 0 (got " +
                    std::to_string(config.phase_noise_rad) + ")");
  }
  switch (config.exec_tier) {
    case cgra::ExecTier::kInterpreter:
    case cgra::ExecTier::kNative:
    case cgra::ExecTier::kAuto:
      break;
    default:
      throw_field("exec_tier",
                  "unknown execution tier " +
                      std::to_string(static_cast<int>(config.exec_tier)));
  }
  // The relativistic energy implied by the revolution frequency must be
  // physical (beta < 1): f_ref · C < c.
  const phys::Ring ring = phys::sis18(config.harmonic);
  const double beta =
      config.f_ref_hz * ring.circumference_m / kSpeedOfLight;
  if (beta >= 1.0) {
    throw_field("f_ref_hz",
                "implies superluminal beam (beta = " + std::to_string(beta) +
                    " at the SIS18 circumference)");
  }
}

namespace {

/// FNV-1a 64-bit, fed field by field in the citl-wire-v1 create-payload
/// order. Doubles hash their raw binary64 bit pattern so the digest is as
/// bit-exact as the wire encoding itself.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes(b, sizeof(b));
  }
  void u32(std::uint32_t v) { u64(v); }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t session_config_digest(const SessionConfig& config) {
  Fnv1a h;
  h.f64(config.f_ref_hz);
  h.u32(static_cast<std::uint32_t>(config.harmonic));
  h.f64(config.f_sync_hz);
  h.f64(config.gap_voltage_v);
  h.f64(config.jump_amplitude_deg);
  h.f64(config.jump_start_s);
  h.f64(config.jump_interval_s);
  h.f64(config.gain);
  h.u8(config.control_enabled ? 1 : 0);
  h.u8(config.pipelined ? 1 : 0);
  h.u8(config.cycle_accurate ? 1 : 0);
  h.u8(config.synthesize_waveform ? 1 : 0);
  h.u8(config.quantise_period ? 1 : 0);
  h.f64(config.phase_noise_rad);
  h.u64(config.noise_seed);
  h.u8(config.supervised ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(config.exec_tier));
  return h.value();
}

double effective_gap_voltage_v(const SessionConfig& config) {
  if (config.gap_voltage_v > 0.0) return config.gap_voltage_v;
  const phys::Ring ring = phys::sis18(config.harmonic);
  const double gamma = phys::gamma_from_revolution_frequency(
      config.f_ref_hz, ring.circumference_m);
  return phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, config.f_sync_hz);
}

namespace {

/// The shared part of both expansions: operating point, stimulus, control.
/// Everything here is a deterministic function of the SessionConfig, so two
/// equal configs expand to byte-identical engine configs (the byte-identity
/// tests in test_serve.cpp rest on this).
template <class EngineConfig>
void expand_common(const SessionConfig& config, EngineConfig& out) {
  out.kernel.ring = phys::sis18(config.harmonic);
  out.kernel.pipelined = config.pipelined;
  out.f_ref_hz = config.f_ref_hz;
  out.gap_voltage_v = effective_gap_voltage_v(config);
  out.control_enabled = config.control_enabled;
  out.controller.gain = config.gain;
  if (config.jump_amplitude_deg > 0.0) {
    out.jumps = ctrl::PhaseJumpProgramme(
        deg_to_rad(config.jump_amplitude_deg), config.jump_interval_s,
        config.jump_start_s);
  }
}

}  // namespace

hil::TurnLoopConfig to_turnloop_config(const SessionConfig& config) {
  validate(config);
  hil::TurnLoopConfig out;
  expand_common(config, out);
  out.cycle_accurate = config.cycle_accurate;
  out.exec_tier = config.exec_tier;
  out.synthesize_waveform = config.synthesize_waveform;
  out.quantise_period = config.quantise_period;
  out.phase_noise_rad = config.phase_noise_rad;
  out.noise_seed = config.noise_seed;
  out.supervisor.enabled = config.supervised;
  return out;
}

hil::FrameworkConfig to_framework_config(const SessionConfig& config) {
  validate(config);
  hil::FrameworkConfig out;
  expand_common(config, out);
  out.cycle_accurate_cgra = config.cycle_accurate;
  out.exec_tier = config.exec_tier;
  out.noise_seed = config.noise_seed;
  out.supervisor.enabled = config.supervised;
  // The sample-accurate engine has no analytic noise injection or waveform
  // synthesis toggle — those are turn-level knobs; requesting them here is a
  // config error rather than a silent drop.
  if (config.synthesize_waveform) {
    throw ConfigError(
        "SessionConfig.synthesize_waveform: on-chip waveform synthesis is a "
        "turn-level engine feature (use to_turnloop_config)",
        ErrorCode::kUnsupported);
  }
  if (config.phase_noise_rad != 0.0) {
    throw ConfigError(
        "SessionConfig.phase_noise_rad: analytic detector-noise injection is "
        "a turn-level engine feature (the sample-accurate engine models noise "
        "at the ADCs; use adc_noise_rms_v on FrameworkConfig directly)",
        ErrorCode::kUnsupported);
  }
  if (config.quantise_period) {
    throw ConfigError(
        "SessionConfig.quantise_period: the sample-accurate engine always "
        "quantises to the capture clock; the toggle is a turn-level knob",
        ErrorCode::kUnsupported);
  }
  return out;
}

void set_kernel_param(cgra::BeamModel& model, std::string_view name,
                      double value, std::size_t lane) {
  model.set_param(model.param_handle(name), value, lane);
}

double kernel_param(const cgra::BeamModel& model, std::string_view name,
                    std::size_t lane) {
  return model.param(model.param_handle(name), lane);
}

void set_kernel_state(cgra::BeamModel& model, std::string_view name,
                      double value, std::size_t lane) {
  model.set_state(model.state_handle(name), value, lane);
}

double kernel_state(const cgra::BeamModel& model, std::string_view name,
                    std::size_t lane) {
  return model.state(model.state_handle(name), lane);
}

}  // namespace citl::api
