// Direct digital synthesis, modelled after the Group DDS modules that feed
// the paper's test setup (§IV-B, §V): a fixed-width phase accumulator whose
// tuning word sets the output frequency, a sine lookup table, and a phase
// offset port that the calibration electronics / controller can move at
// runtime (this is where phase jumps and corrections enter).
#pragma once

#include <cstdint>
#include <vector>

#include "core/simtime.hpp"
#include "core/units.hpp"

namespace citl::sig {

/// Phase-accumulator DDS clocked by a ClockDomain.
class Dds {
 public:
  /// `lut_bits` selects the sine table size (2^lut_bits entries); the
  /// accumulator itself is 48 bits, giving sub-µHz tuning resolution at
  /// 250 MHz, far below any effect we measure.
  Dds(ClockDomain clock, double frequency_hz, double amplitude_v,
      unsigned lut_bits = 14);

  /// Advances one clock tick and returns the output voltage.
  double tick() noexcept;

  /// Output without advancing (the value the DAC currently drives).
  [[nodiscard]] double current() const noexcept;

  void set_amplitude(double amplitude_v) noexcept { amplitude_v_ = amplitude_v; }

  /// Sets the static phase offset [rad] added to the accumulator output.
  /// Phase jumps and beam-phase-control corrections act here.
  void set_phase_offset(double rad) noexcept;
  [[nodiscard]] double phase_offset_rad() const noexcept {
    return phase_offset_rad_;
  }

  /// Resets the accumulator (the "simultaneous phase reset" the mini control
  /// system performs to synchronise several DDS modules, §V).
  void reset_phase() noexcept { accumulator_ = 0; }

  [[nodiscard]] double frequency_hz() const noexcept { return frequency_hz_; }
  [[nodiscard]] double amplitude_v() const noexcept { return amplitude_v_; }

 private:
  static constexpr unsigned kAccBits = 48;

  ClockDomain clock_;
  double frequency_hz_;
  double amplitude_v_;
  double phase_offset_rad_ = 0.0;
  std::uint64_t accumulator_ = 0;
  std::uint64_t tuning_word_ = 0;
  std::uint64_t offset_word_ = 0;
  unsigned lut_bits_;
  std::vector<double> lut_;

  [[nodiscard]] double lookup(std::uint64_t acc) const noexcept;
};

}  // namespace citl::sig
