#include "sig/dds.hpp"

#include <cmath>

#include "core/error.hpp"

namespace citl::sig {

Dds::Dds(ClockDomain clock, double frequency_hz, double amplitude_v,
         unsigned lut_bits)
    : clock_(clock),
      frequency_hz_(frequency_hz),
      amplitude_v_(amplitude_v),
      lut_bits_(lut_bits) {
  CITL_CHECK_MSG(lut_bits >= 4 && lut_bits <= 20, "LUT size out of range");
  CITL_CHECK_MSG(frequency_hz > 0.0 &&
                     frequency_hz < clock.frequency_hz() / 2.0,
                 "DDS frequency must respect Nyquist");
  const std::size_t n = std::size_t{1} << lut_bits;
  lut_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lut_[i] = std::sin(kTwoPi * static_cast<double>(i) /
                       static_cast<double>(n));
  }
  const double full = std::ldexp(1.0, kAccBits);  // 2^48
  tuning_word_ = static_cast<std::uint64_t>(
      frequency_hz_ / clock_.frequency_hz() * full + 0.5);
}

void Dds::set_phase_offset(double rad) noexcept {
  phase_offset_rad_ = rad;
  const double full = std::ldexp(1.0, kAccBits);
  double frac = rad / kTwoPi;
  frac -= std::floor(frac);
  offset_word_ = static_cast<std::uint64_t>(frac * full + 0.5);
}

double Dds::lookup(std::uint64_t acc) const noexcept {
  const std::uint64_t masked = acc & ((std::uint64_t{1} << kAccBits) - 1);
  const unsigned shift = kAccBits - lut_bits_;
  // Linear interpolation between adjacent LUT entries: the hardware truncates,
  // but interpolation keeps spurs below the 14-bit converter floor, which is
  // what a real Group DDS achieves with dithering.
  const std::uint64_t idx = masked >> shift;
  const std::uint64_t frac_bits = masked & ((std::uint64_t{1} << shift) - 1);
  const double frac =
      static_cast<double>(frac_bits) / std::ldexp(1.0, static_cast<int>(shift));
  const std::size_t n = lut_.size();
  const double a = lut_[static_cast<std::size_t>(idx)];
  const double b = lut_[static_cast<std::size_t>((idx + 1) & (n - 1))];
  return a + (b - a) * frac;
}

double Dds::current() const noexcept {
  return amplitude_v_ * lookup(accumulator_ + offset_word_);
}

double Dds::tick() noexcept {
  const double out = current();
  accumulator_ += tuning_word_;
  return out;
}

}  // namespace citl::sig
