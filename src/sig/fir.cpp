#include "sig/fir.hpp"

#include <algorithm>
#include <cmath>

#include "core/units.hpp"

namespace citl::sig {

double window_value(Window w, std::size_t i, std::size_t n) {
  CITL_CHECK(n >= 1 && i < n);
  if (n == 1) return 1.0;
  const double x =
      static_cast<double>(i) / (static_cast<double>(n) - 1.0);  // 0..1
  switch (w) {
    case Window::kRectangular:
      return 1.0;
    case Window::kHamming:
      return 0.54 - 0.46 * std::cos(kTwoPi * x);
    case Window::kBlackman:
      return 0.42 - 0.5 * std::cos(kTwoPi * x) +
             0.08 * std::cos(2.0 * kTwoPi * x);
  }
  return 1.0;
}

std::vector<double> design_lowpass(std::size_t taps, double cutoff_norm,
                                   Window w) {
  CITL_CHECK_MSG(taps >= 1, "filter needs at least one tap");
  CITL_CHECK_MSG(cutoff_norm > 0.0 && cutoff_norm < 0.5,
                 "cutoff must be in (0, 0.5) of the sample rate");
  std::vector<double> h(taps);
  const double m = (static_cast<double>(taps) - 1.0) / 2.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double x = static_cast<double>(i) - m;
    const double s = x == 0.0
                         ? 2.0 * cutoff_norm
                         : std::sin(kTwoPi * cutoff_norm * x) / (kPi * x);
    h[i] = s * window_value(w, i, taps);
  }
  // Unity DC gain.
  double sum = 0.0;
  for (double c : h) sum += c;
  CITL_CHECK_MSG(sum != 0.0, "degenerate filter: zero DC gain");
  for (double& c : h) c /= sum;
  return h;
}

double magnitude_response(const std::vector<double>& taps, double f_norm) {
  double re = 0.0, im = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double phi = -kTwoPi * f_norm * static_cast<double>(i);
    re += taps[i] * std::cos(phi);
    im += taps[i] * std::sin(phi);
  }
  return std::sqrt(re * re + im * im);
}

double phase_response(const std::vector<double>& taps, double f_norm) {
  double re = 0.0, im = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double phi = -kTwoPi * f_norm * static_cast<double>(i);
    re += taps[i] * std::cos(phi);
    im += taps[i] * std::sin(phi);
  }
  return std::atan2(im, re);
}

FirFilter::FirFilter(std::vector<double> taps) : taps_(std::move(taps)) {
  CITL_CHECK_MSG(!taps_.empty(), "FIR filter needs taps");
  delay_.assign(taps_.size(), 0.0);
}

double FirFilter::process(double x) noexcept {
  delay_[head_] = x;
  double acc = 0.0;
  std::size_t j = head_;
  for (std::size_t i = 0; i < taps_.size(); ++i) {
    acc += taps_[i] * delay_[j];
    j = (j == 0) ? delay_.size() - 1 : j - 1;
  }
  head_ = (head_ + 1) % delay_.size();
  return acc;
}

void FirFilter::reset() noexcept {
  std::fill(delay_.begin(), delay_.end(), 0.0);
  head_ = 0;
}

}  // namespace citl::sig
