// FIR filtering and filter design.
//
// Used in two places: the beam-phase controller (the paper's closed loop is
// built around an FIR filter with a pass frequency, a gain and a recursion
// factor, §V) and the IQ phase detector's post-mixing lowpass.
#pragma once

#include <cstddef>
#include <vector>

#include "core/error.hpp"

namespace citl::sig {

/// Window functions for windowed-sinc design.
enum class Window { kRectangular, kHamming, kBlackman };

/// Evaluates window `w` of length `n` at index `i`.
[[nodiscard]] double window_value(Window w, std::size_t i, std::size_t n);

/// Windowed-sinc lowpass design: `taps` coefficients, cutoff as a fraction
/// of the sampling rate (0 < cutoff < 0.5), unity DC gain.
[[nodiscard]] std::vector<double> design_lowpass(std::size_t taps,
                                                 double cutoff_norm,
                                                 Window w = Window::kHamming);

/// Magnitude response |H(e^{j2πf})| of a tap set at normalised frequency f.
[[nodiscard]] double magnitude_response(const std::vector<double>& taps,
                                        double f_norm);

/// Phase response arg H(e^{j2πf}) [rad].
[[nodiscard]] double phase_response(const std::vector<double>& taps,
                                    double f_norm);

/// Streaming FIR filter with an internal circular delay line.
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  /// Pushes one input sample; returns the filtered output.
  double process(double x) noexcept;

  /// Resets the delay line to zero.
  void reset() noexcept;

  [[nodiscard]] const std::vector<double>& taps() const noexcept {
    return taps_;
  }
  /// Group delay in samples for a symmetric (linear-phase) tap set.
  [[nodiscard]] double group_delay_samples() const noexcept {
    return (static_cast<double>(taps_.size()) - 1.0) / 2.0;
  }

  /// Raw delay line + head index, for checkpoint serialization. The vector
  /// length equals taps().size(); set_delay_state() rejects anything else.
  [[nodiscard]] const std::vector<double>& delay_state() const noexcept {
    return delay_;
  }
  [[nodiscard]] std::size_t delay_head() const noexcept { return head_; }
  void set_delay_state(const std::vector<double>& delay, std::size_t head) {
    CITL_CHECK_MSG(delay.size() == delay_.size() && head < delay_.size(),
                   "FIR delay-state shape mismatch");
    delay_ = delay;
    head_ = head;
  }

 private:
  std::vector<double> taps_;
  std::vector<double> delay_;
  std::size_t head_ = 0;
};

/// Exponential moving average (one-pole IIR lowpass): y += a·(x − y).
class OnePoleLowpass {
 public:
  /// `alpha` in (0, 1]; smaller = heavier smoothing.
  explicit OnePoleLowpass(double alpha) : alpha_(alpha) {
    CITL_CHECK_MSG(alpha > 0.0 && alpha <= 1.0, "alpha out of (0,1]");
  }
  double process(double x) noexcept {
    y_ += alpha_ * (x - y_);
    return y_;
  }
  void reset(double y0 = 0.0) noexcept { y_ = y0; }
  [[nodiscard]] double value() const noexcept { return y_; }

 private:
  double alpha_;
  double y_ = 0.0;
};

}  // namespace citl::sig
