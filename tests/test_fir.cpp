// FIR design and streaming filters.
#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"
#include "sig/fir.hpp"

namespace citl::sig {
namespace {

TEST(FirDesign, LowpassUnityDcGain) {
  for (std::size_t taps : {5u, 15u, 63u}) {
    const auto h = design_lowpass(taps, 0.1);
    double sum = 0.0;
    for (double c : h) sum += c;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_NEAR(magnitude_response(h, 0.0), 1.0, 1e-12);
  }
}

TEST(FirDesign, LowpassAttenuatesStopband) {
  const auto h = design_lowpass(63, 0.1);
  EXPECT_GT(magnitude_response(h, 0.02), 0.95);
  EXPECT_LT(magnitude_response(h, 0.3), 0.02);
}

TEST(FirDesign, WindowsTaperToEnds) {
  EXPECT_NEAR(window_value(Window::kHamming, 0, 21), 0.08, 1e-9);
  EXPECT_NEAR(window_value(Window::kHamming, 10, 21), 1.0, 1e-9);
  EXPECT_NEAR(window_value(Window::kBlackman, 0, 21), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(window_value(Window::kRectangular, 5, 21), 1.0);
}

TEST(FirDesign, LinearPhase) {
  // Symmetric taps: phase response is linear, slope = group delay.
  const auto h = design_lowpass(31, 0.1);
  const double gd = 15.0;
  for (double f : {0.01, 0.03, 0.05}) {
    const double expected = -kTwoPi * f * gd;
    double measured = phase_response(h, f);
    // Unwrap to the expected branch.
    while (measured - expected > kPi) measured -= kTwoPi;
    while (expected - measured > kPi) measured += kTwoPi;
    EXPECT_NEAR(measured, expected, 1e-6);
  }
}

TEST(FirDesign, RejectsInvalidSpecs) {
  EXPECT_THROW(design_lowpass(15, 0.0), std::logic_error);
  EXPECT_THROW(design_lowpass(15, 0.6), std::logic_error);
}

TEST(FirFilterTest, ImpulseResponseIsTaps) {
  const std::vector<double> taps{0.5, 0.25, 0.125, 0.0625};
  FirFilter f(taps);
  std::vector<double> out;
  out.push_back(f.process(1.0));
  for (int i = 0; i < 3; ++i) out.push_back(f.process(0.0));
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], taps[i]);
  }
}

TEST(FirFilterTest, LinearityAndTimeInvariance) {
  const auto taps = design_lowpass(15, 0.2);
  FirFilter fa(taps), fb(taps), fsum(taps);
  double worst = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double xa = std::sin(0.1 * i);
    const double xb = std::cos(0.37 * i);
    const double ya = fa.process(xa);
    const double yb = fb.process(xb);
    const double ys = fsum.process(2.0 * xa - 3.0 * xb);
    worst = std::max(worst, std::abs(ys - (2.0 * ya - 3.0 * yb)));
  }
  EXPECT_LT(worst, 1e-12);
}

TEST(FirFilterTest, SinusoidGainMatchesResponse) {
  const auto taps = design_lowpass(31, 0.1);
  FirFilter f(taps);
  const double fn = 0.05;  // in the passband
  double peak = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double y = f.process(std::sin(kTwoPi * fn * i));
    if (i > 100) peak = std::max(peak, std::abs(y));
  }
  EXPECT_NEAR(peak, magnitude_response(taps, fn), 0.01);
}

TEST(FirFilterTest, ResetClearsHistory) {
  FirFilter f({0.25, 0.25, 0.25, 0.25});  // 4-tap boxcar
  for (int i = 0; i < 10; ++i) f.process(5.0);
  f.reset();
  EXPECT_DOUBLE_EQ(f.process(0.0), 0.0);
}

TEST(OnePole, StepResponseConverges) {
  OnePoleLowpass lp(0.1);
  double y = 0.0;
  for (int i = 0; i < 200; ++i) y = lp.process(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(OnePole, SmallerAlphaIsSlower) {
  OnePoleLowpass fast(0.5), slow(0.01);
  double yf = 0.0, ys = 0.0;
  for (int i = 0; i < 10; ++i) {
    yf = fast.process(1.0);
    ys = slow.process(1.0);
  }
  EXPECT_GT(yf, ys);
  EXPECT_THROW(OnePoleLowpass(0.0), std::logic_error);
  EXPECT_THROW(OnePoleLowpass(1.5), std::logic_error);
}

}  // namespace
}  // namespace citl::sig
