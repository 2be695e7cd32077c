// Gauss pulse shape table and playback timer (§III-B).
#include <gtest/gtest.h>

#include <cmath>

#include "sig/gauss.hpp"

namespace citl::sig {
namespace {

TEST(GaussShape, PeakAndSymmetry) {
  const GaussPulseShape s(7.5, 0.6);
  EXPECT_NEAR(s.at(0.0), 0.6, 1e-12);
  for (double x : {1.0, 3.3, 7.5, 14.0}) {
    EXPECT_NEAR(s.at(x), s.at(-x), 1e-12);
    EXPECT_LT(s.at(x), 0.6);
  }
}

TEST(GaussShape, MatchesGaussian) {
  const GaussPulseShape s(10.0, 1.0, 5.0);
  for (double x = -40.0; x <= 40.0; x += 0.613) {
    EXPECT_NEAR(s.at(x), std::exp(-0.5 * x * x / 100.0), 2e-3);
  }
}

TEST(GaussShape, ZeroOutsideTable) {
  const GaussPulseShape s(5.0, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(s.at(100.0), 0.0);
  EXPECT_DOUBLE_EQ(s.at(-100.0), 0.0);
}

TEST(GaussShape, RejectsBadParameters) {
  EXPECT_THROW(GaussPulseShape(0.0, 1.0), std::logic_error);
  EXPECT_THROW(GaussPulseShape(1.0, 1.0, -1.0), std::logic_error);
}

TEST(GaussGenerator, PlaysScheduledPulse) {
  GaussPulseGenerator gen(GaussPulseShape(4.0, 1.0));
  gen.schedule(100.0);
  EXPECT_DOUBLE_EQ(gen.sample(50), 0.0);
  EXPECT_NEAR(gen.sample(100), 1.0, 1e-12);
  EXPECT_NEAR(gen.sample(104), std::exp(-0.5), 1e-3);
}

TEST(GaussGenerator, FractionalCenterShiftsPeak) {
  // Sub-sample pulse timing is the whole point of the actuator path: the
  // peak lands between samples and neighbouring samples are equal.
  GaussPulseGenerator gen(GaussPulseShape(4.0, 1.0));
  gen.schedule(200.5);
  const double before = gen.sample(200);
  const double after = gen.sample(201);
  EXPECT_NEAR(before, after, 1e-12);
  EXPECT_LT(before, 1.0);
}

TEST(GaussGenerator, DropsFinishedPulses) {
  GaussPulseGenerator gen(GaussPulseShape(4.0, 1.0));
  gen.schedule(100.0);
  EXPECT_EQ(gen.pending(), 1u);
  (void)gen.sample(200);  // far past the pulse
  EXPECT_EQ(gen.pending(), 0u);
}

TEST(GaussGenerator, OverlappingPulsesSum) {
  GaussPulseGenerator gen(GaussPulseShape(4.0, 1.0));
  gen.schedule(100.0);
  gen.schedule(102.0);
  // At 101 both pulses contribute e^{-1/32} each.
  EXPECT_NEAR(gen.sample(101), 2.0 * std::exp(-0.5 * 1.0 / 16.0), 1e-9);
}

TEST(GaussGenerator, MultiBunchTrain) {
  // Four bunches per revolution (h = 4), repeated for 3 revolutions:
  // every scheduled pulse must appear exactly once.
  GaussPulseGenerator gen(GaussPulseShape(2.0, 1.0));
  const double period = 312.5, bucket = period / 4.0;
  for (int rev = 0; rev < 3; ++rev) {
    for (int b = 0; b < 4; ++b) {
      gen.schedule(1000.0 + rev * period + b * bucket);
    }
  }
  int peaks = 0;
  double prev2 = 0.0, prev1 = 0.0;
  for (Tick t = 900; t < 2100; ++t) {
    const double v = gen.sample(t);
    if (prev1 > 0.5 && prev1 > prev2 && prev1 >= v) ++peaks;
    prev2 = prev1;
    prev1 = v;
  }
  EXPECT_EQ(peaks, 12);
}

TEST(GaussGenerator, OutOfOrderSchedulingWorks) {
  GaussPulseGenerator gen(GaussPulseShape(2.0, 1.0));
  gen.schedule(300.0);
  gen.schedule(100.0);  // earlier pulse scheduled later
  EXPECT_NEAR(gen.sample(100), 1.0, 1e-12);
  EXPECT_NEAR(gen.sample(300), 1.0, 1e-12);
}

TEST(GaussGenerator, RuntimeShapeSwap) {
  // §VI outlook: "a parametric version that adapts to the energy/phase
  // distribution of the bunch" — shapes are hot-swappable.
  GaussPulseGenerator gen(GaussPulseShape(2.0, 1.0));
  gen.set_shape(GaussPulseShape(2.0, 0.25));
  gen.schedule(50.0);
  EXPECT_NEAR(gen.sample(50), 0.25, 1e-12);
}

}  // namespace
}  // namespace citl::sig
