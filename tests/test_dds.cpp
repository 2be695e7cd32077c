// DDS signal synthesis: frequency accuracy, phase port, amplitude.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simtime.hpp"
#include "core/units.hpp"
#include "sig/dds.hpp"

namespace citl::sig {
namespace {

/// Counts positive zero crossings over `ticks` samples.
int count_crossings(Dds& dds, int ticks) {
  int crossings = 0;
  double prev = dds.tick();
  for (int i = 1; i < ticks; ++i) {
    const double v = dds.tick();
    if (prev < 0.0 && v >= 0.0) ++crossings;
    prev = v;
  }
  return crossings;
}

TEST(DdsTest, FrequencyAccuracy) {
  Dds dds(kSampleClock, 800.0e3, 1.0);
  // 10 ms at 250 MHz = 2.5e6 ticks -> expect 8000 periods.
  const int crossings = count_crossings(dds, 2'500'000);
  EXPECT_NEAR(crossings, 8000, 1);
}

TEST(DdsTest, AmplitudeBound) {
  Dds dds(kSampleClock, 3.2e6, 0.8);
  double max_v = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    max_v = std::max(max_v, std::abs(dds.tick()));
  }
  EXPECT_LE(max_v, 0.8 + 1e-9);
  EXPECT_GT(max_v, 0.79);
}

TEST(DdsTest, MatchesIdealSine) {
  const double f = 800.0e3;
  Dds dds(kSampleClock, f, 1.0);
  double worst = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double expected = std::sin(kTwoPi * f * kSampleClock.to_seconds(i));
    worst = std::max(worst, std::abs(dds.tick() - expected));
  }
  // Interpolated 14-bit LUT: error far below one 14-bit ADC LSB (1.2e-4).
  EXPECT_LT(worst, 5e-5);
}

TEST(DdsTest, PhaseOffsetShiftsWaveform) {
  Dds a(kSampleClock, 1.0e6, 1.0);
  Dds b(kSampleClock, 1.0e6, 1.0);
  b.set_phase_offset(kPi / 2.0);  // b = cos where a = sin
  for (int i = 0; i < 1000; ++i) {
    const double t = kSampleClock.to_seconds(i);
    EXPECT_NEAR(a.tick(), std::sin(kTwoPi * 1.0e6 * t), 1e-4);
    EXPECT_NEAR(b.tick(), std::cos(kTwoPi * 1.0e6 * t), 1e-4);
  }
}

TEST(DdsTest, NegativePhaseOffsetWraps) {
  Dds dds(kSampleClock, 1.0e6, 1.0);
  dds.set_phase_offset(-kPi / 2.0);
  EXPECT_NEAR(dds.current(), -1.0, 1e-4);
  EXPECT_NEAR(dds.phase_offset_rad(), -kPi / 2.0, 1e-12);
}

TEST(DdsTest, PhaseResetRestartsAtZero) {
  Dds dds(kSampleClock, 3.2e6, 1.0);
  for (int i = 0; i < 777; ++i) dds.tick();
  dds.reset_phase();
  EXPECT_NEAR(dds.current(), 0.0, 1e-6);
}

TEST(DdsTest, HarmonicRelationship) {
  // Gap DDS at h·f_ref stays phase-locked to the reference DDS: at every
  // reference positive zero crossing the gap phase is a multiple of 2π.
  Dds ref(kSampleClock, 800.0e3, 1.0);
  Dds gap(kSampleClock, 3.2e6, 1.0);
  double prev = ref.tick();
  gap.tick();
  int checked = 0;
  for (int i = 1; i < 1'000'000 && checked < 50; ++i) {
    const double r = ref.tick();
    const double g = gap.current();
    gap.tick();
    if (prev < 0.0 && r >= 0.0) {
      // Crossing within one sample: gap ≈ sin(small) ≈ small.
      EXPECT_NEAR(g, 0.0, 0.11);  // 4x frequency -> up to sin(4·2π/312)
      ++checked;
    }
    prev = r;
  }
  EXPECT_EQ(checked, 50);
}

TEST(DdsTest, RejectsNyquistViolation) {
  EXPECT_THROW(Dds(kSampleClock, 130.0e6, 1.0), std::logic_error);
  EXPECT_THROW(Dds(kSampleClock, -1.0, 1.0), std::logic_error);
}

TEST(DdsTest, SubMilliHzTuningResolution) {
  // 48-bit accumulator at 250 MHz: resolution = 250e6/2^48 ≈ 0.9 µHz, so a
  // 0.1 mHz retune changes the tuning word by ~113 counts and the phase
  // visibly diverges within a few ms of signal.
  Dds a(kSampleClock, 800.0e3, 1.0);
  Dds b(kSampleClock, 800.0e3 + 1e-4, 1.0);
  bool diverged = false;
  for (int i = 0; i < 2'000'000 && !diverged; ++i) {
    diverged = std::abs(a.tick() - b.tick()) > 1e-6;
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace citl::sig
