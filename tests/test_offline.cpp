// Offline simulator (LongSim) and multi-harmonic RF physics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/units.hpp"
#include "offline/longsim.hpp"
#include "phys/multiharmonic.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl {
namespace {

using phys::MultiHarmonicWaveform;

const phys::Ion kIon = phys::ion_n14_7plus();
const phys::Ring kRing = phys::sis18(4);
const double kGamma =
    phys::gamma_from_revolution_frequency(800.0e3, kRing.circumference_m);
const double kOmega = kTwoPi * 4 * 800.0e3;

TEST(MultiHarmonic, SingleComponentMatchesSine) {
  const MultiHarmonicWaveform w(kOmega, {{1, 4860.0, 0.0}});
  for (double dt = -1.0e-7; dt <= 1.0e-7; dt += 1.3e-8) {
    EXPECT_NEAR(w(dt), 4860.0 * std::sin(kOmega * dt), 1e-9);
  }
}

TEST(MultiHarmonic, SlopeIsDerivative) {
  const MultiHarmonicWaveform w =
      MultiHarmonicWaveform::dual(kOmega, 4860.0, 0.3);
  const double h = 1e-11;
  for (double dt : {-3.0e-8, 0.0, 2.0e-8}) {
    const double numeric = (w(dt + h) - w(dt - h)) / (2.0 * h);
    // The slope is ~1e11 V/s; the symmetric difference at h = 10 ps carries
    // a cancellation error of a few tens of V/s.
    EXPECT_NEAR(w.slope_at(dt), numeric, 1e-3 * std::abs(numeric) + 100.0);
  }
}

TEST(MultiHarmonic, BlfModeFlattensTheBucketCentre) {
  // Bunch-lengthening mode (ratio 0.5, counterphase): the slope at the
  // stable point drops to (1 - 2·0.5) = 0 of the single-harmonic value.
  const MultiHarmonicWaveform single(kOmega, {{1, 4860.0, 0.0}});
  const MultiHarmonicWaveform blf =
      MultiHarmonicWaveform::dual(kOmega, 4860.0, 0.4);
  EXPECT_NEAR(blf.slope_at(0.0) / single.slope_at(0.0), 1.0 - 2.0 * 0.4,
              1e-9);
}

TEST(MultiHarmonic, SynchrotronFrequencyDropsInBlfMode) {
  const MultiHarmonicWaveform single(kOmega, {{1, 4860.0, 0.0}});
  const MultiHarmonicWaveform blf =
      MultiHarmonicWaveform::dual(kOmega, 4860.0, 0.4);
  const double fs1 = phys::synchrotron_frequency_hz(kIon, kRing, kGamma, single);
  const double fs2 = phys::synchrotron_frequency_hz(kIon, kRing, kGamma, blf);
  EXPECT_NEAR(fs1, 1280.0, 2.0);
  EXPECT_NEAR(fs2 / fs1, std::sqrt(1.0 - 0.8), 1e-3);
}

TEST(MultiHarmonic, FullBlfCancellationIsDefocusing) {
  // ratio 0.5 cancels the slope entirely: no linear focusing at the centre.
  const MultiHarmonicWaveform w =
      MultiHarmonicWaveform::dual(kOmega, 4860.0, 0.5);
  EXPECT_NEAR(w.slope_at(0.0), 0.0, 1e-6);
  EXPECT_THROW((void)phys::synchrotron_frequency_hz(kIon, kRing, kGamma, w),
               ConfigError);
}

TEST(MultiHarmonic, RejectsEmptyOrInvalid) {
  EXPECT_THROW(MultiHarmonicWaveform(kOmega, {}), std::logic_error);
  EXPECT_THROW(MultiHarmonicWaveform(kOmega, {{0, 1.0, 0.0}}),
               std::logic_error);
}

// --- LongSim -----------------------------------------------------------------

offline::LongSimConfig quick_sim(std::size_t particles = 3000) {
  offline::LongSimConfig cfg;
  cfg.n_particles = particles;
  cfg.duration_s = 10.0e-3;
  cfg.snapshot_every_s = 2.0e-3;
  return cfg;
}

TEST(LongSim, StationaryRunPreservesTheBunch) {
  offline::LongSim sim(quick_sim());
  const offline::LongSimResult r = sim.run();
  ASSERT_GE(r.snapshots.size(), 5u);
  const auto& first = r.snapshots.front();
  const auto& last = r.snapshots.back();
  EXPECT_NEAR(last.rms_dt_s / first.rms_dt_s, 1.0, 0.10);
  EXPECT_NEAR(last.gamma_r, first.gamma_r, 1e-12);
  EXPECT_NEAR(last.f_rev_hz, 800.0e3, 1.0);
  EXPECT_EQ(r.turns_tracked, last.turn);
  // Snapshots are time-ordered and turn counts grow.
  for (std::size_t i = 1; i < r.snapshots.size(); ++i) {
    EXPECT_GT(r.snapshots[i].time_s, r.snapshots[i - 1].time_s);
    EXPECT_GT(r.snapshots[i].turn, r.snapshots[i - 1].turn);
  }
}

TEST(LongSim, AccelerationRampRaisesEnergy) {
  offline::LongSimConfig cfg = quick_sim();
  cfg.duration_s = 20.0e-3;
  // A running bucket (φ_s = 15°) is much smaller than the stationary one:
  // inject a short bunch so it stays inside during the ramp.
  cfg.sigma_dt_s = 8.0e-9;
  cfg.programme =
      phys::RfProgramme::linear_ramp(4860.0, 9000.0, deg_to_rad(15.0), 20.0e-3);
  offline::LongSim sim(cfg);
  const auto r = sim.run();
  EXPECT_GT(r.snapshots.back().gamma_r, r.snapshots.front().gamma_r);
  EXPECT_GT(r.snapshots.back().f_rev_hz, r.snapshots.front().f_rev_hz);
  // Bunch still captured.
  EXPECT_LT(r.snapshots.back().rms_dt_s, 100.0e-9);
}

TEST(LongSim, BlfModeLengthensTheBunch) {
  // The reason dual-harmonic systems exist: same fundamental, second cavity
  // in counterphase -> flatter bucket -> the bunch relaxes to a longer one.
  offline::LongSimConfig single = quick_sim(6000);
  single.duration_s = 30.0e-3;
  offline::LongSimConfig blf = single;
  blf.h2_ratio = 0.45;
  const auto r1 = offline::LongSim(single).run();
  const auto r2 = offline::LongSim(blf).run();
  EXPECT_GT(r2.snapshots.back().rms_dt_s,
            1.15 * r1.snapshots.back().rms_dt_s);
}

TEST(LongSim, ProfilesCaptureTheBunch) {
  offline::LongSim sim(quick_sim());
  const auto r = sim.run();
  const auto& p = r.snapshots.back().profile;
  double total = 0.0;
  for (double c : p.counts) total += c;
  EXPECT_GT(total, 2500.0);  // nearly all particles inside the gate
  const auto fit = phys::fit_gaussian(p);
  EXPECT_NEAR(fit.sigma_s, r.snapshots.back().rms_dt_s,
              0.2 * r.snapshots.back().rms_dt_s);
}

TEST(LongSim, DeterministicForSeed) {
  const auto r1 = offline::LongSim(quick_sim()).run();
  const auto r2 = offline::LongSim(quick_sim()).run();
  ASSERT_EQ(r1.snapshots.size(), r2.snapshots.size());
  EXPECT_DOUBLE_EQ(r1.snapshots.back().rms_dt_s,
                   r2.snapshots.back().rms_dt_s);
  EXPECT_DOUBLE_EQ(r1.snapshots.back().centroid_dt_s,
                   r2.snapshots.back().centroid_dt_s);
}

TEST(LongSim, CsvExportRoundTrips) {
  const auto r = offline::LongSim(quick_sim(500)).run();
  const std::string path = ::testing::TempDir() + "longsim_test.csv";
  offline::LongSim::export_csv(path, r);
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header,
            "time_s,turn,gamma_r,f_rev_hz,centroid_dt_s,rms_dt_s,rms_dgamma,"
            "emittance");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(f, line)) ++rows;
  EXPECT_EQ(rows, r.snapshots.size());
  std::remove(path.c_str());
}

TEST(LongSim, SlowdownMetric) {
  offline::LongSimResult r;
  r.wall_seconds = 2.0;
  EXPECT_DOUBLE_EQ(r.slowdown(0.5), 4.0);
  EXPECT_DOUBLE_EQ(r.slowdown(0.0), 0.0);
}

}  // namespace
}  // namespace citl
