// Analytic longitudinal-dynamics results (working point, f_s, bucket).
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "core/units.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::phys {
namespace {

struct Fixture {
  Ion ion = ion_n14_7plus();
  Ring ring = sis18(4);
  double gamma = gamma_from_revolution_frequency(800.0e3, 216.72);
};

TEST(WorkingPointTest, InternallyConsistent) {
  const Fixture f;
  const WorkingPoint wp = working_point(f.ion, f.ring, f.gamma, 4860.0);
  EXPECT_NEAR(wp.beta, beta_from_gamma(f.gamma), 1e-15);
  EXPECT_NEAR(wp.revolution_frequency_hz, 800.0e3, 1.0);
  EXPECT_NEAR(wp.rf_omega_rad_s, kTwoPi * 4 * 800.0e3, 10.0);
  EXPECT_LT(wp.eta, 0.0);
  EXPECT_LT(wp.drift_per_dgamma_s, 0.0);  // below transition
  EXPECT_GT(wp.kick_slope_per_s, 0.0);    // positive-slope crossing
}

TEST(SynchrotronFrequency, PaperValueAtPaperAmplitude) {
  // DESIGN.md §6: Q·V̂ ≈ 34 keV gives f_s = 1.28 kHz → V̂ ≈ 4.86 kV.
  const Fixture f;
  const double vhat =
      amplitude_for_synchrotron_frequency(f.ion, f.ring, f.gamma, 1280.0);
  EXPECT_NEAR(vhat, 4860.0, 50.0);
  EXPECT_NEAR(synchrotron_frequency_hz(f.ion, f.ring, f.gamma, vhat), 1280.0,
              1e-6);
}

TEST(SynchrotronFrequency, SqrtVoltageScaling) {
  const Fixture f;
  const double f1 = synchrotron_frequency_hz(f.ion, f.ring, f.gamma, 2000.0);
  const double f4 = synchrotron_frequency_hz(f.ion, f.ring, f.gamma, 8000.0);
  EXPECT_NEAR(f4 / f1, 2.0, 1e-9);
}

TEST(SynchrotronFrequency, ScalesWithSqrtHarmonic) {
  const Fixture f;
  const double fh2 =
      synchrotron_frequency_hz(f.ion, sis18(2), f.gamma, 5000.0);
  const double fh8 =
      synchrotron_frequency_hz(f.ion, sis18(8), f.gamma, 5000.0);
  EXPECT_NEAR(fh8 / fh2, 2.0, 1e-9);
}

TEST(SynchrotronFrequency, UnstablePhaseThrows) {
  // Below transition, φ_s = π (negative-slope crossing) is unstable.
  const Fixture f;
  EXPECT_THROW(
      (void)synchrotron_frequency_hz(f.ion, f.ring, f.gamma, 5000.0, kPi),
      ConfigError);
}

TEST(SynchrotronFrequency, AboveTransitionStabilityFlips) {
  const Fixture f;
  const double gamma_above = f.ring.gamma_transition() * 1.5;
  // φ_s = 0 is unstable above transition...
  EXPECT_THROW(
      (void)synchrotron_frequency_hz(f.ion, f.ring, gamma_above, 5000.0, 0.0),
      ConfigError);
  // ...while φ_s = π is stable.
  EXPECT_GT(synchrotron_frequency_hz(f.ion, f.ring, gamma_above, 5000.0, kPi),
            0.0);
}

TEST(SynchrotronTune, MuchSmallerThanOne) {
  // Q_s = f_s/f_R ≈ 1.6e-3 at the paper's working point — the separation of
  // time scales that makes the 2-particle model work.
  const Fixture f;
  const double qs = synchrotron_tune(f.ion, f.ring, f.gamma, 4860.0);
  EXPECT_NEAR(qs, 1.28e3 / 800.0e3, 1e-5);
}

TEST(Separatrix, MaxAtCenterZeroAtEdge) {
  const Fixture f;
  const double center = separatrix_dgamma(f.ion, f.ring, f.gamma, 4860.0, 0.0);
  const double mid = separatrix_dgamma(f.ion, f.ring, f.gamma, 4860.0, kPi / 2);
  const double edge = separatrix_dgamma(f.ion, f.ring, f.gamma, 4860.0, kPi);
  EXPECT_GT(center, mid);
  EXPECT_GT(mid, 0.0);
  EXPECT_NEAR(edge, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(center,
                   bucket_half_height_dgamma(f.ion, f.ring, f.gamma, 4860.0));
}

TEST(Separatrix, StandardBucketHeightFormula) {
  // Δγ_max = β·sqrt(2·Q·V̂·γ/(π·h·|η|·mc²)).
  const Fixture f;
  const double vhat = 4860.0;
  const double beta = beta_from_gamma(f.gamma);
  const double eta = std::abs(f.ring.phase_slip(f.gamma));
  const double expected =
      beta * std::sqrt(2.0 * f.ion.charge_over_mc2() * vhat * f.gamma /
                       (kPi * f.ring.harmonic * eta));
  EXPECT_NEAR(bucket_half_height_dgamma(f.ion, f.ring, f.gamma, vhat),
              expected, 1e-9 * expected);
}

TEST(Separatrix, GrowsWithVoltage) {
  const Fixture f;
  EXPECT_GT(bucket_half_height_dgamma(f.ion, f.ring, f.gamma, 8000.0),
            bucket_half_height_dgamma(f.ion, f.ring, f.gamma, 2000.0));
}

TEST(MatchedRatio, ConsistentWithFrequency) {
  // On the matched ellipse σ_dt/σ_dγ = |d|/mu with mu = 2π·Q_s.
  const Fixture f;
  const double vhat = 4860.0;
  const WorkingPoint wp = working_point(f.ion, f.ring, f.gamma, vhat);
  const double qs = synchrotron_tune(f.ion, f.ring, f.gamma, vhat);
  const double expected = std::abs(wp.drift_per_dgamma_s) / (kTwoPi * qs);
  EXPECT_NEAR(matched_dt_per_dgamma_s(f.ion, f.ring, f.gamma, vhat), expected,
              1e-9 * expected);
}

// Parameterised: amplitude finder inverts the frequency for many targets.
class AmplitudeInversion : public ::testing::TestWithParam<double> {};

TEST_P(AmplitudeInversion, RoundTrips) {
  const Fixture f;
  const double target = GetParam();
  const double vhat =
      amplitude_for_synchrotron_frequency(f.ion, f.ring, f.gamma, target);
  EXPECT_NEAR(synchrotron_frequency_hz(f.ion, f.ring, f.gamma, vhat), target,
              1e-9 * target);
}

INSTANTIATE_TEST_SUITE_P(FrequencyTargets, AmplitudeInversion,
                         ::testing::Values(200.0, 800.0, 1200.0, 1280.0,
                                           2000.0, 5000.0));

}  // namespace
}  // namespace citl::phys
