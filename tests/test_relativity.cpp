// Relativistic kinematics (paper eq. (1)) and species/ring data.
#include <gtest/gtest.h>

#include "phys/ion.hpp"
#include "phys/machine.hpp"
#include "phys/relativity.hpp"

namespace citl::phys {
namespace {

TEST(Relativity, BetaGammaRoundTrip) {
  for (double beta : {0.01, 0.1, 0.5783, 0.9, 0.999}) {
    const double gamma = gamma_from_beta(beta);
    EXPECT_NEAR(beta_from_gamma(gamma), beta, 1e-12);
    EXPECT_GE(gamma, 1.0);
  }
}

TEST(Relativity, GammaOneIsAtRest) {
  EXPECT_DOUBLE_EQ(beta_from_gamma(1.0), 0.0);
  EXPECT_DOUBLE_EQ(kinetic_energy_ev(1.0, 1e9), 0.0);
}

TEST(Relativity, UnphysicalInputsThrow) {
  EXPECT_THROW((void)beta_from_gamma(0.5), std::logic_error);
  EXPECT_THROW((void)gamma_from_beta(1.0), std::logic_error);
  EXPECT_THROW((void)gamma_from_beta(-0.1), std::logic_error);
}

TEST(Relativity, MomentumConsistency) {
  const double mc2 = 13.04e9;
  for (double gamma : {1.01, 1.2258, 2.0, 10.0}) {
    const double p = momentum_ev(gamma, mc2);
    EXPECT_NEAR(gamma_from_momentum(p, mc2), gamma, 1e-9 * gamma);
    // E^2 = (pc)^2 + (mc^2)^2
    const double e = total_energy_ev(gamma, mc2);
    EXPECT_NEAR(e * e, p * p + mc2 * mc2, 1e-3 * e * e);
  }
}

TEST(Relativity, RevolutionFrequencyRoundTrip) {
  const double orbit = 216.72;
  for (double f : {100.0e3, 800.0e3, 1.3e6}) {
    const double gamma = gamma_from_revolution_frequency(f, orbit);
    EXPECT_NEAR(revolution_frequency_hz(gamma, orbit), f, 1e-6 * f);
    EXPECT_NEAR(revolution_time_s(gamma, orbit), 1.0 / f, 1e-12);
  }
}

TEST(Relativity, PaperWorkingPointNumbers) {
  // DESIGN.md §6: at f_R = 800 kHz on SIS18, beta ≈ 0.57831, gamma ≈ 1.22578.
  const double gamma = gamma_from_revolution_frequency(800.0e3, 216.72);
  EXPECT_NEAR(beta_from_gamma(gamma), 0.57831, 2e-5);
  EXPECT_NEAR(gamma, 1.22578, 2e-5);
}

TEST(Relativity, Sis18MaxRevolutionFrequencyIsTheLightLimit) {
  // §I: SIS18 bunches circulate at up to f_R ≈ 1.4 MHz (T_R ≈ 0.7 µs) —
  // that is the ultrarelativistic limit c/l_R ≈ 1.383 MHz of the ring.
  const double f_limit = kSpeedOfLight / 216.72;
  EXPECT_NEAR(f_limit, 1.383e6, 0.002e6);
  EXPECT_NEAR(1.0 / f_limit, 0.72e-6, 0.01e-6);
  // Just below the limit everything stays physical.
  const double gamma = gamma_from_revolution_frequency(1.35e6, 216.72);
  EXPECT_GT(gamma, 1.0);
  EXPECT_LT(beta_from_gamma(gamma), 1.0);
}

TEST(Relativity, DpOverPFirstOrderRelation) {
  // dp/p = dγ/(β²γ): check against finite differences of the exact p(γ).
  const double mc2 = 13.04e9;
  const double gamma = 1.3;
  const double beta = beta_from_gamma(gamma);
  const double dg = 1e-7;
  const double p0 = momentum_ev(gamma, mc2);
  const double p1 = momentum_ev(gamma + dg, mc2);
  const double exact = (p1 - p0) / p0;
  const double approx = dp_over_p(dg / gamma, beta);
  EXPECT_NEAR(approx, exact, 1e-6 * std::abs(exact));
}

TEST(Ion, N14ChargeAndMass) {
  const Ion n14 = ion_n14_7plus();
  EXPECT_EQ(n14.charge_number, 7);
  // 14.003 u ≈ 13.04 GeV, minus 7 electron masses.
  EXPECT_NEAR(n14.mass_ev, 13.04e9, 0.01e9);
  const double expected_mass =
      14.0030740048 * kAtomicMassUnitEv - 7.0 * kElectronMassEv;
  EXPECT_DOUBLE_EQ(n14.charge_over_mc2(), 7.0 / expected_mass);
}

TEST(Ion, SpeciesTableSanity) {
  EXPECT_GT(ion_u238_28plus().mass_ev, ion_ar40_18plus().mass_ev);
  EXPECT_GT(ion_ar40_18plus().mass_ev, ion_n14_7plus().mass_ev);
  EXPECT_NEAR(ion_proton().mass_ev, 938.272e6, 1e3);
}

TEST(Ring, Sis18Parameters) {
  const Ring r = sis18(4);
  EXPECT_DOUBLE_EQ(r.circumference_m, 216.72);
  EXPECT_EQ(r.harmonic, 4);
  EXPECT_NEAR(r.gamma_transition(), 5.45, 1e-9);
}

TEST(Ring, PhaseSlipSignFlipsAtTransition) {
  const Ring r = sis18();
  const double gt = r.gamma_transition();
  EXPECT_LT(r.phase_slip(gt * 0.5), 0.0);   // below transition
  EXPECT_GT(r.phase_slip(gt * 2.0), 0.0);   // above transition
  EXPECT_NEAR(r.phase_slip(gt), 0.0, 1e-12);
}

TEST(Ring, PaperEtaValue) {
  // DESIGN.md §6: eta ≈ −0.63138 at the Fig. 5 working point.
  const Ring r = sis18(4);
  const double gamma = gamma_from_revolution_frequency(800.0e3, r.circumference_m);
  EXPECT_NEAR(r.phase_slip(gamma), -0.6319, 5e-4);
}

}  // namespace
}  // namespace citl::phys
