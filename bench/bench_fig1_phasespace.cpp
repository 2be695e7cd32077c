// F1 — Fig. 1: forces on a bunch / the longitudinal phase-space picture.
//
// The paper's Fig. 1 shows the gap voltage acting on early/late particles.
// We regenerate the underlying structure: the RF bucket in (Δt, Δγ) space —
// separatrix plus tracked trajectories at several amplitudes — at the §V
// working point. Printed as an ASCII phase portrait and a force table.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/units.hpp"
#include "io/asciiplot.hpp"
#include "io/table.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "phys/tracker.hpp"

using namespace citl;

namespace {

constexpr double kFRef = 800.0e3;
constexpr double kVhat = 4860.0;

void print_figure() {
  const phys::Ion ion = phys::ion_n14_7plus();
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(kFRef, ring.circumference_m);
  const phys::WorkingPoint wp = phys::working_point(ion, ring, gamma, kVhat);

  std::printf("F1 / Fig. 1 — longitudinal phase space, %s at f_R = %.0f kHz, "
              "V̂ = %.2f kV, h = %d\n\n",
              ion.name.c_str(), kFRef / 1e3, kVhat / 1e3, ring.harmonic);

  // The force picture: voltage seen by early/reference/late particles.
  io::Table force({"particle", "Δt [ns]", "V(Δt) [V]", "effect"});
  const double bucket_half_s = 0.5 / (kFRef * ring.harmonic);
  for (double frac : {-0.25, 0.0, 0.25}) {
    const double dt = frac * 2.0 * bucket_half_s;
    const double v = kVhat * std::sin(wp.rf_omega_rad_s * dt);
    force.add_row({frac < 0   ? "early (Δt<0)"
                   : frac > 0 ? "late (Δt>0)"
                              : "reference",
                   io::Table::num(dt * 1e9),
                   io::Table::num(v),
                   v > 1.0    ? "accelerated"
                   : v < -1.0 ? "decelerated"
                              : "unchanged"});
  }
  std::printf("%s\n", force.render().c_str());

  // Separatrix + librating trajectories.
  std::vector<double> xs, ys;
  for (double dphi = -kPi; dphi <= kPi; dphi += 0.02) {
    const double dg = phys::separatrix_dgamma(ion, ring, gamma, kVhat, dphi);
    const double dt_ns = dphi / wp.rf_omega_rad_s * 1e9;
    xs.push_back(dt_ns);
    ys.push_back(dg);
    xs.push_back(dt_ns);
    ys.push_back(-dg);
  }
  for (double amp_frac : {0.3, 0.6, 0.9}) {
    phys::TwoParticleTracker t(ion, ring, gamma);
    t.displace(amp_frac *
                   phys::bucket_half_height_dgamma(ion, ring, gamma, kVhat),
               0.0);
    const int turns = static_cast<int>(1.1 * kFRef / 1280.0);
    for (int i = 0; i < turns; ++i) {
      t.step_with_waveform([&](double dt) {
        return kVhat * std::sin(wp.rf_omega_rad_s * dt);
      });
      if (i % 7 == 0) {
        xs.push_back(t.dt_s() * 1e9);
        ys.push_back(t.dgamma());
      }
    }
  }
  std::printf("%s\n",
              io::ascii_plot(xs, ys,
                             {.width = 110,
                              .height = 26,
                              .title = "separatrix + librating trajectories "
                                       "(x: Δt [ns], y: Δγ)",
                              .y_label = {},
                              .x_label = "Δt [ns]"})
                  .c_str());
  std::printf("bucket half height Δγ_max = %.4e, bucket half length = %.1f ns\n\n",
              phys::bucket_half_height_dgamma(ion, ring, gamma, kVhat),
              bucket_half_s * 1e9);
}

void BM_TrackerStep(benchmark::State& state) {
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(kFRef, ring.circumference_m);
  phys::TwoParticleTracker t(phys::ion_n14_7plus(), ring, gamma);
  t.displace(0.0, 5.0e-9);
  const phys::WorkingPoint wp =
      phys::working_point(t.ion(), ring, gamma, kVhat);
  for (auto _ : state) {
    t.step_with_waveform([&](double dt) {
      return kVhat * std::sin(wp.rf_omega_rad_s * dt);
    });
    benchmark::DoNotOptimize(t.dt_s());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackerStep);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
