// X-ens — the paper's outlook (§VI): replacing the single macro particle
// with a set of macro particles enables quadrupole-mode studies and shows
// the Landau damping / filamentation the §V discussion mentions.
//
// Three studies:
//   1. dipole decoherence: centroid envelope vs time for several bunch
//      widths — the effect the 1-particle HIL model cannot show,
//   2. quadrupole (breathing) mode of a mismatched bunch at ≈ 2·f_s,
//   3. pickup realism: the binned bunch profile a pickup would see, with a
//      Gaussian fit (what the "parametric Gauss pulse" of §VI would use).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/parallel.hpp"
#include "core/units.hpp"
#include "hil/experiment.hpp"
#include "io/asciiplot.hpp"
#include "io/table.hpp"
#include "phys/ensemble.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

using namespace citl;

namespace {

phys::EnsembleConfig base_config(std::size_t n) {
  phys::EnsembleConfig c;
  c.ion = phys::ion_n14_7plus();
  c.ring = phys::sis18(4);
  c.initial_gamma_r =
      phys::gamma_from_revolution_frequency(800.0e3, c.ring.circumference_m);
  c.n_particles = n;
  c.seed = 7;
  return c;
}

constexpr double kVhat = 4860.0;

phys::SineWaveform gap_wave(const phys::EnsembleConfig& c) {
  return phys::SineWaveform{
      kVhat,
      kTwoPi * c.ring.harmonic *
          phys::revolution_frequency_hz(c.initial_gamma_r,
                                        c.ring.circumference_m),
      0.0};
}

void decoherence_study() {
  std::printf("X-ens study 1 — dipole decoherence vs bunch width "
              "(20k macro particles, 12 ns kick)\n\n");
  io::Table t({"sigma_dt [ns]", "envelope @10 periods", "@20", "@40",
               "rms growth"});
  for (double sigma_ns : {5.0, 15.0, 25.0}) {
    auto cfg = base_config(20'000);
    phys::EnsembleTracker e(cfg);
    const double ratio = phys::matched_dt_per_dgamma_s(
        cfg.ion, cfg.ring, cfg.initial_gamma_r, kVhat);
    e.populate_gaussian(sigma_ns * 1e-9 / ratio, sigma_ns * 1e-9);
    const double rms0 = e.rms_dt_s();
    e.displace(0.0, 12.0e-9);
    const auto gap = gap_wave(cfg);
    const int period_turns = static_cast<int>(800.0e3 / 1280.0);
    auto envelope = [&](int periods) {
      double amp = 0.0;
      for (int i = 0; i < periods * period_turns; ++i) {
        e.step(gap);
        amp = std::max(amp, std::abs(e.centroid_dt_s()));
      }
      return amp / 12.0e-9;
    };
    const double e10 = envelope(10);
    const double e20 = envelope(10);
    for (int skip = 0; skip < 20; ++skip) envelope(1);
    const double e40 = envelope(2);
    t.add_row({io::Table::num(sigma_ns), io::Table::num(e10),
               io::Table::num(e20), io::Table::num(e40),
               io::Table::num(e.rms_dt_s() / rms0)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("(wider bunches decohere faster — the frequency-spread physics "
              "the single macro particle cannot reproduce)\n\n");
}

void quadrupole_study() {
  std::printf("X-ens study 2 — quadrupole (breathing) mode of a mismatched "
              "bunch\n\n");
  auto cfg = base_config(10'000);
  phys::EnsembleTracker e(cfg);
  const double ratio = phys::matched_dt_per_dgamma_s(
      cfg.ion, cfg.ring, cfg.initial_gamma_r, kVhat);
  e.populate_gaussian(2.0e-5, 2.0 * 2.0e-5 * ratio);  // 2x mismatched
  const auto gap = gap_wave(cfg);
  std::vector<double> ts, rms;
  const double t_rev = 1.0 / 800.0e3;
  for (int i = 0; i < 4000; ++i) {
    e.step(gap);
    if (i % 4 == 0) {
      ts.push_back(i * t_rev * 1e3);
      rms.push_back(e.rms_dt_s() * 1e9);
    }
  }
  std::printf("%s\n",
              io::ascii_plot(ts, rms,
                             {.width = 100,
                              .height = 14,
                              .title = "bunch length rms [ns] vs time [ms] — "
                                       "breathing at ≈ 2·f_s",
                              .y_label = {},
                              .x_label = "t [ms]"})
                  .c_str());
  const double f_breath =
      hil::estimate_oscillation_frequency_hz(ts, rms, 0.0, 4.5);
  std::printf("breathing frequency: %.0f Hz (2·f_s = %.0f Hz)\n\n",
              f_breath * 1e3, 2.0 * 1280.0);
}

void profile_study() {
  std::printf("X-ens study 3 — pickup profile of a matched bunch + Gaussian "
              "fit (the §VI parametric-pulse input)\n\n");
  auto cfg = base_config(50'000);
  phys::EnsembleTracker e(cfg);
  e.populate_matched(2.0e-5, kVhat);
  e.run(gap_wave(cfg), 2000);
  const auto profile = e.profile(-30.0e-9, 30.0e-9, 60);
  const auto fit = phys::fit_gaussian(profile);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < profile.counts.size(); ++i) {
    xs.push_back(profile.bin_center_s(i) * 1e9);
    ys.push_back(profile.counts[i]);
  }
  std::printf("%s\n",
              io::ascii_plot(xs, ys,
                             {.width = 100,
                              .height = 12,
                              .title = "bunch profile (counts per bin)",
                              .y_label = {},
                              .x_label = "Δt [ns]"})
                  .c_str());
  std::printf("Gaussian fit: mean = %.2f ns, sigma = %.2f ns, rms(dt) = "
              "%.2f ns\n\n",
              fit.mean_s * 1e9, fit.sigma_s * 1e9, e.rms_dt_s() * 1e9);
}

void BM_EnsembleTurn(benchmark::State& state) {
  auto cfg = base_config(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool;
  phys::EnsembleTracker e(cfg, state.range(1) != 0 ? &pool : nullptr);
  e.populate_matched(2.0e-5, kVhat);
  const auto gap = gap_wave(cfg);
  for (auto _ : state) {
    e.step(gap);
    benchmark::DoNotOptimize(e.dt().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::to_string(state.range(0)) + " particles, " +
                 (state.range(1) != 0 ? "pooled" : "serial"));
}
BENCHMARK(BM_EnsembleTurn)
    ->Args({1'000, 0})
    ->Args({10'000, 0})
    ->Args({100'000, 0})
    ->Args({100'000, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  decoherence_study();
  quadrupole_study();
  profile_study();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
