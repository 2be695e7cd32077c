// Offline beam-dynamics study (the §II "ESME / Long1D / BLonD" workflow):
// configure a machine cycle, track tens of thousands of macro particles,
// snapshot diagnostics, and export CSV — then contrast its wall-clock cost
// with the real-time HIL budget the paper's CGRA approach exists to meet.
//
// Usage: offline_study [particles] [duration_ms] [h2_ratio] [--csv out.csv]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "io/asciiplot.hpp"
#include "io/table.hpp"
#include "offline/longsim.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  offline::LongSimConfig cfg;
  cfg.n_particles = 20'000;
  cfg.duration_s = 50.0e-3;
  cfg.snapshot_every_s = 2.0e-3;
  std::string csv_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (positional == 0) {
      cfg.n_particles = static_cast<std::size_t>(std::atoll(argv[i]));
      ++positional;
    } else if (positional == 1) {
      cfg.duration_s = std::atof(argv[i]) * 1e-3;
      ++positional;
    } else {
      cfg.h2_ratio = std::atof(argv[i]);
    }
  }

  std::printf("offline study: %zu particles, %.1f ms, dual-harmonic ratio "
              "%.2f (%s)\n",
              cfg.n_particles, cfg.duration_s * 1e3, cfg.h2_ratio,
              cfg.h2_ratio == 0.0 ? "single harmonic"
                                  : "bunch-lengthening mode");

  offline::LongSim sim(cfg);
  const offline::LongSimResult r = sim.run();

  io::Table t({"t [ms]", "f_R [kHz]", "rms Δt [ns]", "rms Δγ", "emittance"});
  std::vector<double> ts, rms;
  for (const auto& s : r.snapshots) {
    t.add_row({io::Table::num(s.time_s * 1e3),
               io::Table::num(s.f_rev_hz / 1e3, 5),
               io::Table::num(s.rms_dt_s * 1e9),
               io::Table::num(s.rms_dgamma),
               io::Table::num(s.emittance)});
    ts.push_back(s.time_s * 1e3);
    rms.push_back(s.rms_dt_s * 1e9);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n",
              io::ascii_plot(ts, rms,
                             {.width = 100,
                              .height = 14,
                              .title = "bunch length rms [ns] over the cycle",
                              .y_label = {},
                              .x_label = "t [ms]"})
                  .c_str());

  std::printf("tracked %lld turns in %.2f s wall time: %.1fx slower than "
              "real time\n(the §II observation that motivates the "
              "CGRA-based real-time model)\n",
              static_cast<long long>(r.turns_tracked), r.wall_seconds,
              r.slowdown(cfg.duration_s));

  if (!csv_path.empty()) {
    offline::LongSim::export_csv(csv_path, r);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}
