// The full §V machine development experiment, both sides of Fig. 5:
// the CGRA HIL simulator against the many-particle "real beam" reference,
// with CSV export for plotting.
//
// Usage: phase_jump_mde [duration_s] [jump_deg] [--no-control] [--csv out.csv]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hil/experiment.hpp"
#include "io/asciiplot.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  hil::MdeScenarioConfig cfg;
  cfg.duration_s = 0.12;
  cfg.ensemble_particles = 10'000;
  std::string csv_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-control") == 0) {
      cfg.control_enabled = false;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (positional == 0) {
      cfg.duration_s = std::atof(argv[i]);
      ++positional;
    } else {
      cfg.jump_deg = std::atof(argv[i]);
    }
  }

  std::printf("running MDE scenario: %.0f ms, %.0f deg jumps every %.0f ms, "
              "control %s, %zu reference macro particles...\n",
              cfg.duration_s * 1e3, cfg.jump_deg, cfg.jump_interval_s * 1e3,
              cfg.control_enabled ? "on" : "OFF", cfg.ensemble_particles);

  const hil::MdeResult r = run_mde_scenario(cfg);

  std::printf("\n%s\n",
              io::ascii_plot2(r.simulator.time_s, r.simulator.phase_deg,
                              r.reference.time_s, r.reference.phase_deg,
                              {.width = 118,
                               .height = 26,
                               .title = "Fig. 5 reproduction — simulator (*) "
                                        "vs ensemble reference (o), phase "
                                        "[deg] vs time [s]",
                               .y_label = {},
                               .x_label = "t [s]"})
                  .c_str());

  io::Table t({"metric", "simulator", "reference", "expectation"});
  t.add_row({"f_s [Hz]", io::Table::num(r.f_sync_simulator_hz, 5),
             io::Table::num(r.f_sync_reference_hz, 5),
             io::Table::num(r.f_sync_analytic_hz, 5) + " analytic"});
  t.add_row({"first p2p / jump", io::Table::num(r.first_p2p_over_jump_sim),
             io::Table::num(r.first_p2p_over_jump_ref), "2.0 (§V)"});
  t.add_row({"residual ratio", io::Table::num(r.damping_ratio_sim),
             io::Table::num(r.damping_ratio_ref),
             cfg.control_enabled ? "≈0 (damped)" : "≈1 for simulator"});
  std::printf("%s", t.render().c_str());

  if (!csv_path.empty()) {
    io::write_csv(csv_path,
                  {{"t_sim_s", r.simulator.time_s, {}},
                   {"phase_sim_deg", r.simulator.phase_deg, {}},
                   {"t_ref_s", r.reference.time_s, {}},
                   {"phase_ref_deg", r.reference.phase_deg, {}}});
    std::printf("\nwrote %s\n", csv_path.c_str());
  }
  return 0;
}
