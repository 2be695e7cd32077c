// Parameter sweep around the paper's operating point: gap-jump amplitude x
// controller gain, centred on the §V experiment (8 deg jumps, gain = -5).
// Every scenario runs the full sample-accurate HIL framework; the sweep
// engine shares one compiled CGRA kernel across all of them and the result
// is bit-identical for any thread count (see docs/TESTING.md).
//
// Usage: parameter_sweep [duration_ms] [threads]
//                        [--csv out.csv] [--json out.json] [--reference]
//                        [--quick] [--batch N]
//                        [--trace out.json] [--metrics out.json]
//                        [--prom out.prom] [--serve PORT] [--linger SEC]
//                        [--blackbox out.json]
//
// `--quick` shrinks the grid to 2x2 (4 scenarios) for CI smoke runs.
// `--batch N` runs the scenarios as lockstep chunks of N lanes instead of
// one lane each; the reports are byte-identical at any N (pinned by the
// BatchSweep tests).
// `--trace` enables the event tracer and writes a Chrome trace-event file
// (open in Perfetto or chrome://tracing). `--metrics` enables the metrics
// registry and writes its JSON snapshot after the sweep.
// `--prom` enables the registry and writes the Prometheus text exposition
// to a file after the sweep. `--serve PORT` additionally serves it live on
// http://127.0.0.1:PORT/metrics for the duration of the run (PORT 0 picks
// an ephemeral port, printed on stdout); `--linger SEC` keeps the process
// (and the endpoint) alive that many seconds after the sweep finishes so an
// external scraper can collect the final state — the CI smoke job curls the
// endpoint inside that window. `--blackbox` enables the flight recorder and
// dumps its citl-blackbox-v1 ring to the given path after the sweep.
// None of these flags change the sweep results: the CSV/JSON metric reports
// stay byte-identical with observability on or off (pinned by ObsSweep
// tests).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/units.hpp"
#include "hil/framework.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  double duration_ms = 8.0;
  unsigned threads = 0;  // hardware_concurrency
  std::size_t batch_lanes = 0;
  std::string csv_path, json_path, trace_path, metrics_path;
  std::string prom_path, blackbox_path;
  bool serve = false;
  int serve_port = 0;
  double linger_s = 0.0;
  bool with_reference = false;
  bool quick = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_lanes = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve = true;
      serve_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--blackbox") == 0 && i + 1 < argc) {
      blackbox_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reference") == 0) {
      with_reference = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (positional == 0) {
      duration_ms = std::atof(argv[i]);
      ++positional;
    } else {
      threads = static_cast<unsigned>(std::atoi(argv[i]));
    }
  }

  const hil::FrameworkConfig base = examples::base_framework_config();

  if (!trace_path.empty()) obs::Tracer::global().set_enabled(true);
  if (!metrics_path.empty() || !prom_path.empty() || serve) {
    obs::Registry::global().set_enabled(true);
  }
  if (!blackbox_path.empty()) {
    obs::FlightRecorder::global().set_enabled(true);
    obs::FlightRecorder::global().set_dump_path(blackbox_path);
  }

  // The scrape endpoint comes up before the sweep so a Prometheus server
  // (or the CI smoke job's curl loop) can watch the counters move live.
  obs::ScrapeServer scrape_server;
  if (serve) {
    scrape_server.start(static_cast<std::uint16_t>(serve_port));
    std::printf("serving /metrics on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(scrape_server.port()));
    std::fflush(stdout);
  }

  // The grid: the paper's point (8 deg, -5) sits at the centre. `--quick`
  // keeps a 2x2 corner of it — enough to exercise the sweep engine, the
  // kernel cache and the instrumentation in a CI smoke run.
  const std::vector<double> jumps_deg =
      quick ? std::vector<double>{6.0, 8.0}
            : std::vector<double>{4.0, 6.0, 8.0, 10.0, 12.0};
  const std::vector<double> gains =
      quick ? std::vector<double>{-3.0, -5.0}
            : std::vector<double>{-1.0, -3.0, -5.0, -7.0, -9.0};

  sweep::SweepConfig config;
  config.threads = threads;
  config.batch_lanes = batch_lanes;
  config.scenarios = sweep::ScenarioGridBuilder::sample_accurate(base)
                         .jump_amplitudes_deg(jumps_deg)
                         .gains(gains)
                         .jump_timing(1.0, 1.0e-3)
                         .duration_s(duration_ms * 1e-3)
                         .ensemble_reference(with_reference)
                         .build();

  std::printf("sweeping %zu scenarios (%.1f ms each), jump amplitude x "
              "controller gain around the paper's 8 deg / -5 point...\n",
              config.scenarios.size(), duration_ms);
  const sweep::SweepResult r = sweep::run_sweep(config);
  std::printf("done: %u threads, %.2f s wall, %zu distinct kernel(s), "
              "%zu compilation(s), %zu lockstep chunk(s)\n\n",
              r.threads_used, r.wall_time_s, r.distinct_kernels,
              r.kernel_compilations, r.batch_chunks);

  io::Table t({"scenario", "f_s meas [Hz]", "tau [ms]", "first p2p [deg]",
               "steady RMS [deg]", "rt viol"});
  for (const auto& s : r.scenarios) {
    t.add_row({s.name, io::Table::num(s.metrics.f_sync_measured_hz, 5),
               io::Table::num(s.metrics.damping_tau_s * 1e3, 3),
               io::Table::num(rad_to_deg(s.metrics.first_swing_rad), 3),
               io::Table::num(rad_to_deg(s.metrics.steady_rms_rad), 3),
               io::Table::num(static_cast<double>(
                   s.metrics.realtime_violations), 1)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\n(gain -5 damps in ~2.1 ms at 8 deg; weaker gain -> longer "
              "tau, stronger gain -> faster but noisier settling)\n");

  if (!csv_path.empty()) {
    sweep::write_metrics_csv(csv_path, r);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    sweep::write_metrics_json(json_path, r);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    obs::Tracer::global().write_json(trace_path);
    std::printf("wrote %s (%zu trace events — open in Perfetto or "
                "chrome://tracing)\n",
                trace_path.c_str(), obs::Tracer::global().event_count());
  }
  if (!metrics_path.empty()) {
    io::write_text_file(metrics_path, obs::Registry::global().json() + "\n");
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (!prom_path.empty()) {
    io::write_text_file(prom_path,
                        obs::prometheus_text(obs::Registry::global()));
    std::printf("wrote %s\n", prom_path.c_str());
  }
  if (!blackbox_path.empty()) {
    obs::FlightRecorder::global().dump_to_file("requested");
    std::printf("wrote %s (%zu flight-recorder events, %llu dropped)\n",
                blackbox_path.c_str(),
                obs::FlightRecorder::global().event_count(),
                static_cast<unsigned long long>(
                    obs::FlightRecorder::global().dropped()));
  }
  if (serve && linger_s > 0.0) {
    std::printf("lingering %.1f s for external scrapers...\n", linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(linger_s * 1e3)));
  }
  if (serve) scrape_server.stop();
  return 0;
}
