// Flight recorder, Prometheus text exposition and per-op cycle attribution.
//
// Suites are named Recorder* / Obs* so the TSan CI job can select them with
// a gtest_filter; the concurrent-record test doubles as a data-race detector
// under -fsanitize=thread. The byte-identity suite extends the PR 2
// guarantee to the new instruments: enabling the flight recorder (or any
// exposition reader) cannot change a byte of a deterministic sweep report.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cgra/attribution.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "core/units.hpp"
#include "ctrl/jump.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

#include "json_checker.hpp"

namespace citl::obs {
namespace {

using test_support::JsonChecker;

// ---------------------------------------------------------------------------
// FlightRecorder core semantics

TEST(Recorder, StartsDisabledAndDisabledRecordIsNoOp) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.record(EventKind::kNote, 1, 0.5, 1.0, 2.0, "ignored");
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(Recorder, RecordsEventsInSequenceOrder) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.record(EventKind::kTurnSummary, 0, 0.0, 0.1, 87.0);
  rec.record(EventKind::kDeadlineMiss, 7, 8.75e-6, 91.0, 87.0);
  rec.record(EventKind::kSupervisorRecover, 9, 1.1e-5, 2.0);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].kind, EventKind::kTurnSummary);
  EXPECT_EQ(events[1].kind, EventKind::kDeadlineMiss);
  EXPECT_EQ(events[1].turn, 7);
  EXPECT_DOUBLE_EQ(events[1].a, 91.0);
  EXPECT_DOUBLE_EQ(events[1].b, 87.0);
  EXPECT_EQ(events[2].kind, EventKind::kSupervisorRecover);
}

TEST(Recorder, LabelIsStoredAndTruncated) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.record(EventKind::kNote, -1, 0.0, 0.0, 0.0, "short");
  const std::string long_label(200, 'x');
  rec.record(EventKind::kNote, -1, 0.0, 0.0, 0.0, long_label);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].label, "short");
  EXPECT_EQ(std::string(events[1].label),
            std::string(FlightEvent::kLabelSize - 1, 'x'));
}

TEST(Recorder, RingWrapKeepsNewestAndCountsDropped) {
  FlightRecorder rec(/*capacity_per_thread=*/4);
  rec.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    rec.record(EventKind::kNote, i, 0.0, static_cast<double>(i));
  }
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The newest four survive, still in order.
  EXPECT_EQ(events[0].turn, 6);
  EXPECT_EQ(events[3].turn, 9);
}

TEST(Recorder, ClearDropsEventsAndDroppedCount) {
  FlightRecorder rec(/*capacity_per_thread=*/2);
  rec.set_enabled(true);
  for (int i = 0; i < 5; ++i) rec.record(EventKind::kNote, i, 0.0);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record(EventKind::kNote, 42, 0.0);
  ASSERT_EQ(rec.event_count(), 1u);
  EXPECT_EQ(rec.snapshot()[0].turn, 42);
}

TEST(Recorder, ConcurrentRecordsMergeInGlobalOrder) {
  FlightRecorder rec;
  rec.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.record(EventKind::kNote, t * kPerThread + i, 0.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(rec.event_count(), kThreads * kPerThread);
  EXPECT_EQ(rec.dropped(), 0u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(Recorder, EventKindNamesAreStable) {
  // Part of the citl-blackbox-v1 schema: renaming breaks dump consumers.
  EXPECT_STREQ(event_kind_name(EventKind::kNote), "note");
  EXPECT_STREQ(event_kind_name(EventKind::kTurnSummary), "turn_summary");
  EXPECT_STREQ(event_kind_name(EventKind::kDeadlineMiss), "deadline_miss");
  EXPECT_STREQ(event_kind_name(EventKind::kFaultWindow), "fault_window");
  EXPECT_STREQ(event_kind_name(EventKind::kSupervisorAbort),
               "supervisor_abort");
  EXPECT_STREQ(event_kind_name(EventKind::kOracleDivergence),
               "oracle_divergence");
}

// ---------------------------------------------------------------------------
// Black-box dumps

TEST(RecorderDump, DumpJsonIsValidBlackboxV1) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.record(EventKind::kDeadlineMiss, 12, 1.5e-5, 91.0, 87.0);
  rec.record(EventKind::kSupervisorAbort, 13, 1.6e-5, 0.0, 0.0,
             "deadline_policy_abort");
  const std::string json = rec.dump_json("unit_test");
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"format\":\"citl-blackbox-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"event_count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"deadline_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"deadline_policy_abort\""),
            std::string::npos);
}

TEST(RecorderDump, DumpToFileWritesConfiguredPathOnly) {
  FlightRecorder rec;
  rec.set_enabled(true);
  rec.record(EventKind::kNote, 1, 0.0, 0.0, 0.0, "hello");
  // No path configured: quietly does nothing.
  rec.dump_to_file("no_path");

  const std::string path = ::testing::TempDir() + "citl_blackbox_unit.json";
  std::remove(path.c_str());
  rec.set_dump_path(path);
  EXPECT_EQ(rec.dump_path(), path);
  rec.dump_to_file("explicit");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "dump file missing: " << path;
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_TRUE(JsonChecker(body.str()).valid()) << body.str();
  EXPECT_NE(body.str().find("\"reason\":\"explicit\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(RecorderDump, FatalSignalDumpSmoke) {
  // The handler dumps the GLOBAL recorder, so the crashing side must run in
  // a child process; gtest's threadsafe death test re-execs, giving the
  // child a clean recorder to configure.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "citl_blackbox_signal.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        FlightRecorder& rec = FlightRecorder::global();
        rec.set_enabled(true);
        rec.set_dump_path(path);
        FlightRecorder::install_signal_handlers();
        rec.record(EventKind::kNote, 99, 0.0, 0.0, 0.0, "pre_crash_marker");
        std::raise(SIGSEGV);
      },
      "");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "signal handler left no dump at " << path;
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_TRUE(JsonChecker(body.str()).valid()) << body.str();
  EXPECT_NE(body.str().find("citl-blackbox-v1"), std::string::npos);
  EXPECT_NE(body.str().find("\"reason\":\"signal:SIGSEGV\""),
            std::string::npos);
  EXPECT_NE(body.str().find("pre_crash_marker"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

TEST(ObsExposition, PrometheusNameMapping) {
  EXPECT_EQ(prometheus_name("hil.revolutions"), "citl_hil_revolutions");
  EXPECT_EQ(prometheus_name("sweep.kernel_cache.hits"),
            "citl_sweep_kernel_cache_hits");
  // Label brackets are stripped from the metric name.
  EXPECT_EQ(prometheus_name("cgra.op_cycles[op=mul,fu=mul]"),
            "citl_cgra_op_cycles");
}

// Structural lint for Prometheus 0.0.4 text: every line is a comment or
// `name{labels} value`, and every sample's base name was typed first.
void expect_valid_prometheus_text(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                  line.rfind("# HELP ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    // Metric name: [a-zA-Z_:][a-zA-Z0-9_:]* up to '{' or end.
    const std::size_t brace = series.find('{');
    const std::string name = series.substr(0, brace);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_' || name[0] == ':')
        << line;
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
    }
  }
}

TEST(ObsExposition, RendersCountersGaugesAndHistograms) {
  Registry reg(/*enabled=*/true);
  reg.counter("hil.revolutions").add(123);
  reg.gauge("hil.headroom").set(0.25);
  Histogram& h = reg.histogram("hil.exec_cycles", {10.0, 100.0});
  h.observe(5.0);
  h.observe(10.0);   // boundary: le="10" must include it
  h.observe(50.0);
  h.observe(1000.0);

  const std::string text = prometheus_text(reg);
  expect_valid_prometheus_text(text);
  EXPECT_NE(text.find("# TYPE citl_hil_revolutions counter"),
            std::string::npos);
  EXPECT_NE(text.find("citl_hil_revolutions 123"), std::string::npos);
  EXPECT_NE(text.find("# TYPE citl_hil_headroom gauge"), std::string::npos);
  EXPECT_NE(text.find("citl_hil_headroom 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE citl_hil_exec_cycles histogram"),
            std::string::npos);
  // Cumulative buckets, upper-inclusive: 2 at le=10 (5 and the boundary 10),
  // 3 at le=100, 4 at +Inf == _count.
  EXPECT_NE(text.find("citl_hil_exec_cycles_bucket{le=\"10\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("citl_hil_exec_cycles_bucket{le=\"100\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("citl_hil_exec_cycles_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("citl_hil_exec_cycles_count 4"), std::string::npos);
  EXPECT_NE(text.find("citl_hil_exec_cycles_sum 1065"), std::string::npos);
}

TEST(ObsExposition, LabelledSeriesShareOneTypeLine) {
  Registry reg(/*enabled=*/true);
  reg.counter("cgra.op_cycles[op=mul,fu=mul]").add(10);
  reg.counter("cgra.op_cycles[op=add,fu=alu]").add(20);
  const std::string text = prometheus_text(reg);
  expect_valid_prometheus_text(text);
  EXPECT_NE(text.find("citl_cgra_op_cycles{op=\"add\",fu=\"alu\"} 20"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("citl_cgra_op_cycles{op=\"mul\",fu=\"mul\"} 10"),
            std::string::npos)
      << text;
  // Exactly one TYPE line for the shared base name.
  std::size_t type_lines = 0;
  std::size_t pos = 0;
  const std::string needle = "# TYPE citl_cgra_op_cycles counter";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++type_lines;
    pos += needle.size();
  }
  EXPECT_EQ(type_lines, 1u);
}

// ---------------------------------------------------------------------------
// Scrape endpoint

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ObsScrape, ServesMetricsAndCollectorsOverHttp) {
  Registry reg(/*enabled=*/true);
  reg.counter("hil.revolutions").add(7);
  ScrapeServer server(reg);
  server.add_collector([] {
    return std::string("# TYPE citl_extra gauge\ncitl_extra 1\n");
  });
  server.start(/*port=*/0);  // ephemeral
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("citl_hil_revolutions 7"), std::string::npos);
  EXPECT_NE(response.find("citl_extra 1"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(ObsScrape, RenderWorksWithoutSocket) {
  Registry reg(/*enabled=*/true);
  reg.counter("a.b").add(3);
  ScrapeServer server(reg);
  server.add_collector([] { return std::string("citl_x 9\n"); });
  const std::string body = server.render();
  EXPECT_NE(body.find("citl_a_b 3"), std::string::npos);
  EXPECT_NE(body.find("citl_x 9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-op cycle attribution

cgra::CompiledKernel attribution_kernel() {
  cgra::BeamKernelConfig kc;  // defaults: 14N7+, SIS18
  return cgra::compile_kernel(cgra::beam_kernel_source(kc), cgra::grid_5x5(),
                              "beam_attr");
}

TEST(ObsAttribution, ProfileIsConsistentWithScheduleStats) {
  const cgra::CompiledKernel kernel = attribution_kernel();
  const cgra::KernelCycleProfile profile =
      cgra::kernel_cycle_profile(kernel);
  EXPECT_EQ(profile.kernel_name, "beam_attr");
  EXPECT_EQ(profile.schedule_length, kernel.schedule.length);
  EXPECT_EQ(profile.pe_count, kernel.arch.pe_count());
  ASSERT_FALSE(profile.rows.empty());

  // Rows partition the busy cycles, sorted hottest-first.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < profile.rows.size(); ++i) {
    total += profile.rows[i].cycles_per_iteration;
    if (i > 0) {
      EXPECT_GE(profile.rows[i - 1].cycles_per_iteration,
                profile.rows[i].cycles_per_iteration);
    }
  }
  EXPECT_EQ(total, profile.busy_cycles);
  EXPECT_GT(profile.pe_utilisation, 0.0);
  EXPECT_LE(profile.pe_utilisation, 1.0);

  // The route-hop rows agree with the scheduler's own accounting.
  const cgra::ScheduleStats stats = cgra::schedule_stats(
      kernel.dfg, kernel.arch, kernel.schedule);
  for (const auto& row : profile.rows) {
    if (row.kind == cgra::OpKind::kMove) {
      EXPECT_GE(row.ops, stats.route_hops);
    }
  }
}

TEST(ObsAttribution, MetricNameCarriesOpAndUnitLabels) {
  const cgra::CompiledKernel kernel = attribution_kernel();
  const auto profile = cgra::kernel_cycle_profile(kernel);
  ASSERT_FALSE(profile.rows.empty());
  const std::string name = cgra::attribution_metric_name(profile.rows[0]);
  EXPECT_EQ(name.rfind("cgra.op_cycles[op=", 0), 0u) << name;
  EXPECT_NE(name.find(",fu="), std::string::npos) << name;
  EXPECT_EQ(name.back(), ']') << name;
}

TEST(ObsAttribution, CountersAccumulatePerIteration) {
  const cgra::CompiledKernel kernel = attribution_kernel();
  const auto profile = cgra::kernel_cycle_profile(kernel);
  ASSERT_FALSE(profile.rows.empty());
  const auto& top = profile.rows[0];
  Counter& counter =
      Registry::global().counter(cgra::attribution_metric_name(top));

  const bool was_enabled = Registry::global().enabled();
  Registry::global().set_enabled(true);
  const std::uint64_t before = counter.value();
  cgra::AttributionCounters counters(kernel);
  counters.add_iterations(3);
  const std::uint64_t after = counter.value();
  Registry::global().set_enabled(was_enabled);

  EXPECT_EQ(after - before, 3 * top.cycles_per_iteration);
}

TEST(ObsAttribution, HotspotTableRendersSharesAndTotals) {
  const cgra::CompiledKernel kernel = attribution_kernel();
  const auto profile = cgra::kernel_cycle_profile(kernel);
  const std::string table = cgra::hotspot_table(profile, /*iterations=*/10);
  EXPECT_NE(table.find("beam_attr"), std::string::npos);
  EXPECT_NE(table.find("cyc/iter"), std::string::npos);
  EXPECT_NE(table.find("%"), std::string::npos);
  // The hottest row's total appears: cycles_per_iteration * 10.
  EXPECT_NE(table.find(std::to_string(
                profile.rows[0].cycles_per_iteration * 10)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Byte-identity: the recorder (and exposition reads) must not change reports

hil::FrameworkConfig recorder_paper_config() {
  hil::FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  fc.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  return fc;
}

sweep::SweepConfig recorder_sweep_config() {
  sweep::SweepConfig config;
  config.threads = 2;
  for (double jump_deg : {6.0, 8.0}) {
    sweep::Scenario s;
    s.name = "jump" + std::to_string(jump_deg);
    s.framework = recorder_paper_config();
    s.framework.controller.gain = -5.0;
    s.framework.jumps =
        ctrl::PhaseJumpProgramme(deg_to_rad(jump_deg), 1.0, 0.5e-3);
    s.duration_s = 1.2e-3;
    config.scenarios.push_back(std::move(s));
  }
  return config;
}

TEST(ObsSweep, ByteIdenticalWithFlightRecorderAndExposition) {
  const sweep::SweepConfig config = recorder_sweep_config();
  FlightRecorder& rec = FlightRecorder::global();
  Registry& reg = Registry::global();
  const bool rec_was_enabled = rec.enabled();
  const bool reg_was_enabled = reg.enabled();

  rec.set_enabled(false);
  reg.set_enabled(false);
  const sweep::SweepResult off = sweep::run_sweep(config);
  const std::string csv_off = sweep::metrics_csv(off);
  const std::string json_off = sweep::metrics_json(off);

  rec.set_enabled(true);
  reg.set_enabled(true);
  const sweep::SweepResult on = sweep::run_sweep(config);
  // Reading the exposition mid-flight must be inert too.
  const std::string exposition = prometheus_text(reg);
  const std::string csv_on = sweep::metrics_csv(on);
  const std::string json_on = sweep::metrics_json(on);

  const std::size_t recorded = rec.event_count();
  rec.set_enabled(rec_was_enabled);
  reg.set_enabled(reg_was_enabled);
  rec.clear();

  EXPECT_EQ(csv_off, csv_on);
  EXPECT_EQ(json_off, json_on);
  // The instrumented run did record (decimated turn summaries at least) and
  // the exposition rendered the attribution series the machines emit.
  EXPECT_GT(recorded, 0u);
  EXPECT_NE(exposition.find("citl_cgra_op_cycles{"), std::string::npos)
      << exposition.substr(0, 600);
  expect_valid_prometheus_text(exposition);
  // Attribution rides the report itself, deterministically.
  EXPECT_NE(json_off.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json_off.find("\"busy_cycles_per_iteration\""),
            std::string::npos);
  EXPECT_TRUE(JsonChecker(json_off).valid());
}

}  // namespace
}  // namespace citl::obs
