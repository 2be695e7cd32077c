// Observability subsystem: metrics registry, event tracer and deadline
// profiler.
//
// The suites are named Obs* so the TSan CI job can select them with a
// gtest_filter — the concurrent-increment and tracer tests double as data
// race detectors under -fsanitize=thread.
//
// The headline guarantee under test here mirrors the sweep's: turning
// observability ON cannot change a single byte of any deterministic report
// (ObsSweep.ByteIdenticalObservabilityOnOff).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/parallel.hpp"
#include "core/units.hpp"
#include "fault/fault.hpp"
#include "hil/framework.hpp"
#include "hil/recorder.hpp"
#include "hil/turnloop.hpp"
#include "obs/deadline.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"
#include "sweep/report.hpp"
#include "sweep/sweep.hpp"

#include "json_checker.hpp"

namespace citl::obs {
namespace {

using test_support::JsonChecker;

TEST(ObsJsonChecker, AcceptsAndRejects) {
  // Sanity-check the checker itself before trusting it below.
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5e-3,-7],"b":{"c":"x\n"},"d":null})")
                  .valid());
  EXPECT_TRUE(JsonChecker("[]").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":01x})").valid());
  EXPECT_FALSE(JsonChecker(R"(["unterminated)").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1} trailing)").valid());
}

// ---------------------------------------------------------------------------
// Counters / gauges / histograms

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Registry reg(/*enabled=*/true);
  Counter& c = reg.counter("test.hits");
  constexpr std::size_t kPerThreadAdds = 20000;
  ThreadPool pool(4);
  pool.parallel_for_chunks(0, 4 * kPerThreadAdds,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               c.add();
                             }
                           });
  EXPECT_EQ(c.value(), 4 * kPerThreadAdds);
}

TEST(ObsCounter, DisabledRegistryRecordsNothing) {
  Registry reg(/*enabled=*/false);
  Counter& c = reg.counter("test.hits");
  c.add(42);
  EXPECT_EQ(c.value(), 0u);
  reg.set_enabled(true);
  c.add(42);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounter, SameNameReturnsSameInstrument) {
  Registry reg(/*enabled=*/true);
  Counter& a = reg.counter("test.one");
  Counter& b = reg.counter("test.one");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(&a, &reg.counter("test.two"));
}

TEST(ObsGauge, SetAddAndConcurrentAdd) {
  Registry reg(/*enabled=*/true);
  Gauge& g = reg.gauge("test.depth");
  g.set(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);

  g.set(0.0);
  ThreadPool pool(4);
  pool.parallel_for_chunks(0, 4000,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               g.add(1.0);  // integer-valued: no fp rounding
                             }
                           });
  EXPECT_DOUBLE_EQ(g.value(), 4000.0);
}

TEST(ObsHistogram, BucketBoundsAreUpperInclusive) {
  Registry reg(/*enabled=*/true);
  Histogram& h = reg.histogram("test.latency", {1.0, 2.0, 5.0});
  // Prometheus `le` semantics: a value exactly on a bound lands in THAT
  // bucket, so the cumulative buckets the exposition renders are exact.
  h.observe(0.5);   // bucket 0: v <= 1
  h.observe(1.0);   // bucket 0 (on the bound)
  h.observe(1.99);  // bucket 1: 1 < v <= 2
  h.observe(2.0);   // bucket 1 (on the bound)
  h.observe(5.0);   // bucket 2 (on the bound)
  h.observe(100.0); // overflow: v > 5
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.99 + 2.0 + 5.0 + 100.0);
}

TEST(ObsHistogram, ConcurrentObservationsKeepTotals) {
  Registry reg(/*enabled=*/true);
  Histogram& h = reg.histogram("test.sizes", {10.0, 100.0});
  ThreadPool pool(4);
  pool.parallel_for(0, 9000, [&](std::size_t i) {
    h.observe(static_cast<double>(i % 3) * 50.0);  // 0, 50, 100
  });
  EXPECT_EQ(h.count(), 9000u);
  EXPECT_EQ(h.bucket_count(0), 3000u);  // v = 0
  EXPECT_EQ(h.bucket_count(1), 6000u);  // v = 50 and v = 100 (le-inclusive)
  EXPECT_EQ(h.bucket_count(2), 0u);     // nothing above 100
  EXPECT_DOUBLE_EQ(h.sum(), 3000.0 * 150.0);
}

TEST(ObsRegistry, JsonAndCsvSnapshots) {
  Registry reg(/*enabled=*/true);
  reg.counter("b.count").add(7);
  reg.counter("a.count").add(1);
  reg.gauge("q.depth").set(3.5);
  reg.histogram("lat", {1.0, 10.0}).observe(4.0);

  const std::string json = reg.json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Sorted maps: "a.count" renders before "b.count".
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("metric,kind,value"), std::string::npos);
  EXPECT_NE(csv.find("b.count,counter,7"), std::string::npos);
  EXPECT_NE(csv.find("q.depth,gauge,3.5"), std::string::npos);

  reg.reset();
  EXPECT_EQ(reg.counter("b.count").value(), 0u);
  EXPECT_EQ(reg.histogram("lat", {1.0, 10.0}).count(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("q.depth").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(ObsTracer, DisabledTracerBuffersNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  {
    ScopedSpan span(tracer, "ignored");
    tracer.instant("ignored");
    tracer.counter("ignored", 1.0);
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObsTracer, ConcurrentSpansProduceValidChromeTraceJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  ThreadPool pool(4);
  pool.parallel_for(0, 64, [&](std::size_t i) {
    ScopedSpan span(tracer, "work");
    if (i % 8 == 0) tracer.instant("marker");
    tracer.counter("queue", static_cast<double>(i));
  });
  tracer.instant("done");
  EXPECT_GE(tracer.event_count(), 64u + 8u + 64u + 1u);

  const std::string json = tracer.json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete spans, instants, counters and thread-name metadata all present.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);

  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(JsonChecker(tracer.json()).valid());
}

TEST(ObsTracer, SpanCapturesEnabledStateAtConstruction) {
  // A span that starts while tracing is on still completes (and records)
  // after tracing is switched off mid-span — and vice versa records nothing
  // if tracing was off when it started.
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span(tracer, "spans-the-toggle");
    tracer.set_enabled(false);
  }
  EXPECT_EQ(tracer.event_count(), 1u);
  {
    ScopedSpan span(tracer, "started-disabled");
    tracer.set_enabled(true);
  }
  EXPECT_EQ(tracer.event_count(), 1u);
  tracer.set_enabled(false);
}

// ---------------------------------------------------------------------------
// Deadline profiler

TEST(ObsDeadline, EmptyProfilerHasZeroStats) {
  DeadlineProfiler p;
  const DeadlineStats s = p.stats();
  EXPECT_EQ(s.revolutions, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_DOUBLE_EQ(s.headroom_min, 0.0);
  EXPECT_DOUBLE_EQ(s.headroom_p99, 0.0);
  EXPECT_DOUBLE_EQ(s.worst_overrun_cycles, 0.0);
  EXPECT_TRUE(p.worst_misses().empty());
}

TEST(ObsDeadline, CountsMissesAndTracksHeadroom) {
  DeadlineProfiler p;
  p.record(50.0, 100.0, 1e-3);   // headroom 0.5
  p.record(90.0, 100.0, 2e-3);   // headroom 0.1
  p.record(120.0, 100.0, 3e-3);  // miss, overrun 20
  EXPECT_EQ(p.revolutions(), 3);
  EXPECT_EQ(p.misses(), 1);

  const DeadlineStats s = p.stats();
  EXPECT_DOUBLE_EQ(s.headroom_max, 0.5);
  EXPECT_DOUBLE_EQ(s.headroom_min, -0.2);
  EXPECT_NEAR(s.headroom_mean, (0.5 + 0.1 - 0.2) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.worst_overrun_cycles, 20.0);
  ASSERT_EQ(p.worst_misses().size(), 1u);
  EXPECT_EQ(p.worst_misses()[0].revolution, 2);
  EXPECT_DOUBLE_EQ(p.worst_misses()[0].overrun_cycles(), 20.0);
}

TEST(ObsDeadline, WorstMissesSortedAndCapped) {
  DeadlineProfiler p;
  // 12 misses with overruns 1..12 in shuffled order; only the largest
  // kWorstRecords survive, largest first.
  const double overruns[] = {3, 11, 1, 7, 12, 5, 9, 2, 10, 4, 8, 6};
  for (double o : overruns) p.record(100.0 + o, 100.0, o * 1e-3);
  EXPECT_EQ(p.misses(), 12);
  const auto& worst = p.worst_misses();
  ASSERT_EQ(worst.size(), DeadlineProfiler::kWorstRecords);
  EXPECT_DOUBLE_EQ(worst.front().overrun_cycles(), 12.0);
  for (std::size_t i = 1; i < worst.size(); ++i) {
    EXPECT_GE(worst[i - 1].overrun_cycles(), worst[i].overrun_cycles());
  }
  EXPECT_DOUBLE_EQ(worst.back().overrun_cycles(),
                   12.0 - static_cast<double>(
                              DeadlineProfiler::kWorstRecords) + 1.0);
}

TEST(ObsDeadline, InvalidBudgetCountsAsMiss) {
  DeadlineProfiler p;
  p.record(50.0, 0.0, 0.0);
  EXPECT_EQ(p.misses(), 1);
  EXPECT_EQ(p.bucket_count(DeadlineProfiler::kBuckets), 1u);  // overflow
}

TEST(ObsDeadline, ZeroRevolutionQuantileIsZero) {
  // A supervisor-aborted run can end before the first revolution completes;
  // the quantile of an empty histogram must be a defined number, not a scan
  // off the end of the buckets.
  const DeadlineProfiler p;
  EXPECT_DOUBLE_EQ(p.occupancy_quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.occupancy_quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.occupancy_quantile(1.0), 0.0);
}

TEST(ObsDeadline, NonFiniteInputsLeaveStatsFinite) {
  // A poisoned period measurement (reference dropout with no watchdog) feeds
  // NaN/inf budgets into the profiler. Each counts as a miss at pinned
  // overflow occupancy and the aggregate stats stay NaN-free.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  DeadlineProfiler p;
  p.record(50.0, 100.0, 1e-3);  // one healthy sample, headroom 0.5
  p.record(50.0, nan, 2e-3);
  p.record(nan, 100.0, 3e-3);
  p.record(50.0, inf, 4e-3);
  EXPECT_EQ(p.revolutions(), 4);
  EXPECT_EQ(p.misses(), 3);
  EXPECT_EQ(p.bucket_count(DeadlineProfiler::kBuckets), 3u);

  const DeadlineStats s = p.stats();
  EXPECT_TRUE(std::isfinite(s.headroom_min));
  EXPECT_TRUE(std::isfinite(s.headroom_max));
  EXPECT_TRUE(std::isfinite(s.headroom_mean));
  EXPECT_TRUE(std::isfinite(s.headroom_p50));
  EXPECT_TRUE(std::isfinite(s.headroom_p90));
  EXPECT_TRUE(std::isfinite(s.headroom_p99));
  EXPECT_TRUE(std::isfinite(s.worst_overrun_cycles));
  EXPECT_DOUBLE_EQ(s.headroom_max, 0.5);
  EXPECT_DOUBLE_EQ(s.headroom_min, 1.0 - DeadlineProfiler::kMaxOccupancy);
}

TEST(ObsDeadline, QuantilesStayInsideObservedRange) {
  DeadlineProfiler p;
  // Constant occupancy 0.6: every interpolated quantile must coincide with
  // the exactly-tracked min == max headroom, not a bucket-smeared value.
  for (int i = 0; i < 1000; ++i) p.record(60.0, 100.0, i * 1e-3);
  const DeadlineStats s = p.stats();
  EXPECT_DOUBLE_EQ(s.headroom_min, 0.4);
  EXPECT_DOUBLE_EQ(s.headroom_max, 0.4);
  EXPECT_DOUBLE_EQ(s.headroom_p50, 0.4);
  EXPECT_DOUBLE_EQ(s.headroom_p90, 0.4);
  EXPECT_DOUBLE_EQ(s.headroom_p99, 0.4);

  // A genuinely spread distribution orders the percentiles: p99 occupancy
  // (the bad tail) leaves the least headroom.
  DeadlineProfiler q;
  for (int i = 0; i < 1000; ++i) {
    q.record(static_cast<double>(i % 100), 100.0, i * 1e-3);
  }
  const DeadlineStats t = q.stats();
  EXPECT_GE(t.headroom_p50, t.headroom_p90);
  EXPECT_GE(t.headroom_p90, t.headroom_p99);
  EXPECT_GE(t.headroom_p99, t.headroom_min);
  EXPECT_LE(t.headroom_p50, t.headroom_max);
}

TEST(ObsDeadline, ResetClearsEverything) {
  DeadlineProfiler p;
  p.record(120.0, 100.0, 1e-3);
  p.reset();
  EXPECT_EQ(p.revolutions(), 0);
  EXPECT_EQ(p.misses(), 0);
  EXPECT_TRUE(p.worst_misses().empty());
  EXPECT_EQ(p.bucket_count(0), 0u);
}

// ---------------------------------------------------------------------------
// hil::Trace accounting (satellite: dropped samples must be visible)

TEST(ObsRecorder, TraceCountsSeenDroppedAndDecimated) {
  hil::Trace trace("phase", /*decimation=*/2, /*max_samples=*/3);
  for (int i = 0; i < 10; ++i) {
    trace.push(i * 1e-6, static_cast<double>(i));
  }
  // Samples 0,2,4,6,8 pass decimation; capacity 3 keeps 0,2,4 and drops 6,8.
  EXPECT_EQ(trace.seen(), 10u);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.decimated(), 5u);
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_TRUE(trace.full());

  trace.clear();
  EXPECT_EQ(trace.seen(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.decimated(), 0u);
}

// ---------------------------------------------------------------------------
// Framework deadline accounting consistency

hil::FrameworkConfig paper_config() {
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

TEST(ObsFramework, DeadlineProfilerMatchesLegacyCounters) {
  hil::FrameworkConfig fc = paper_config();
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  hil::Framework fw(fc);
  fw.run_seconds(1.5e-3);
  ASSERT_GT(fw.cgra_runs(), 0);
  // One deadline sample per CGRA revolution, and the profiler's miss count
  // IS the realtime-violation count (same comparison, same branch).
  EXPECT_EQ(fw.deadline().revolutions(), fw.cgra_runs());
  EXPECT_EQ(fw.deadline().misses(), fw.realtime_violations());
  const DeadlineStats s = fw.deadline().stats();
  EXPECT_GT(s.headroom_max, -1.0);
  EXPECT_LE(s.headroom_min, s.headroom_max);
}

TEST(ObsTurnLoop, DeadlineMissesMatchViolationsWhenBudgetIsNotFinite) {
  // An unsupervised reference dropout makes the measured period, and with
  // it the turn's budget, NaN for 50 turns. The profiler counts each such
  // turn as a miss; the loop's violation count and its flight-recorder
  // events must be that same count.
  hil::TurnLoopConfig tl =
      api::to_turnloop_config(api::paper_operating_point());
  fault::FaultSpec dropout;
  dropout.kind = fault::FaultKind::kRefDropout;
  dropout.start_tick = 100;
  dropout.duration = 50;
  tl.faults.entries.push_back(dropout);
  FlightRecorder& rec = FlightRecorder::global();
  const bool rec_was_enabled = rec.enabled();
  rec.clear();
  rec.set_enabled(true);
  hil::TurnLoop loop(tl);
  loop.run(400);
  rec.set_enabled(rec_was_enabled);

  EXPECT_EQ(loop.deadline().misses(), 50);
  EXPECT_EQ(loop.deadline().stats().headroom_min, -1.0);
  EXPECT_EQ(loop.deadline().misses(), loop.realtime_violations());
  std::int64_t miss_events = 0;
  for (const FlightEvent& e : rec.snapshot()) {
    if (e.kind == EventKind::kDeadlineMiss) ++miss_events;
  }
  EXPECT_EQ(miss_events, loop.deadline().misses());
}

// ---------------------------------------------------------------------------
// The acceptance criterion: observability cannot change a report byte

TEST(ObsSweep, ByteIdenticalObservabilityOnOff) {
  sweep::SweepConfig config;
  config.threads = 2;
  for (double jump_deg : {6.0, 8.0}) {
    for (double gain : {-3.0, -5.0}) {
      sweep::Scenario s;
      s.name = "jump" + std::to_string(jump_deg) + "_gain" +
               std::to_string(gain);
      s.framework = paper_config();
      s.framework.adc_noise_rms_v = 0.002;
      s.framework.controller.gain = gain;
      s.framework.jumps =
          ctrl::PhaseJumpProgramme(deg_to_rad(jump_deg), 1.0, 0.5e-3);
      s.duration_s = 1.5e-3;
      config.scenarios.push_back(std::move(s));
    }
  }

  const bool registry_was_enabled = Registry::global().enabled();
  const bool tracer_was_enabled = Tracer::global().enabled();

  Registry::global().set_enabled(false);
  Tracer::global().set_enabled(false);
  const sweep::SweepResult off = sweep::run_sweep(config);
  const std::string csv_off = sweep::metrics_csv(off);
  const std::string json_off = sweep::metrics_json(off);

  Registry::global().set_enabled(true);
  Tracer::global().set_enabled(true);
  const sweep::SweepResult on = sweep::run_sweep(config);
  const std::string csv_on = sweep::metrics_csv(on);
  const std::string json_on = sweep::metrics_json(on);

  // Restore global state before asserting so a failure can't leak settings
  // into other tests.
  const std::uint64_t revolutions_counted =
      Registry::global().counter("hil.revolutions").value();
  const std::size_t events_traced = Tracer::global().event_count();
  Registry::global().set_enabled(registry_was_enabled);
  Tracer::global().set_enabled(tracer_was_enabled);
  Tracer::global().clear();

  EXPECT_EQ(csv_off, csv_on);
  EXPECT_EQ(json_off, json_on);
  // And the instrumented run did actually instrument.
  EXPECT_GT(revolutions_counted, 0u);
  EXPECT_GT(events_traced, 0u);
}

}  // namespace
}  // namespace citl::obs
