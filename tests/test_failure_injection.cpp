// Failure injection: the framework must degrade gracefully — never crash,
// never emit non-finite outputs — under the faults a real test bench sees.
// Includes batched-lane isolation: a faulted lane of a BatchedCgraMachine
// must not perturb its siblings by a single bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/machine.hpp"
#include "api/api.hpp"
#include "cgra/schedule.hpp"
#include "core/units.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "hil/experiment.hpp"
#include "hil/framework.hpp"
#include "hil/supervisor.hpp"
#include "hil/turnloop.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::hil {
namespace {

FrameworkConfig healthy() {
  FrameworkConfig fc;
  fc.kernel.pipelined = true;
  fc.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  fc.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring,
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m),
      1280.0);
  return fc;
}

void run_and_expect_finite(Framework& fw, double seconds) {
  const auto ticks = kSampleClock.to_ticks(seconds);
  for (Tick i = 0; i < ticks; ++i) {
    const FrameworkOutputs out = fw.tick();
    ASSERT_TRUE(std::isfinite(out.beam_v));
    ASSERT_TRUE(std::isfinite(out.monitor_v));
    ASSERT_LE(std::abs(out.beam_v), 1.0 + 1e-9);     // DAC range
    ASSERT_LE(std::abs(out.monitor_v), 1.0 + 1e-9);
  }
}

TEST(FailureInjection, ReferenceSignalDead) {
  // No reference sine -> no zero crossings -> the model never starts, and
  // nothing crashes or emits garbage.
  FrameworkConfig fc = healthy();
  fc.ref_amplitude_v = 0.0;
  Framework fw(fc);
  run_and_expect_finite(fw, 1.0e-3);
  EXPECT_FALSE(fw.initialised());
  EXPECT_EQ(fw.cgra_runs(), 0);
  EXPECT_EQ(fw.phase_trace().size(), 0u);
}

TEST(FailureInjection, ReferenceBelowHysteresis) {
  // A reference too weak for the comparator hysteresis behaves like a dead
  // one (the detector is armed at amplitude/10).
  FrameworkConfig fc = healthy();
  fc.ref_amplitude_v = 1.0e-4;  // below even one ADC LSB
  Framework fw(fc);
  run_and_expect_finite(fw, 0.5e-3);
  // The 10 mV comparator floor keeps quantisation chatter from faking a
  // reference: at most the initial arming fires once, never 4 periods.
  EXPECT_FALSE(fw.initialised());
  EXPECT_EQ(fw.cgra_runs(), 0);
}

TEST(FailureInjection, GapChannelSaturatesAdc) {
  // Gap amplitude beyond the 2 Vpp converter range: the captured waveform is
  // clipped, the effective voltage scale is wrong — but the loop stays
  // stable and the measured phase remains bounded.
  FrameworkConfig fc = healthy();
  fc.gap_amplitude_v = 3.0;  // 3x full scale
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 2.0e-3);
  Framework fw(fc);
  run_and_expect_finite(fw, 10.0e-3);
  EXPECT_EQ(fw.realtime_violations(), 0);
  EXPECT_TRUE(std::isfinite(fw.last_phase_rad()));
  EXPECT_LT(std::abs(rad_to_deg(fw.last_phase_rad())), 45.0);
}

TEST(FailureInjection, ExtremeAdcNoise) {
  // 10% of full scale rms on both channels: detectors mis-trigger, but the
  // chain survives and keeps producing pulses.
  FrameworkConfig fc = healthy();
  fc.adc_noise_rms_v = 0.1;
  Framework fw(fc);
  run_and_expect_finite(fw, 5.0e-3);
  EXPECT_TRUE(fw.initialised());
  EXPECT_GT(fw.cgra_runs(), 0);
}

TEST(FailureInjection, UndersizedCaptureBuffer) {
  // A 2^9 = 512-sample buffer holds ~2 µs — less than the two reference
  // periods the design requires. Reads outside the retained window return 0
  // (the hardware would return stale data); the loop must not crash.
  FrameworkConfig fc = healthy();
  fc.buffer_depth_log2 = 9;
  Framework fw(fc);
  run_and_expect_finite(fw, 2.0e-3);
  EXPECT_TRUE(fw.initialised());
}

TEST(FailureInjection, AbsurdPhaseJump) {
  // A 120° jump throws the bunch far up the bucket; the single-particle
  // model may slosh wildly but everything stays finite and bounded by the
  // bucket wrap.
  FrameworkConfig fc = healthy();
  fc.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(120.0), 1.0, 1.0e-3);
  Framework fw(fc);
  run_and_expect_finite(fw, 8.0e-3);
  EXPECT_TRUE(std::isfinite(api::kernel_state(fw.machine(), "dt0")));
  EXPECT_TRUE(std::isfinite(api::kernel_state(fw.machine(), "dgamma0")));
}

TEST(FailureInjection, StarvedControllerStillStable) {
  // Actuator authority limited to 5 Hz: damping is far slower, but the loop
  // must remain stable (bounded oscillation) rather than wind up.
  TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  tl.gap_voltage_v = 4860.0;
  tl.controller.max_correction_hz = 5.0;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  double worst = 0.0;
  loop.run(static_cast<std::int64_t>(40.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             ASSERT_TRUE(std::isfinite(r.phase_rad));
             worst = std::max(worst, std::abs(rad_to_deg(r.phase_rad)));
             ASSERT_LE(std::abs(r.correction_hz), 5.0 + 1e-9);
           });
  EXPECT_LT(worst, 30.0);  // bounded (free oscillation is ~16 deg p2p)
}

TEST(FailureInjection, HeavyPhaseMeasurementNoise) {
  // 3° rms of measurement noise on every turn: the FIR lowpass + decimation
  // keep the loop damping instead of amplifying the noise.
  TurnLoopConfig tl;
  tl.kernel.pipelined = true;
  tl.f_ref_hz = 800.0e3;
  tl.gap_voltage_v = 4860.0;
  tl.phase_noise_rad = deg_to_rad(3.0);
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  // Judge damping on the true bunch state (dt), which carries only what the
  // loop actually imprints — the measured phase series is dominated by the
  // injected measurement noise itself.
  std::vector<double> ts, dt_ns;
  loop.run(static_cast<std::int64_t>(30.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             ASSERT_TRUE(std::isfinite(r.phase_rad));
             ts.push_back(r.time_s);
             dt_ns.push_back(r.dt_s * 1e9);
           });
  const double early = peak_to_peak(ts, dt_ns, 0.5e-3, 2.0e-3);
  const double late = peak_to_peak(ts, dt_ns, 25.0e-3, 30.0e-3);
  EXPECT_GT(early, 10.0);          // jump excited ~14 ns swing
  EXPECT_LT(late, 0.35 * early);   // damped to the noise-driven floor
}

TEST(FailureInjection, MdeScenarioSurvivesPathologicalSettings) {
  // Stress the experiment driver with off-nominal settings; results may be
  // physically odd, but the run must complete with finite series.
  MdeScenarioConfig cfg;
  cfg.duration_s = 0.02;
  cfg.jump_deg = 45.0;
  cfg.f_sync_hz = 300.0;            // very weak bucket
  cfg.ensemble_particles = 500;
  cfg.ensemble_sigma_dt_s = 60.0e-9;
  const MdeResult r = run_mde_scenario(cfg);
  for (double v : r.simulator.phase_deg) ASSERT_TRUE(std::isfinite(v));
  for (double v : r.reference.phase_deg) ASSERT_TRUE(std::isfinite(v));
}

// --- batched-lane fault isolation ------------------------------------------

/// Deterministic per-lane bus: reads are a pure function of (lane, region,
/// offset), writes are discarded — what each lane observes cannot depend on
/// execution order or on what happens to a sibling lane.
class IsolationBus final : public cgra::SensorBus {
 public:
  explicit IsolationBus(std::size_t lane) : lane_(lane) {}
  double read(cgra::SensorRegion region, double offset) override {
    if (region == cgra::SensorRegion::kPeriod) {
      return 1.25e-6 * (1.0 + 1.0e-4 * static_cast<double>(lane_));
    }
    const double r = region == cgra::SensorRegion::kRefBuf ? 0.0 : 1.0;
    return 0.8 * std::sin(0.37 * offset + 0.11 * static_cast<double>(lane_) +
                          0.5 * r);
  }
  void write(cgra::SensorRegion, double, double) override {}

 private:
  std::size_t lane_;
};

cgra::CompiledKernel isolation_kernel() {
  cgra::BeamKernelConfig kc;
  kc.pipelined = true;
  return cgra::compile_kernel(cgra::beam_kernel_source(kc), cgra::grid_5x5(),
                              "beam_sampled");
}

/// Bit pattern of a double — lets the isolation assertions hold even when a
/// fault drives a state to NaN (where operator== would always fail).
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(FailureInjection, BatchedLaneStateFaultsStayIsolated) {
  // SEU bit flips injected into ONE lane of a BatchedCgraMachine: the other
  // lanes must stay bit-identical to clean serial references, and the
  // faulted lane must stay bit-identical to a serial machine receiving the
  // identical fault stream (same plan, same stream seed).
  const cgra::CompiledKernel kernel = isolation_kernel();
  constexpr std::size_t kLanes = 3;
  constexpr std::size_t kFaulted = 1;
  constexpr std::int64_t kIterations = 40;

  fault::FaultPlan plan;
  fault::FaultSpec seu;
  seu.kind = fault::FaultKind::kStateCorruption;
  seu.start_tick = 10;
  seu.duration = 15;
  seu.target = "dt0";
  seu.rate = 1.0;
  seu.bit = 12;  // mantissa bit: diverges the lane but keeps states finite
  seu.seed = 5;
  plan.entries.push_back(seu);

  // Clean one-lane cycle-accurate references, one per lane.
  std::vector<std::unique_ptr<IsolationBus>> serial_buses;
  std::vector<std::unique_ptr<cgra::BatchedCgraMachine>> serial;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    serial_buses.push_back(std::make_unique<IsolationBus>(lane));
    serial.push_back(std::make_unique<cgra::BatchedCgraMachine>(
        kernel, *serial_buses[lane]));
  }
  // A faulted one-lane twin of the faulted lane.
  IsolationBus twin_bus(kFaulted);
  cgra::BatchedCgraMachine twin(kernel, twin_bus);
  fault::FaultInjector twin_inj(plan, 99,
                                fault::FaultInjector::Host::kSampleAccurate);
  twin_inj.resolve_targets(kernel);

  // The batched run, faulting only lane kFaulted.
  std::vector<std::unique_ptr<IsolationBus>> lane_buses;
  std::vector<cgra::SensorBus*> bus_ptrs;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lane_buses.push_back(std::make_unique<IsolationBus>(lane));
    bus_ptrs.push_back(lane_buses[lane].get());
  }
  cgra::PerLaneBusAdapter adapter(std::move(bus_ptrs));
  cgra::BatchedCgraMachine batched(kernel, kLanes, adapter);
  fault::FaultInjector batch_inj(plan, 99,
                                 fault::FaultInjector::Host::kSampleAccurate);
  batch_inj.resolve_targets(kernel);

  for (std::int64_t it = 0; it < kIterations; ++it) {
    batch_inj.begin_tick(it);
    twin_inj.begin_tick(it);
    batched.run_iteration_all_lanes();
    batch_inj.apply_state_faults(batched, kFaulted);
    for (auto& m : serial) m->run_iteration_cycle_accurate();
    twin.run_iteration_cycle_accurate();
    twin_inj.apply_state_faults(twin, 0);
  }
  EXPECT_GT(batch_inj.events(), 0);
  EXPECT_EQ(batch_inj.events(), twin_inj.events());

  const cgra::StateHandle dt0 = batched.state_handle("dt0");
  bool faulted_diverged = false;
  for (std::size_t i = 0; i < kernel.dfg.states().size(); ++i) {
    const cgra::StateHandle h{static_cast<int>(i)};
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (lane == kFaulted) continue;
      EXPECT_EQ(bits(batched.state(h, lane)), bits(serial[lane]->state(h, 0)))
          << "clean lane " << lane << " state "
          << kernel.dfg.states()[i].name;
    }
    EXPECT_EQ(bits(batched.state(h, kFaulted)), bits(twin.state(h, 0)))
        << "faulted lane, state " << kernel.dfg.states()[i].name;
    if (bits(batched.state(h, kFaulted)) != bits(serial[kFaulted]->state(h, 0))) {
      faulted_diverged = true;
    }
  }
  EXPECT_TRUE(faulted_diverged);  // the fault stream actually bit
  EXPECT_NE(bits(batched.state(dt0, kFaulted)),
            bits(serial[kFaulted]->state(dt0, 0)));
}

TEST(FailureInjection, BatchedSnapshotRestoreIsBitExactAndLaneLocal) {
  // The supervisor's rollback primitive on a batched model: snapshotting one
  // lane, corrupting it, and restoring must round-trip that lane bit-exactly
  // and must not touch any sibling lane.
  const cgra::CompiledKernel kernel = isolation_kernel();
  constexpr std::size_t kLanes = 3;
  std::vector<std::unique_ptr<IsolationBus>> lane_buses;
  std::vector<cgra::SensorBus*> bus_ptrs;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lane_buses.push_back(std::make_unique<IsolationBus>(lane));
    bus_ptrs.push_back(lane_buses[lane].get());
  }
  cgra::PerLaneBusAdapter adapter(std::move(bus_ptrs));
  cgra::BatchedCgraMachine batched(kernel, kLanes, adapter);
  for (int it = 0; it < 7; ++it) batched.run_iteration_all_lanes();

  const std::size_t n = kernel.dfg.states().size();
  ASSERT_EQ(batched.state_count(), n);
  std::vector<double> snap(n), lane0(n), lane2(n);
  batched.snapshot_states(1, snap.data());
  batched.snapshot_states(0, lane0.data());
  batched.snapshot_states(2, lane2.data());

  for (std::size_t i = 0; i < n; ++i) {
    batched.set_state(cgra::StateHandle{static_cast<int>(i)}, 1.0e30, 1);
  }
  batched.restore_states(1, snap.data());

  for (std::size_t i = 0; i < n; ++i) {
    const cgra::StateHandle h{static_cast<int>(i)};
    EXPECT_EQ(batched.state(h, 1), snap[i]);    // bit-exact round trip
    EXPECT_EQ(batched.state(h, 0), lane0[i]);   // siblings untouched
    EXPECT_EQ(batched.state(h, 2), lane2[i]);
  }
}

}  // namespace
}  // namespace citl::hil
