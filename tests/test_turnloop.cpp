// The turn-granular closed loop (compiled kernel + analytic bus + control).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "hil/experiment.hpp"
#include "hil/turnloop.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::hil {
namespace {

TurnLoopConfig paper_loop(bool pipelined = true) {
  TurnLoopConfig tl;
  tl.kernel.pipelined = pipelined;
  tl.f_ref_hz = 800.0e3;
  const phys::Ring ring = phys::sis18(4);
  const double gamma =
      phys::gamma_from_revolution_frequency(800.0e3, ring.circumference_m);
  tl.gap_voltage_v = phys::amplitude_for_synchrotron_frequency(
      phys::ion_n14_7plus(), ring, gamma, 1280.0);
  return tl;
}

TEST(TurnLoop, ReferenceReadsMatchClosedForm) {
  // The analytic bus keeps the reference samples it computed at integral
  // offsets. A first read, a repeated one and one after the table slot was
  // reused must all carry the closed form's bits.
  const TurnLoopConfig tl = paper_loop();
  TurnLoop loop(tl);
  const double fs = effective_kernel_config(tl).sample_rate_hz;
  std::vector<double> offsets;
  for (int k = -80; k <= 80; ++k) offsets.push_back(k);
  for (const double x : {0.5, -1.25, 1e6, -1e6, -0.0}) offsets.push_back(x);
  cgra::SensorBus& bus = loop.cgra_bus();
  for (int pass = 0; pass < 2; ++pass) {
    for (const double k : offsets) {
      const double expected =
          tl.ref_amplitude_v * std::sin(kTwoPi * tl.f_ref_hz * (k / fs));
      for (int read = 0; read < 2; ++read) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      bus.read(cgra::SensorRegion::kRefBuf, k)),
                  std::bit_cast<std::uint64_t>(expected))
            << "offset " << k << ", pass " << pass << ", read " << read;
      }
    }
  }
}

TEST(TurnLoop, QuiescentWithoutStimulus) {
  TurnLoopConfig tl = paper_loop();
  tl.control_enabled = false;
  TurnLoop loop(tl);
  loop.run(2000);
  const TurnRecord r = loop.step();
  EXPECT_NEAR(r.dt_s, 0.0, 1e-11);
  EXPECT_NEAR(rad_to_deg(r.phase_rad), 0.0, 0.01);
  EXPECT_DOUBLE_EQ(r.gap_phase_rad, 0.0);
}

TEST(TurnLoop, JumpExcitesTwiceAmplitudeSwing) {
  // §V: "Initially, the peak-to-peak phase amplitude of this oscillation is
  // twice the amplitude of the phase jump."
  TurnLoopConfig tl = paper_loop();
  tl.control_enabled = false;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  double min_deg = 1e9, max_deg = -1e9;
  loop.run(static_cast<std::int64_t>(2.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             if (r.time_s < 0.5e-3) return;
             min_deg = std::min(min_deg, rad_to_deg(r.phase_rad));
             max_deg = std::max(max_deg, rad_to_deg(r.phase_rad));
           });
  EXPECT_NEAR(max_deg - min_deg, 16.0, 1.0);
}

TEST(TurnLoop, OscillationAtTargetSynchrotronFrequency) {
  TurnLoopConfig tl = paper_loop();
  tl.control_enabled = false;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  std::vector<double> ts, ph;
  loop.run(static_cast<std::int64_t>(6.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             ts.push_back(r.time_s);
             ph.push_back(r.phase_rad);
           });
  const double f = estimate_oscillation_frequency_hz(ts, ph, 0.7e-3, 5.5e-3);
  EXPECT_NEAR(f, 1280.0, 30.0);
}

TEST(TurnLoop, ControlDampsOscillation) {
  TurnLoopConfig tl = paper_loop();
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  std::vector<double> ts, ph;
  loop.run(static_cast<std::int64_t>(25.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             ts.push_back(r.time_s);
             ph.push_back(rad_to_deg(r.phase_rad));
           });
  const double early = peak_to_peak(ts, ph, 0.5e-3, 2.0e-3);
  const double late = peak_to_peak(ts, ph, 20.0e-3, 25.0e-3);
  EXPECT_GT(early, 12.0);       // excited
  EXPECT_LT(late, 0.15 * early);  // damped out
  // The new equilibrium sits ~8 degrees away (offset tracks the jump).
  EXPECT_NEAR(mean_in_window(ts, ph, 20.0e-3, 25.0e-3), -8.0, 1.0);
}

TEST(TurnLoop, ControlOffLeavesOscillationRinging) {
  TurnLoopConfig tl = paper_loop();
  tl.control_enabled = false;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  std::vector<double> ts, ph;
  loop.run(static_cast<std::int64_t>(25.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             ts.push_back(r.time_s);
             ph.push_back(rad_to_deg(r.phase_rad));
           });
  const double early = peak_to_peak(ts, ph, 0.5e-3, 2.0e-3);
  const double late = peak_to_peak(ts, ph, 20.0e-3, 25.0e-3);
  EXPECT_GT(late, 0.7 * early);  // still ringing (single macro particle)
}

TEST(TurnLoop, RuntimeControlToggle) {
  TurnLoopConfig tl = paper_loop();
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  loop.enable_control(false);
  loop.run(static_cast<std::int64_t>(5.0e-3 * tl.f_ref_hz));
  double amp_off = 0.0;
  loop.run(static_cast<std::int64_t>(2.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             amp_off = std::max(amp_off, std::abs(rad_to_deg(r.phase_rad) + 8.0));
           });
  EXPECT_GT(amp_off, 5.0);
  loop.enable_control(true);
  loop.run(static_cast<std::int64_t>(20.0e-3 * tl.f_ref_hz));
  double amp_on = 0.0;
  loop.run(static_cast<std::int64_t>(2.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             amp_on = std::max(amp_on, std::abs(rad_to_deg(r.phase_rad) + 8.0));
           });
  EXPECT_LT(amp_on, 0.3 * amp_off);
}

TEST(TurnLoop, CycleAccurateMatchesFunctional) {
  TurnLoopConfig a = paper_loop();
  a.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.2e-3);
  TurnLoopConfig b = a;
  b.cycle_accurate = true;
  TurnLoop la(a), lb(b);
  for (int i = 0; i < 2000; ++i) {
    const TurnRecord ra = la.step();
    const TurnRecord rb = lb.step();
    ASSERT_DOUBLE_EQ(ra.dt_s, rb.dt_s) << "turn " << i;
    ASSERT_DOUBLE_EQ(ra.phase_rad, rb.phase_rad) << "turn " << i;
  }
}

TEST(TurnLoop, UnpipelinedKernelWorksToo) {
  TurnLoopConfig tl = paper_loop(/*pipelined=*/false);
  tl.control_enabled = false;
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  TurnLoop loop(tl);
  double max_dev = 0.0;
  loop.run(static_cast<std::int64_t>(3.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             max_dev = std::max(max_dev, std::abs(rad_to_deg(r.phase_rad)));
           });
  EXPECT_NEAR(max_dev, 16.0, 1.0);
}

TEST(TurnLoop, PeriodQuantisationIsSmallPerturbation) {
  TurnLoopConfig tl = paper_loop();
  tl.control_enabled = false;
  tl.quantise_period = true;
  TurnLoop loop(tl);
  loop.run(4000);
  // Quantising the period detector to the capture clock shifts dT by less
  // than half a sample period.
  EXPECT_LT(std::abs(loop.step().phase_rad),
            kTwoPi * 4 * 800.0e3 * 2.0e-9);
}

TEST(TurnLoop, DisplacementOscillatesWithoutStimulus) {
  TurnLoopConfig tl = paper_loop();
  tl.control_enabled = false;
  TurnLoop loop(tl);
  loop.displace(0.0, 5.0e-9);
  double min_dt = 1e9, max_dt = -1e9;
  loop.run(static_cast<std::int64_t>(2.0e-3 * tl.f_ref_hz),
           [&](const TurnRecord& r) {
             min_dt = std::min(min_dt, r.dt_s);
             max_dt = std::max(max_dt, r.dt_s);
           });
  EXPECT_NEAR(max_dt, 5.0e-9, 1.0e-9);
  EXPECT_NEAR(min_dt, -5.0e-9, 1.0e-9);
}

TEST(TurnLoop, CheckpointRestoreReplaysBitExactly) {
  // The oracle's strided scan rolls a loop back mid-run and replays; the
  // replayed records must be bit-identical to the originals (pipelined
  // kernel: the checkpoint must carry the pipeline registers too, not just
  // the loop-carried states).
  TurnLoopConfig tl = paper_loop();
  tl.jumps = ctrl::PhaseJumpProgramme(deg_to_rad(8.0), 1.0, 0.5e-3);
  tl.phase_noise_rad = 1.0e-4;  // exercises the Rng image as well
  TurnLoop loop(tl);
  loop.run(1500);
  const TurnLoop::Checkpoint cp = loop.checkpoint();
  std::vector<TurnRecord> first;
  for (int i = 0; i < 500; ++i) first.push_back(loop.step());
  loop.restore(cp);
  for (int i = 0; i < 500; ++i) {
    const TurnRecord r = loop.step();
    ASSERT_EQ(r.time_s, first[static_cast<std::size_t>(i)].time_s) << i;
    ASSERT_EQ(r.phase_rad, first[static_cast<std::size_t>(i)].phase_rad) << i;
    ASSERT_EQ(r.dt_s, first[static_cast<std::size_t>(i)].dt_s) << i;
    ASSERT_EQ(r.dgamma, first[static_cast<std::size_t>(i)].dgamma) << i;
    ASSERT_EQ(r.correction_hz,
              first[static_cast<std::size_t>(i)].correction_hz) << i;
  }
}

TEST(TurnLoop, CheckpointRejectsFaultedAndSupervisedLoops) {
  TurnLoopConfig tl = paper_loop();
  tl.faults.entries.push_back(fault::FaultSpec{
      .kind = fault::FaultKind::kRefDropout,
      .start_tick = 10,
      .duration = 5,
      .target = {}});
  TurnLoop faulted(tl);
  EXPECT_THROW((void)faulted.checkpoint(), std::logic_error);

  TurnLoopConfig sup = paper_loop();
  sup.supervisor.enabled = true;
  TurnLoop supervised(sup);
  EXPECT_THROW((void)supervised.checkpoint(), std::logic_error);
}

TEST(TurnLoop, RealtimeHeadroomAtPaperFrequencies) {
  // §IV-B: pipelined single-bunch kernel sustains ≈1.19 MHz at 111 MHz; at
  // 800 kHz there is headroom, at 1.4 MHz (SIS18 max) there is not.
  TurnLoopConfig tl = paper_loop();
  TurnLoop loop(tl);
  const double fmax = loop.kernel().schedule.max_revolution_frequency_hz(
      loop.kernel().arch.clock_hz);
  EXPECT_GT(fmax, 800.0e3);
  EXPECT_LT(fmax, 1.4e6);
}

}  // namespace
}  // namespace citl::hil
