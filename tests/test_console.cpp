// Operator console (the SpartanMC serial interface analogue) and the
// schedule statistics it reports.
#include <gtest/gtest.h>

#include "cgra/kernels.hpp"
#include "cgra/lower.hpp"
#include "cgra/schedule.hpp"
#include "core/units.hpp"
#include "hil/console.hpp"
#include "phys/relativity.hpp"
#include "phys/synchrotron.hpp"

namespace citl::hil {
namespace {

FrameworkConfig console_framework() {
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

class ConsoleTest : public ::testing::Test {
 protected:
  ConsoleTest() : fw_(console_framework()), console_(fw_) {}
  Framework fw_;
  Console console_;
};

TEST_F(ConsoleTest, HelpListsCommands) {
  const std::string out = console_.execute("help");
  EXPECT_TRUE(console_.last_ok());
  for (const char* cmd : {"status", "schedule", "param", "monitor", "pulse"}) {
    EXPECT_NE(out.find(cmd), std::string::npos) << cmd;
  }
}

TEST_F(ConsoleTest, StatusReflectsProgress) {
  EXPECT_NE(console_.execute("status").find("initialised: no"),
            std::string::npos);
  console_.execute("run 0.001");
  const std::string out = console_.execute("status");
  EXPECT_NE(out.find("initialised: yes"), std::string::npos);
  EXPECT_NE(out.find("realtime violations: 0"), std::string::npos);
}

TEST_F(ConsoleTest, ScheduleStatsReported) {
  const std::string out = console_.execute("schedule");
  EXPECT_TRUE(console_.last_ok());
  EXPECT_NE(out.find("length: 87 ticks"), std::string::npos);
  EXPECT_NE(out.find("f_max:"), std::string::npos);
  EXPECT_NE(out.find("pe utilisation:"), std::string::npos);
}

TEST_F(ConsoleTest, HotspotsReportsPerOpCycleAttribution) {
  console_.execute("run 0.0005");
  const std::string out = console_.execute("hotspots");
  EXPECT_TRUE(console_.last_ok()) << out;
  EXPECT_NE(out.find("kernel '"), std::string::npos);
  EXPECT_NE(out.find("cyc/iter"), std::string::npos);
  EXPECT_NE(out.find("total_cycles"), std::string::npos);
  // The table scales by the runs executed so far, so the header shows them.
  EXPECT_NE(out.find("iterations"), std::string::npos);
}

TEST_F(ConsoleTest, RegisterRoundTrip) {
  console_.execute("set beam_pulse_scale 0.5");
  EXPECT_TRUE(console_.last_ok());
  EXPECT_EQ(console_.execute("get beam_pulse_scale"), "0.5");
  EXPECT_FALSE(console_.execute("get bogus_register").find("error") ==
               std::string::npos);
  EXPECT_FALSE(console_.last_ok());
}

TEST_F(ConsoleTest, KernelParamAndState) {
  // v_scale is the kernel's runtime parameter (§III-B: the SpartanMC "can
  // control basic parameters of the simulation").
  const std::string before = console_.execute("param v_scale");
  EXPECT_TRUE(console_.last_ok());
  console_.execute("param v_scale 1234.5");
  EXPECT_EQ(console_.execute("param v_scale"), "1234.5");
  EXPECT_NE(before, "1234.5");

  console_.execute("state dt0 1e-9");
  EXPECT_TRUE(console_.last_ok());
  // States live in the machine's binary32 domain: read back to float ulp.
  EXPECT_NEAR(std::stod(console_.execute("state dt0")), 1e-9, 1e-16);

  console_.execute("param nonexistent 1");
  EXPECT_FALSE(console_.last_ok());
}

TEST_F(ConsoleTest, MonitorAndRecordControl) {
  console_.execute("monitor beam");
  EXPECT_EQ(fw_.params().monitor_source(), MonitorSource::kBeamSignalMirror);
  console_.execute("monitor phase");
  EXPECT_EQ(fw_.params().monitor_source(), MonitorSource::kPhaseDifference);
  console_.execute("monitor nonsense");
  EXPECT_FALSE(console_.last_ok());

  console_.execute("record off");
  EXPECT_DOUBLE_EQ(fw_.params().get("record_enable"), 0.0);
  console_.execute("record on");
  EXPECT_DOUBLE_EQ(fw_.params().get("record_enable"), 1.0);
}

TEST_F(ConsoleTest, SupervisedFrameworkKeepsOperatorWrites) {
  // The supervisor scrubs the registers back to its shadow every
  // revolution; the console's writes update that shadow, so they stand and
  // count as no fault.
  FrameworkConfig fc = console_framework();
  fc.supervisor.enabled = true;
  Framework fw(fc);
  Console console(fw);
  console.execute("set beam_pulse_scale 0.5");
  console.execute("monitor beam");
  console.execute("record off");
  console.execute("run 0.0005");
  EXPECT_TRUE(console.last_ok());

  EXPECT_DOUBLE_EQ(fw.params().get("beam_pulse_scale"), 0.5);
  EXPECT_EQ(fw.params().monitor_source(), MonitorSource::kBeamSignalMirror);
  EXPECT_DOUBLE_EQ(fw.params().get("record_enable"), 0.0);
  const SupervisorStats& stats = fw.supervisor()->stats();
  EXPECT_GT(stats.checked_turns, 0);
  EXPECT_EQ(stats.faults_detected, 0);
  EXPECT_EQ(stats.param_restores, 0);
}

TEST_F(ConsoleTest, ControlLoopToggle) {
  console_.execute("control off");
  EXPECT_FALSE(fw_.control_enabled());
  console_.execute("control on");
  EXPECT_TRUE(fw_.control_enabled());
}

TEST_F(ConsoleTest, PulseReshapeChangesBeamSignal) {
  console_.execute("run 0.0005");
  console_.execute("pulse 10 0.3");  // narrower, smaller pulse
  EXPECT_TRUE(console_.last_ok());
  fw_.run_seconds(0.3e-3);
  double peak = 0.0;
  for (int i = 0; i < 80'000; ++i) {
    peak = std::max(peak, fw_.tick().beam_v);
  }
  EXPECT_NEAR(peak, 0.3, 0.03);
  EXPECT_FALSE(console_.execute("pulse -1 0.3").find("error") ==
               std::string::npos);
}

TEST_F(ConsoleTest, TraceShowsRecentSamples) {
  console_.execute("run 0.001");
  const std::string out = console_.execute("trace 3");
  EXPECT_TRUE(console_.last_ok());
  // Three lines of "<ms> ms  <deg> deg".
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find("deg"), std::string::npos);
}

TEST_F(ConsoleTest, MalformedInputNeverThrows) {
  for (const char* bad :
       {"", "set", "set x", "run", "run abc", "run 99", "frobnicate",
        "param", "pulse 1", "trace -2", "state"}) {
    EXPECT_NO_THROW(console_.execute(bad)) << bad;
  }
  EXPECT_EQ(console_.execute(""), "");
  EXPECT_TRUE(console_.last_ok());  // empty line is a no-op, not an error
}

TEST(ScheduleStatsTest, MetricsAreConsistent) {
  cgra::BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.pipelined = true;
  kc.n_bunches = 8;
  const auto k = cgra::compile_kernel(cgra::beam_kernel_source(kc),
                                      cgra::grid_5x5());
  const auto st = cgra::schedule_stats(k.dfg, k.arch, k.schedule);
  EXPECT_EQ(st.length, k.schedule.length);
  EXPECT_LE(st.critical_path, st.length);  // schedule can't beat the bound
  EXPECT_GT(st.cp_efficiency, 0.3);
  EXPECT_LE(st.cp_efficiency, 1.0);
  EXPECT_GT(st.pe_utilisation, 0.05);
  EXPECT_LE(st.pe_utilisation, 1.0);
  EXPECT_GT(st.busiest_pe_cycles, 0u);
  EXPECT_LE(st.busiest_pe_cycles, st.length);
}

TEST(ScheduleStatsTest, SerialChainHasFullEfficiencyLowUtilisation) {
  const auto k = cgra::compile_kernel(
      "state float s = 2.0;\n"
      "s = sqrtf(sqrtf(s) + 1.0);\n",
      cgra::grid_5x5());
  const auto st = cgra::schedule_stats(k.dfg, k.arch, k.schedule);
  // A pure chain: schedule length should track the critical path closely...
  EXPECT_GT(st.cp_efficiency, 0.8);
  // ...while 25 PEs sit mostly idle.
  EXPECT_LT(st.pe_utilisation, 0.2);
}

}  // namespace
}  // namespace citl::hil
