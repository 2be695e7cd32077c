// The CGRA engine at one lane: functional vs cycle-accurate equivalence,
// state and parameter handling, sensor bus interaction, float32 semantics.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "api/api.hpp"
#include "cgra/batch.hpp"
#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"

namespace citl::cgra {
namespace {

TEST(Sensor, DecodeAddressMatchesFloorDefinition) {
  // decode_address finds the region without std::floor; against the floor
  // definition its offset has the same bits for every finite address, and
  // its region is the same wherever the floor's index fits 32 bits.
  std::vector<double> addrs{0.0, -0.0, -0.5, -1.0, -65536.0, -65536.5,
                            -1e-310, -DBL_MIN, -1e300, -DBL_MAX};
  for (std::uint32_t r = 0; r <= 6; ++r) {
    const double boundary = static_cast<double>(r) * kRegionSize;
    const double base = region_base(static_cast<SensorRegion>(r));
    for (const double x : {boundary, base}) {
      for (const double y : {x, std::nextafter(x, -DBL_MAX),
                             std::nextafter(x, DBL_MAX), x - 0.5, x + 0.5}) {
        addrs.push_back(y);
      }
    }
  }
  for (const double big : {0x1p52, 0x1p52 + 1.0, 0x1p53, 0x1p68 - 0x1p16,
                           0x1p68, 0x1p68 + 0x1p16, 0x1p80, 1e300, DBL_MAX}) {
    addrs.push_back(big);
    addrs.push_back(std::nextafter(big, -DBL_MAX));
  }
  for (const double addr : addrs) {
    double r = std::floor(addr / kRegionSize);
    if (r < 0.0) r = 0.0;
    const double offset = addr - r * kRegionSize - kRegionBias;
    const DecodedAddress got = decode_address(addr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.offset),
              std::bit_cast<std::uint64_t>(offset))
        << "addr " << addr;
    const auto region = static_cast<std::uint32_t>(got.region);
    if (r < 0x1p32) {
      EXPECT_EQ(region, static_cast<std::uint32_t>(r)) << "addr " << addr;
    } else {
      EXPECT_EQ(region, UINT32_MAX) << "addr " << addr;
    }
  }
}

/// Scripted bus: reads return region-dependent values; writes recorded.
class ScriptedBus final : public SensorBus {
 public:
  double read(SensorRegion region, double offset) override {
    reads.emplace_back(region, offset);
    const auto it = values.find({region, offset});
    return it != values.end() ? it->second : 0.0;
  }
  void write(SensorRegion region, double offset, double value) override {
    writes.push_back({region, offset, value});
  }

  std::map<std::pair<SensorRegion, double>, double> values;
  std::vector<std::pair<SensorRegion, double>> reads;
  struct Write {
    SensorRegion region;
    double offset;
    double value;
  };
  std::vector<Write> writes;
};

TEST(Machine, CountsToTen) {
  const CompiledKernel k = compile_kernel(
      "state float n = 0.0;\n"
      "n = n + 1.0;\n",
      grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  for (int i = 0; i < 10; ++i) m.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "n"), 10.0);
  EXPECT_EQ(m.iterations(), 10u);
}

TEST(Machine, ResetRestoresInitialState) {
  const CompiledKernel k = compile_kernel(
      "state float n = 5.0;\n"
      "n = n * 2.0;\n",
      grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  m.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "n"), 10.0);
  m.reset();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "n"), 5.0);
  EXPECT_EQ(m.iterations(), 0u);
}

TEST(Machine, ParamsAreRuntimeSettable) {
  const CompiledKernel k = compile_kernel(
      "param float gain = 2.0;\n"
      "state float y = 1.0;\n"
      "y = y * gain;\n",
      grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  m.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "y"), 2.0);
  api::set_kernel_param(m, "gain", 10.0);
  EXPECT_DOUBLE_EQ(api::kernel_param(m, "gain"), 10.0);
  m.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "y"), 20.0);
  EXPECT_THROW(api::set_kernel_param(m, "nope", 0.0), ConfigError);
  EXPECT_THROW((void)api::kernel_param(m, "nope"), ConfigError);
}

TEST(Machine, StateOverride) {
  const CompiledKernel k = compile_kernel(
      "state float x = 0.0;\n"
      "x = x + 1.0;\n",
      grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  api::set_kernel_state(m, "x", 100.0);
  m.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "x"), 101.0);
  EXPECT_THROW(api::set_kernel_state(m, "nope", 0.0), ConfigError);
}

TEST(Machine, StringAndHandleApisReportIdenticalErrors) {
  // The by-name helpers resolve through param_handle / state_handle, so an
  // unknown key must produce byte-identical ConfigError text on both paths
  // — tooling greps these messages.
  const CompiledKernel k = compile_kernel(
      "param float gain = 2.0;\n"
      "state float y = 1.0;\n"
      "y = y * gain;\n",
      grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  const auto message_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "<no ConfigError>";
  };
  const std::string via_string =
      message_of([&] { api::set_kernel_param(m, "nope", 0.0); });
  const std::string via_handle =
      message_of([&] { (void)param_handle(k, "nope"); });
  EXPECT_EQ(via_string, via_handle);
  EXPECT_NE(via_string, "<no ConfigError>");
  EXPECT_EQ(message_of([&] { (void)api::kernel_state(m, "missing"); }),
            message_of([&] { (void)state_handle(k, "missing"); }));

  // Stale-handle and lane errors name the kernel and the offending key or
  // lane count, whatever the engine's width.
  EXPECT_NE(message_of([&] { m.set_param(ParamHandle{99}, 1.0, 0); })
                .find("invalid parameter handle"),
            std::string::npos);
  EXPECT_NE(message_of([&] { (void)m.state(StateHandle{99}, 0); })
                .find("invalid state handle"),
            std::string::npos);
  const ParamHandle good = param_handle(k, "gain");
  EXPECT_NE(message_of([&] { (void)m.param(good, 1); }).find("(1 lane)"),
            std::string::npos);
}

TEST(Machine, ArithmeticOperators) {
  const CompiledKernel k = compile_kernel(
      "state float s = 9.0;\n"
      "float a = sqrtf(s);\n"        // 3
      "float b = a * 4.0;\n"         // 12
      "float c = b / 8.0;\n"         // 1.5
      "float d = c - 5.0;\n"         // -3.5
      "float e = fabsf(d);\n"        // 3.5
      "float f = fminf(e, 2.0);\n"   // 2
      "float g = fmaxf(f, -1.0);\n"  // 2
      "float h = floorf(g + 0.9);\n" // 2
      "float i = -h;\n"              // -2
      "float j = i < 0.0 ? 7.0 : 8.0;\n"  // 7
      "s = j + s * 0.0;\n",
      grid_5x5());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  m.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "s"), 7.0);
}

TEST(Machine, SensorReadsAndWritesDecodeRegions) {
  const CompiledKernel k = compile_kernel(
      "state float s = 0.0;\n"
      "float p = sensor_read(32768.0);\n"         // PERIOD offset 0
      "float r = sensor_read(98304.0 + 5.0);\n"   // REF_BUF offset +5
      "float g = sensor_read(163840.0 - 3.0);\n"  // GAP_BUF offset -3
      "sensor_write(229376.0, p + r + g);\n"      // ACTUATOR offset 0
      "s = p + r + g;\n",
      grid_4x4());
  ScriptedBus bus;
  bus.values[{SensorRegion::kPeriod, 0.0}] = 1.25e-6;
  bus.values[{SensorRegion::kRefBuf, 5.0}] = 0.25;
  bus.values[{SensorRegion::kGapBuf, -3.0}] = -0.125;
  BatchedCgraMachine m(k, bus);
  m.run_iteration();
  ASSERT_EQ(bus.writes.size(), 1u);
  EXPECT_EQ(bus.writes[0].region, SensorRegion::kActuator);
  EXPECT_NEAR(bus.writes[0].offset, 0.0, 1e-9);
  EXPECT_NEAR(bus.writes[0].value, 1.25e-6 + 0.25 - 0.125, 1e-7);
  EXPECT_NEAR(api::kernel_state(m, "s"), 1.25e-6 + 0.25 - 0.125, 1e-7);
}

TEST(Machine, StoresExecuteInProgramOrder) {
  const CompiledKernel k = compile_kernel(
      "state float s = 0.0;\n"
      "sensor_write(229376.0, 1.0);\n"
      "sensor_write(229377.0, 2.0);\n"
      "sensor_write(229378.0, 3.0);\n"
      "s = s + 1.0;\n",
      grid_3x3());
  for (bool cycle_accurate : {false, true}) {
    ScriptedBus bus;
    BatchedCgraMachine m(k, bus);
    if (cycle_accurate) {
      m.run_iteration_cycle_accurate();
    } else {
      m.run_iteration();
    }
    ASSERT_EQ(bus.writes.size(), 3u);
    EXPECT_DOUBLE_EQ(bus.writes[0].value, 1.0);
    EXPECT_DOUBLE_EQ(bus.writes[1].value, 2.0);
    EXPECT_DOUBLE_EQ(bus.writes[2].value, 3.0);
  }
}

TEST(Machine, Float32QuantisationApplied) {
  // 2^-30 vanishes when added to 1.0 in binary32 but not in binary64.
  const std::string src =
      "state float s = 1.0;\n"
      "s = s + 0.00000000093132257;\n";  // 2^-30
  NullSensorBus bus;
  // The machine holds a reference to the kernel — keep them alive.
  const CompiledKernel k32 = compile_kernel(src, grid_3x3());
  const CompiledKernel k64 = compile_kernel(src, grid_3x3());
  BatchedCgraMachine m32(k32, bus, Precision::kFloat32);
  BatchedCgraMachine m64(k64, bus, Precision::kFloat64);
  m32.run_iteration();
  m64.run_iteration();
  EXPECT_DOUBLE_EQ(api::kernel_state(m32, "s"), 1.0);
  EXPECT_GT(api::kernel_state(m64, "s"), 1.0);
}

TEST(Machine, PipelinedKernelWarmupAndSteadyState) {
  // y latches stage-0's computed value from the previous iteration.
  const CompiledKernel k = compile_kernel(
      "state float n = 0.0;\n"
      "state float y = 0.0;\n"
      "float probe = n * 2.0;\n"
      "pipeline_split();\n"
      "y = probe * 1.0;\n"  // a stage-1 op, so the edge crosses the split
      "n = n + 1.0;\n",
      grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  m.run_iteration();  // stage 1 sees the pipeline register's reset value
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "y"), 0.0);
  m.run_iteration();
  m.run_iteration();
  // Steady state: y_k = probe from iteration k-1 = 2 * n at start of k-1,
  // and n at start of iteration k-1 is n_now - 2.
  const double n_now = api::kernel_state(m, "n");
  EXPECT_DOUBLE_EQ(api::kernel_state(m, "y"), 2.0 * (n_now - 2.0));
}

TEST(Machine, CycleAccurateReturnsScheduleLength) {
  const CompiledKernel k = compile_kernel(demo_oscillator_source(), grid_3x3());
  NullSensorBus bus;
  BatchedCgraMachine m(k, bus);
  EXPECT_EQ(m.run_iteration_cycle_accurate(), k.schedule.length);
}

// The central execution invariant: functional and cycle-accurate modes give
// bit-identical results on every kernel we can throw at them.
class ExecutionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ExecutionEquivalence, FunctionalEqualsCycleAccurate) {
  BeamKernelConfig kc;
  kc.gamma0 = 1.2258;
  kc.v_scale = 6000.0;
  const int variant = GetParam();
  kc.n_bunches = (variant % 3 == 0) ? 1 : (variant % 3 == 1) ? 4 : 8;
  kc.pipelined = (variant / 3) != 0;
  const CompiledKernel k =
      compile_kernel(beam_kernel_source(kc), grid_5x5());

  // A deterministic pseudo-signal bus.
  class WaveBus final : public SensorBus {
   public:
    double read(SensorRegion region, double offset) override {
      switch (region) {
        case SensorRegion::kPeriod:
          return 1.25e-6;
        case SensorRegion::kRefBuf:
          return 0.8 * std::sin(0.003 * offset);
        case SensorRegion::kGapBuf:
          return 0.8 * std::sin(0.012 * offset + 0.14);
        default:
          return 0.0;
      }
    }
    void write(SensorRegion, double offset, double value) override {
      sum += offset + value;
    }
    double sum = 0.0;
  };

  WaveBus bus_f, bus_c;
  BatchedCgraMachine mf(k, bus_f);
  BatchedCgraMachine mc(k, bus_c);
  for (int i = 0; i < 50; ++i) {
    mf.run_iteration();
    mc.run_iteration_cycle_accurate();
  }
  for (const auto& s : k.dfg.states()) {
    EXPECT_EQ(api::kernel_state(mf, s.name), api::kernel_state(mc, s.name))
        << s.name;
  }
  EXPECT_DOUBLE_EQ(bus_f.sum, bus_c.sum);
}

INSTANTIATE_TEST_SUITE_P(BeamKernelVariants, ExecutionEquivalence,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace citl::cgra
