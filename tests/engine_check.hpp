// The CGRA engine's bit-identity check and the random kernels it is fuzzed
// with, shared by the Batch and Codegen tests (test_batch.cpp,
// test_codegen.cpp), the tier-1 fuzz slice (test_engine_fuzz.cpp) and the
// slow full matrix (test_cgra_fuzz.cpp).
//
// check_engine_against_one_lane() runs a kernel on an N-lane engine and
// holds every lane to its own one-lane references: the cycle-accurate walk
// for node values, states and pipeline registers, and the one-lane
// interpreter for the order of bus writes. KernelGenerator emits states,
// params, arithmetic, sqrt/abs/min/max/floor, compares, ternaries, sensor IO
// and an optional pipeline_split.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cgra/batch.hpp"
#include "cgra/codegen.hpp"
#include "cgra/schedule.hpp"
#include "cgra/sensor.hpp"
#include "core/random.hpp"

namespace citl::test_support {

/// Generates a random well-formed kernel. All generated expressions keep
/// values finite: divisions use (1 + x*x) denominators, sqrt takes
/// absolute values, and every state update is contracted towards a bounded
/// range through a final clamp-with-ternary.
class KernelGenerator {
 public:
  explicit KernelGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    const int n_states = 1 + static_cast<int>(rng_.next_u64() % 3);
    const int n_params = static_cast<int>(rng_.next_u64() % 3);
    const int n_locals = 2 + static_cast<int>(rng_.next_u64() % 6);
    const bool pipelined = rng_.uniform() < 0.5;

    for (int i = 0; i < n_params; ++i) {
      os << "param float p" << i << " = " << literal(rng_.uniform(0.1, 2.0))
         << ";\n";
      vars_.push_back("p" + std::to_string(i));
    }
    for (int i = 0; i < n_states; ++i) {
      os << "state float s" << i << " = " << literal(rng_.uniform(-1.0, 1.0))
         << ";\n";
      vars_.push_back("s" + std::to_string(i));
      states_.push_back("s" + std::to_string(i));
    }
    // A sensor read contributes an external value.
    os << "float input = sensor_read("
       << literal(cgra::region_base(cgra::SensorRegion::kRefBuf)) << " + "
       << literal(std::floor(rng_.uniform(0.0, 16.0))) << ");\n";
    vars_.push_back("input");

    const int split_after =
        pipelined ? 1 + static_cast<int>(rng_.next_u64() %
                                         static_cast<std::uint64_t>(n_locals))
                  : -1;
    for (int i = 0; i < n_locals; ++i) {
      os << "float t" << i << " = " << expression(2) << ";\n";
      vars_.push_back("t" + std::to_string(i));
      if (i == split_after) {
        os << "pipeline_split();\n";
        // Stage-0 names stay readable in stage 1 — nothing to do.
      }
    }
    // Side effect: write something observable (one store per iteration).
    os << "sensor_write("
       << literal(cgra::region_base(cgra::SensorRegion::kActuator)) << ", "
       << vars_.back() << ");\n";
    // Contracted state updates keep the iteration bounded.
    for (const std::string& s : states_) {
      const std::string e = expression(1);
      os << s << " = (" << e << ") * 0.25 + (" << s << ") * 0.5;\n";
      os << s << " = " << s << " > 8.0 ? 8.0 : (" << s
         << " < -8.0 ? -8.0 : " << s << ");\n";
    }
    return os.str();
  }

 private:
  static std::string literal(double v) {
    std::ostringstream os;
    os.precision(9);
    os << v;
    std::string s = os.str();
    if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) {
      s += ".0";
    }
    if (!s.empty() && s[0] == '-') return "(0.0 - " + s.substr(1) + ")";
    return s;
  }

  std::string pick_var() {
    return vars_[static_cast<std::size_t>(rng_.next_u64() % vars_.size())];
  }

  std::string expression(int depth) {
    if (depth == 0 || rng_.uniform() < 0.25) {
      return rng_.uniform() < 0.3 ? literal(rng_.uniform(-2.0, 2.0))
                                  : pick_var();
    }
    switch (rng_.next_u64() % 8) {
      case 0:
        return "(" + expression(depth - 1) + " + " + expression(depth - 1) + ")";
      case 1:
        return "(" + expression(depth - 1) + " - " + expression(depth - 1) + ")";
      case 2:
        return "(" + expression(depth - 1) + " * " + expression(depth - 1) + ")";
      case 3:  // safe division
        return "(" + expression(depth - 1) + " / (1.0 + " +
               expression(depth - 1) + " * " + expression(depth - 1) + "))";
      case 4:  // safe sqrt
        return "sqrtf(fabsf(" + expression(depth - 1) + "))";
      case 5:
        return "fminf(" + expression(depth - 1) + ", " + expression(depth - 1) +
               ")";
      case 6:
        return "(" + expression(depth - 1) + " < " + expression(depth - 1) +
               " ? " + expression(depth - 1) + " : " + expression(depth - 1) +
               ")";
      default:
        return "floorf(" + expression(depth - 1) + ")";
    }
  }

  Rng rng_;
  std::vector<std::string> vars_;
  std::vector<std::string> states_;
};

/// Bit pattern of a double: the comparisons below are exact, NaN included.
inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Deterministic per-lane sensor bus. Reads are pure functions of (lane,
/// address) — the functional pass and the cycle-accurate walk are free to
/// order loads differently — with a ~800 kHz period slightly detuned per
/// lane, so kernels that re-derive gamma from it stay physical. Writes are
/// logged in issue order, as bit patterns.
class LaneFnBus final : public cgra::SensorBus {
 public:
  explicit LaneFnBus(std::size_t lane) : lane_(static_cast<double>(lane)) {}

  double read(cgra::SensorRegion region, double offset) override {
    if (region == cgra::SensorRegion::kPeriod) {
      return 1.25e-6 * (1.0 + 1.0e-4 * lane_);
    }
    return 0.8 * std::sin(0.37 * offset + 0.11 * lane_ +
                          0.5 * static_cast<double>(static_cast<int>(region)));
  }
  void write(cgra::SensorRegion region, double offset, double value) override {
    log.push_back(static_cast<std::uint64_t>(region));
    log.push_back(bits(offset));
    log.push_back(bits(value));
  }
  std::vector<std::uint64_t> log;  ///< (region, offset, value) per write

 private:
  double lane_;
};

/// Gives lane `lane` of `model` its own states and params, written to
/// `write_lane` (0 for a one-lane reference).
inline void perturb_lane(cgra::BeamModel& model, std::size_t write_lane,
                         std::size_t lane) {
  const cgra::Dfg& dfg = model.kernel().dfg;
  const auto k = static_cast<double>(lane);
  for (std::size_t i = 0; i < dfg.states().size(); ++i) {
    model.set_state(cgra::StateHandle{static_cast<int>(i)},
                    dfg.states()[i].initial +
                        1.0e-3 * k * static_cast<double>(i + 1),
                    write_lane);
  }
  for (std::size_t i = 0; i < dfg.params().size(); ++i) {
    model.set_param(cgra::ParamHandle{static_cast<int>(i)},
                    dfg.params()[i].default_value * (1.0 + 0.01 * k),
                    write_lane);
  }
}

/// Runs `kernel` on a `lanes`-wide engine at `tier` and `precision` for
/// `iterations` iterations, every fifth one a masked run_iteration_lanes
/// step over alternating halves of the lanes. After every iteration each
/// lane must equal, bit for bit, its own one-lane cycle-accurate walk (node
/// values, states, pipeline registers) and its own one-lane interpreter
/// (bus writes, in issue order), and every state must stay finite. Also
/// checks that `tier` resolved as the host allows.
inline void check_engine_against_one_lane(const cgra::CompiledKernel& kernel,
                                          std::size_t lanes,
                                          cgra::ExecTier tier,
                                          cgra::Precision precision,
                                          int iterations) {
  using namespace citl::cgra;
  std::vector<std::unique_ptr<LaneFnBus>> ca_buses, interp_buses, buses;
  std::vector<std::unique_ptr<BatchedCgraMachine>> ca, interp;
  std::vector<SensorBus*> bus_ptrs;
  for (std::size_t l = 0; l < lanes; ++l) {
    ca_buses.push_back(std::make_unique<LaneFnBus>(l));
    interp_buses.push_back(std::make_unique<LaneFnBus>(l));
    buses.push_back(std::make_unique<LaneFnBus>(l));
    bus_ptrs.push_back(buses.back().get());
    ca.push_back(
        std::make_unique<BatchedCgraMachine>(kernel, *ca_buses[l], precision));
    interp.push_back(std::make_unique<BatchedCgraMachine>(
        kernel, *interp_buses[l], precision));
    perturb_lane(*ca[l], 0, l);
    perturb_lane(*interp[l], 0, l);
  }
  PerLaneBusAdapter adapter(std::move(bus_ptrs));
  BatchedCgraMachine engine(kernel, lanes, adapter, precision, tier);
  const ExecTier resolved = tier != ExecTier::kInterpreter &&
                                    NativeKernelCache::compiler_available()
                                ? ExecTier::kNative
                                : ExecTier::kInterpreter;
  ASSERT_EQ(engine.exec_tier(), resolved);
  for (std::size_t l = 0; l < lanes; ++l) perturb_lane(engine, l, l);

  const std::size_t nodes = kernel.dfg.size();
  std::vector<double> want(nodes), got(nodes);
  std::vector<std::uint32_t> active;
  for (int iter = 0; iter < iterations; ++iter) {
    const bool masked = iter % 5 == 4;
    active.clear();
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!masked || (l + static_cast<std::size_t>(iter / 5)) % 2 == 0) {
        active.push_back(static_cast<std::uint32_t>(l));
      }
    }
    if (masked) {
      engine.run_iteration_lanes(active.data(), active.size());
    } else {
      engine.run_iteration_all_lanes();
    }
    for (const std::uint32_t l : active) {
      ca[l]->run_iteration_cycle_accurate();
      interp[l]->run_iteration();
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE("iteration " + std::to_string(iter) + ", lane " +
                   std::to_string(l));
      for (std::size_t n = 0; n < nodes; ++n) {
        const auto id = static_cast<NodeId>(n);
        EXPECT_EQ(bits(ca[l]->value(id, 0)), bits(engine.value(id, l)))
            << "node " << n;
      }
      for (std::size_t s = 0; s < kernel.dfg.states().size(); ++s) {
        const StateHandle h{static_cast<int>(s)};
        EXPECT_TRUE(std::isfinite(engine.state(h, l)))
            << "state " << kernel.dfg.states()[s].name;
        EXPECT_EQ(bits(ca[l]->state(h, 0)), bits(engine.state(h, l)))
            << "state " << kernel.dfg.states()[s].name;
      }
      ca[l]->snapshot_pipe_regs(0, want.data());
      engine.snapshot_pipe_regs(l, got.data());
      for (std::size_t n = 0; n < nodes; ++n) {
        EXPECT_EQ(bits(want[n]), bits(got[n])) << "pipeline register " << n;
      }
      EXPECT_EQ(interp_buses[l]->log, buses[l]->log) << "bus writes";
    }
    if (::testing::Test::HasFailure()) return;  // report the first divergence
  }
}

/// The fuzz property for seed `seed`: its random kernel compiles onto a
/// random 3..5 x 3..5 grid and passes check_engine_against_one_lane() over
/// 40 iterations.
inline void check_random_kernel(std::uint64_t seed, std::size_t lanes,
                                cgra::ExecTier tier,
                                cgra::Precision precision) {
  KernelGenerator gen(seed * 0x9e3779b9u + 1);
  const std::string source = gen.generate();
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(lanes) +
               " lanes, " + std::string(cgra::exec_tier_name(tier)) +
               (precision == cgra::Precision::kFloat64 ? ", f64" : ", f32") +
               ", kernel:\n" + source);
  Rng grid_rng(seed);
  const int rows = 3 + static_cast<int>(grid_rng.next_u64() % 3);
  const int cols = 3 + static_cast<int>(grid_rng.next_u64() % 3);
  cgra::CompiledKernel kernel;
  ASSERT_NO_THROW(kernel =
                      cgra::compile_kernel(source, cgra::make_grid(rows, cols)));
  check_engine_against_one_lane(kernel, lanes, tier, precision, 40);
}

}  // namespace citl::test_support
