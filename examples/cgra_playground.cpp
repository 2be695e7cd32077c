// CGRA playground: write a kernel in the C-subset language, compile it for a
// chosen grid, inspect the SCAR dataflow graph and the per-PE context
// memories, and execute it — exactly the §III-C toolflow, in seconds.
//
// Usage: cgra_playground [kernel.c] [grid] [--save out.citlbs]
//        cgra_playground --load kernel.citlbs
//        (defaults: built-in demo kernel on a 3x3 grid)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cgra/bitstream.hpp"
#include "cgra/kernels.hpp"
#include "api/api.hpp"
#include "cgra/batch.hpp"
#include "cgra/schedule.hpp"
#include "core/error.hpp"

int main(int argc, char** argv) {
  using namespace citl;

  std::string source;
  std::string save_path, load_path;
  // Strip --save/--load from argv.
  int argn = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_path = argv[++i];
    } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
      load_path = argv[++i];
    } else {
      argv[argn++] = argv[i];
    }
  }
  argc = argn;
  if (argc > 1) {
    std::ifstream f(argv[1]);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    source = ss.str();
  } else {
    source = cgra::demo_oscillator_source();
    std::printf("no kernel given — using the built-in damped oscillator:\n"
                "------------------------------------------------------\n"
                "%s"
                "------------------------------------------------------\n\n",
                source.c_str());
  }
  const int grid = argc > 2 ? std::atoi(argv[2]) : 3;

  try {
    cgra::CompiledKernel kernel;
    if (!load_path.empty()) {
      kernel = cgra::load_bitstream_file(load_path);
      std::printf("loaded bitstream %s (%dx%d grid)\n\n", load_path.c_str(),
                  kernel.arch.rows, kernel.arch.cols);
    } else {
      kernel = cgra::compile_kernel(source, cgra::make_grid(grid, grid));
    }
    const cgra::CgraArch& arch = kernel.arch;

    std::printf("SCAR dataflow graph (%zu nodes):\n%s\n",
                kernel.dfg.size(), kernel.dfg.dump().c_str());
    std::printf("context memories:\n%s\n", kernel.dump_contexts().c_str());
    std::printf("initiation interval: %u ticks => up to %.3f MHz iteration "
                "rate at the %.0f MHz CGRA clock\n\n",
                kernel.schedule.length,
                kernel.schedule.max_revolution_frequency_hz(arch.clock_hz) /
                    1e6,
                arch.clock_hz / 1e6);

    const auto stats = cgra::schedule_stats(kernel.dfg, arch, kernel.schedule);
    std::printf("schedule quality: critical path %u ticks (%.0f%% efficiency), "
                "PE utilisation %.0f%%, %zu route hops\n\n",
                stats.critical_path, 100.0 * stats.cp_efficiency,
                100.0 * stats.pe_utilisation, stats.route_hops);

    if (!save_path.empty()) {
      cgra::save_bitstream_file(save_path, kernel);
      std::printf("saved bitstream to %s (reload with --load)\n\n",
                  save_path.c_str());
    }

    // Execute a few iterations; print states each time.
    cgra::NullSensorBus bus;
    cgra::BatchedCgraMachine machine(kernel, bus);
    std::printf("executing 10 iterations (cycle-accurate):\n");
    for (int i = 0; i < 10; ++i) {
      machine.run_iteration_cycle_accurate();
      std::printf("  iter %2d:", i + 1);
      for (const auto& s : kernel.dfg.states()) {
        std::printf("  %s = %+.6f", s.name.c_str(),
                    citl::api::kernel_state(machine, s.name));
      }
      std::printf("\n");
    }
  } catch (const CompileError& e) {
    std::fprintf(stderr, "compile error: %s\n", e.what());
    return 1;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }
  return 0;
}
