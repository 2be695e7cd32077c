// Kernel execution tiers.
//
// The engine (BatchedCgraMachine) evaluates a compiled kernel's functional
// iteration through one of two interchangeable back ends with bit-identical
// results (the Codegen* and CgraFuzz* tests pin it per kernel and
// precision):
//
//   kInterpreter — walk the dataflow graph node by node, dispatching on
//                  OpKind, one tight loop over the lanes per node. Always
//                  available; no toolchain dependency. (The cycle-accurate
//                  mode always interprets — it is the timing twin.)
//   kNative      — straight-line C++ emitted from the dataflow graph (SIMD
//                  over the SoA lanes), compiled by the host compiler,
//                  dlopen'd and cached on disk (cgra/codegen.hpp). Falls
//                  back to kInterpreter when no compiler is available.
//   kAuto        — kNative when a host compiler can be found, else
//                  kInterpreter.
//
// The tier is a configuration knob (FrameworkConfig / TurnLoopConfig /
// api::SessionConfig); the engine resolves kAuto and the no-compiler
// fallback at construction and reports the tier it actually runs via
// exec_tier(). The enumerator values are wire and journal bytes; value 1
// belonged to a retired tier and is refused as an unknown tier.
#pragma once

#include <cstdint>
#include <string_view>

namespace citl::cgra {

enum class ExecTier : std::uint8_t {
  kInterpreter = 0,
  kNative = 2,
  kAuto = 3,
};

[[nodiscard]] constexpr std::string_view exec_tier_name(ExecTier t) noexcept {
  switch (t) {
    case ExecTier::kInterpreter: return "interpreter";
    case ExecTier::kNative: return "native";
    case ExecTier::kAuto: return "auto";
  }
  return "?";
}

}  // namespace citl::cgra
