#include "cgra/machine.hpp"

#include <string>

#include "core/error.hpp"

namespace citl::cgra {

namespace {

[[noreturn]] void throw_unknown(const CompiledKernel& kernel, const char* what,
                                std::string_view name) {
  std::string msg = "unknown kernel ";
  msg += what;
  msg += " '";
  msg += name;
  msg += "' in kernel '";
  msg += kernel.name;
  msg += "' (have:";
  if (std::string_view(what) == "parameter") {
    for (const auto& p : kernel.dfg.params()) msg += " " + p.name;
  } else {
    for (const auto& s : kernel.dfg.states()) msg += " " + s.name;
  }
  msg += ")";
  throw ConfigError(msg, ErrorCode::kUnknownKey);
}

}  // namespace

namespace detail {

void throw_invalid_handle(const CompiledKernel& kernel, const char* what) {
  throw ConfigError(std::string("invalid ") + what + " handle for kernel '" +
                        kernel.name + "'",
                    ErrorCode::kUnknownKey);
}

void throw_lane_out_of_range(const CompiledKernel& kernel, std::size_t lane,
                             std::size_t lanes) {
  throw ConfigError("lane " + std::to_string(lane) +
                        " out of range in kernel '" + kernel.name + "' (" +
                        std::to_string(lanes) +
                        (lanes == 1 ? " lane)" : " lanes)"),
                    ErrorCode::kOutOfRange);
}

}  // namespace detail

ParamHandle param_handle(const CompiledKernel& kernel, std::string_view name) {
  const ParamHandle h = find_param(kernel, name);
  if (!h.valid()) throw_unknown(kernel, "parameter", name);
  return h;
}

StateHandle state_handle(const CompiledKernel& kernel, std::string_view name) {
  const StateHandle h = find_state(kernel, name);
  if (!h.valid()) throw_unknown(kernel, "state", name);
  return h;
}

ParamHandle find_param(const CompiledKernel& kernel,
                       std::string_view name) noexcept {
  const auto& params = kernel.dfg.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) return ParamHandle{static_cast<int>(i)};
  }
  return ParamHandle{};
}

StateHandle find_state(const CompiledKernel& kernel,
                       std::string_view name) noexcept {
  const auto& states = kernel.dfg.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i].name == name) return StateHandle{static_cast<int>(i)};
  }
  return StateHandle{};
}

}  // namespace citl::cgra
