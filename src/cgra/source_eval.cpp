#include "cgra/source_eval.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cgra/exec.hpp"
#include "cgra/parser.hpp"
#include "core/error.hpp"

namespace citl::cgra {

/// Walks the parsed program once and lays it out as the evaluator's memory
/// and operation list, so an iteration does no lookup and no allocation.
class SourceEvaluator::Resolver {
 public:
  explicit Resolver(SourceEvaluator& ev) : ev_(ev) {}

  void run(const Program& program) {
    const Dfg& dfg = ev_.kernel_->dfg;
    for (const ParamVar& p : dfg.params()) ev_.mem_.push_back(p.default_value);
    for (const StateVar& s : dfg.states()) ev_.mem_.push_back(s.initial);
    for (const Stmt& s : program.stmts) statement(s);
    if (declared_ != dfg.params().size() + dfg.states().size()) {
      throw ConfigError("kernel source lacks params or states of kernel '" +
                        ev_.kernel_->name + "'");
    }
    // A state's update is the last value bound to its name, read in the
    // iteration that computed it (never through a pipeline register).
    for (const StateVar& sv : dfg.states()) {
      ev_.state_next_.push_back(names_.at(sv.name).slot);
    }
    ev_.next_.assign(dfg.states().size(), 0.0);
    ev_.initial_ = ev_.mem_;
  }

 private:
  /// A bound value: its slot, the stage that computed it (-1 for a
  /// constant, param or state, which both stages read directly) and, for a
  /// constant, its value.
  struct Value {
    std::uint32_t slot = 0;
    int stage = -1;
    std::optional<double> constant;
  };

  [[noreturn]] static void fail(const std::string& msg, int line, int col) {
    throw CompileError(msg, line, col);
  }

  std::uint32_t alloc(double init) {
    ev_.mem_.push_back(init);
    return static_cast<std::uint32_t>(ev_.mem_.size() - 1);
  }
  Value constant(double v) { return Value{alloc(v), -1, v}; }

  /// The slot an operation of the current stage reads `v` from: a stage-0
  /// result read in stage 1 comes from its pipeline register.
  std::uint32_t operand(const Value& v) {
    if (stage_ == 0 || v.stage != 0) return v.slot;
    auto [it, fresh] = pipe_of_.try_emplace(v.slot, 0);
    if (fresh) {
      it->second = alloc(0.0);
      ev_.pipes_.emplace_back(it->second, v.slot);
    }
    return it->second;
  }

  Value emit(OpKind kind, const Value& a, const Value& b, const Value& c) {
    ev_.ops_.push_back(
        Op{kind, alloc(0.0), operand(a), operand(b), operand(c)});
    return Value{ev_.ops_.back().out, stage_, std::nullopt};
  }

  /// Applies an operator, folding it when its operands are constants.
  /// Folding evaluates the PE operator in binary64, except that sinf/cosf
  /// fold with the host libm, and a division by zero, sqrtf of a negative
  /// number and sensor_read are left to run time.
  Value apply(OpKind kind, const Value& a, const Value& b) {
    const bool unary = op_arity(kind) == 1;
    if (kind != OpKind::kLoad && a.constant && (unary || b.constant)) {
      const double x = *a.constant;
      const double y = unary ? 0.0 : *b.constant;
      if (kind == OpKind::kSin) return constant(std::sin(x));
      if (kind == OpKind::kCos) return constant(std::cos(x));
      if (!(kind == OpKind::kDiv && y == 0.0) &&
          !(kind == OpKind::kSqrt && !(x >= 0.0))) {
        return constant(detail::eval_scalar<double>(kind, x, y, 0.0));
      }
    }
    return emit(kind, a, unary ? a : b, a);
  }

  Value expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return constant(e.number);
      case Expr::Kind::kVar: {
        const auto it = names_.find(e.name);
        if (it == names_.end()) {
          fail("use of undeclared '" + e.name + "'", e.line, e.column);
        }
        return it->second;
      }
      case Expr::Kind::kUnary: {
        const Value a = expr(*e.args[0]);
        return apply(OpKind::kNeg, a, a);
      }
      case Expr::Kind::kBinary:
      case Expr::Kind::kCall:
        return operation(e);
      case Expr::Kind::kTernary: {
        const Value c = expr(*e.args[0]);
        const Value a = expr(*e.args[1]);
        const Value b = expr(*e.args[2]);
        if (c.constant) return *c.constant != 0.0 ? a : b;
        return emit(OpKind::kSelect, c, a, b);
      }
    }
    fail("unhandled expression", e.line, e.column);
  }

  /// A binary operator or a builtin call. `a > b` is `b < a` and
  /// `a != b` selects on `a == b`, as the PE set has no other compares.
  Value operation(const Expr& e) {
    static const std::map<std::string, OpKind, std::less<>> kOps = {
        {"+", OpKind::kAdd},         {"-", OpKind::kSub},
        {"*", OpKind::kMul},         {"/", OpKind::kDiv},
        {"<", OpKind::kCmpLt},       {"<=", OpKind::kCmpLe},
        {">", OpKind::kCmpLt},       {">=", OpKind::kCmpLe},
        {"==", OpKind::kCmpEq},      {"!=", OpKind::kCmpEq},
        {"sqrtf", OpKind::kSqrt},    {"fabsf", OpKind::kAbs},
        {"floorf", OpKind::kFloor},  {"sinf", OpKind::kSin},
        {"cosf", OpKind::kCos},      {"fminf", OpKind::kMin},
        {"fmaxf", OpKind::kMax},     {"sensor_read", OpKind::kLoad}};
    const auto it = kOps.find(e.name);
    if (it == kOps.end()) fail("unknown '" + e.name + "'", e.line, e.column);
    const std::size_t arity = op_arity(it->second);
    if (e.args.size() != arity) {
      fail(e.name + " expects " + std::to_string(arity) + " argument(s)",
           e.line, e.column);
    }
    std::vector<Value> args;
    for (const ExprPtr& arg : e.args) args.push_back(expr(*arg));
    if (e.name[0] == '>') std::swap(args[0], args[1]);
    const Value r = apply(it->second, args[0], args.back());
    if (e.name != "!=") return r;
    if (r.constant) return constant(*r.constant == 0.0 ? 1.0 : 0.0);
    return emit(OpKind::kSelect, r, constant(0.0), constant(1.0));
  }

  void statement(const Stmt& s) {
    if (s.kind == Stmt::Kind::kPipelineSplit) {
      stage_ = 1;
    } else if (s.kind == Stmt::Kind::kCallStmt) {
      const Value addr = expr(*s.address);
      const Value val = expr(*s.value);
      ev_.ops_.push_back(
          Op{OpKind::kStore, 0, operand(addr), operand(val), 0});
    } else if (s.kind == Stmt::Kind::kAssign) {
      const auto it = names_.find(s.name);
      if (it == names_.end()) {
        fail("assignment to undeclared '" + s.name + "'", s.line, s.column);
      }
      it->second = expr(*s.value);
    } else {
      declare(s);
    }
  }

  void declare(const Stmt& s) {
    Value v;
    if (s.storage == Stmt::Storage::kLocal) {
      if (!s.value) {
        fail("local '" + s.name + "' needs an initialiser", s.line, s.column);
      }
      v = expr(*s.value);
    } else {
      // Params and states live at their kernel table index.
      const CompiledKernel& k = *ev_.kernel_;
      const bool state = s.storage == Stmt::Storage::kState;
      const int index = state ? find_state(k, s.name).index
                              : find_param(k, s.name).index;
      if (index < 0) {
        throw ConfigError("kernel source declares '" + s.name +
                          "', which kernel '" + k.name + "' lacks");
      }
      std::size_t slot = static_cast<std::size_t>(index);
      if (state) slot += k.dfg.params().size();
      v.slot = static_cast<std::uint32_t>(slot);
      ++declared_;
    }
    if (!names_.emplace(s.name, v).second) {
      fail("redeclaration of '" + s.name + "'", s.line, s.column);
    }
  }

  SourceEvaluator& ev_;
  std::map<std::string, Value> names_;
  std::map<std::uint32_t, std::uint32_t> pipe_of_;  ///< value -> register
  std::size_t declared_ = 0;  ///< params and states declared so far
  int stage_ = 0;
};

SourceEvaluator::SourceEvaluator(std::shared_ptr<const CompiledKernel> kernel,
                                 std::string_view source, SensorBus& bus)
    : kernel_(std::move(kernel)), bus_(&bus) {
  CITL_CHECK_MSG(kernel_ != nullptr, "source evaluator needs a kernel");
  Resolver(*this).run(parse(source));
}

unsigned SourceEvaluator::run_iteration_all_lanes() {
  double* const m = mem_.data();
  for (const Op& op : ops_) {
    if (op.kind == OpKind::kLoad) {
      const DecodedAddress da = decode_address(m[op.a]);
      m[op.out] = bus_->read(da.region, da.offset);
    } else if (op.kind == OpKind::kStore) {
      const DecodedAddress da = decode_address(m[op.a]);
      bus_->write(da.region, da.offset, m[op.b]);
    } else {
      m[op.out] =
          detail::eval_scalar<double>(op.kind, m[op.a], m[op.b], m[op.c]);
    }
  }
  // Commit: every state update reads this iteration's values, so gather
  // them before any state changes; then latch the pipeline registers.
  for (std::size_t s = 0; s < next_.size(); ++s) next_[s] = m[state_next_[s]];
  std::copy(next_.begin(), next_.end(), m + kernel_->dfg.params().size());
  for (const auto& [reg, src] : pipes_) m[reg] = m[src];
  return kernel_->schedule.length;
}

void SourceEvaluator::check_lane(std::size_t lane) const {
  if (lane != 0) detail::throw_lane_out_of_range(*kernel_, lane, 1);
}

std::size_t SourceEvaluator::slot(int index, bool is_state,
                                  std::size_t lane) const {
  check_lane(lane);
  const std::size_t params = kernel_->dfg.params().size();
  const std::size_t count = is_state ? next_.size() : params;
  if (index < 0 || static_cast<std::size_t>(index) >= count) {
    detail::throw_invalid_handle(*kernel_, is_state ? "state" : "parameter");
  }
  return (is_state ? params : 0) + static_cast<std::size_t>(index);
}

void SourceEvaluator::snapshot_states(std::size_t lane, double* out) const {
  check_lane(lane);
  std::copy_n(mem_.data() + kernel_->dfg.params().size(), next_.size(), out);
}

void SourceEvaluator::restore_states(std::size_t lane, const double* values) {
  check_lane(lane);
  std::copy_n(values, next_.size(), mem_.data() + kernel_->dfg.params().size());
}

void SourceEvaluator::snapshot_pipe_regs(std::size_t lane, double* out) const {
  check_lane(lane);
  for (const auto& [reg, src] : pipes_) *out++ = mem_[reg];
}

void SourceEvaluator::restore_pipe_regs(std::size_t lane,
                                        const double* values) {
  check_lane(lane);
  for (const auto& [reg, src] : pipes_) mem_[reg] = *values++;
}

}  // namespace citl::cgra
