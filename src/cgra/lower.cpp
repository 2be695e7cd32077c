#include "cgra/lower.hpp"

#include <cmath>
#include <map>
#include <optional>

#include "cgra/exec.hpp"
#include "cgra/parser.hpp"
#include "core/error.hpp"

namespace citl::cgra {

namespace {

class Lowerer {
 public:
  Dfg run(const Program& prog) {
    for (const Stmt& s : prog.stmts) lower_stmt(s);
    finalise_states();
    dfg_.validate();
    return std::move(dfg_);
  }

 private:
  struct Symbol {
    NodeId value = kNoNode;
    bool is_state = false;
    bool is_param = false;
  };

  [[noreturn]] void fail(const std::string& msg, int line, int col) const {
    throw CompileError(msg, line, col);
  }

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kPipelineSplit: {
        if (stage_ == 1) fail("only one pipeline_split allowed", s.line, s.column);
        stage_ = 1;
        return;
      }
      case Stmt::Kind::kCallStmt: {
        const NodeId addr = lower_expr(*s.address);
        const NodeId val = lower_expr(*s.value);
        dfg_.add_store(addr, val, stage_);
        return;
      }
      case Stmt::Kind::kDecl: {
        if (symbols_.contains(s.name)) {
          fail("redeclaration of '" + s.name + "'", s.line, s.column);
        }
        switch (s.storage) {
          case Stmt::Storage::kParam: {
            if (stage_ != 0) fail("params must be declared before pipeline_split",
                                  s.line, s.column);
            const double init = require_const_init(s);
            const NodeId id = dfg_.add_param(s.name, init);
            symbols_[s.name] = Symbol{id, false, true};
            return;
          }
          case Stmt::Storage::kState: {
            if (stage_ != 0) fail("states must be declared before pipeline_split",
                                  s.line, s.column);
            const double init = require_const_init(s);
            const NodeId id = dfg_.add_state(s.name, init);
            symbols_[s.name] = Symbol{id, true, false};
            return;
          }
          case Stmt::Storage::kLocal: {
            if (!s.value) {
              fail("local '" + s.name + "' needs an initialiser", s.line,
                   s.column);
            }
            const NodeId id = lower_expr(*s.value);
            symbols_[s.name] = Symbol{id, false, false};
            return;
          }
        }
        return;
      }
      case Stmt::Kind::kAssign: {
        auto it = symbols_.find(s.name);
        if (it == symbols_.end()) {
          fail("assignment to undeclared '" + s.name + "'", s.line, s.column);
        }
        if (it->second.is_param) {
          fail("cannot assign to param '" + s.name + "'", s.line, s.column);
        }
        it->second.value = lower_expr(*s.value);
        return;
      }
    }
  }

  double require_const_init(const Stmt& s) {
    if (!s.value) return 0.0;
    const std::optional<double> c = fold_expr(*s.value);
    if (!c) {
      fail("initialiser of '" + s.name + "' must be a constant expression",
           s.line, s.column);
    }
    return *c;
  }

  /// Compile-time evaluation of constant expressions (for initialisers).
  std::optional<double> fold_expr(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return e.number;
      case Expr::Kind::kUnary: {
        const auto v = fold_expr(*e.args[0]);
        return v ? std::optional<double>(-*v) : std::nullopt;
      }
      case Expr::Kind::kBinary: {
        const auto a = fold_expr(*e.args[0]);
        const auto b = fold_expr(*e.args[1]);
        if (!a || !b) return std::nullopt;
        return fold_binary(e.name, *a, *b);
      }
      default:
        return std::nullopt;
    }
  }

  static std::optional<double> fold_binary(const std::string& op, double a,
                                           double b) {
    if (op == "+") return a + b;
    if (op == "-") return a - b;
    if (op == "*") return a * b;
    if (op == "/") return b != 0.0 ? std::optional<double>(a / b) : std::nullopt;
    if (op == "<") return a < b ? 1.0 : 0.0;
    if (op == "<=") return a <= b ? 1.0 : 0.0;
    if (op == ">") return a > b ? 1.0 : 0.0;
    if (op == ">=") return a >= b ? 1.0 : 0.0;
    if (op == "==") return a == b ? 1.0 : 0.0;
    if (op == "!=") return a != b ? 1.0 : 0.0;
    return std::nullopt;
  }

  [[nodiscard]] bool is_const(NodeId id) const {
    return dfg_.node(id).kind == OpKind::kConst;
  }
  [[nodiscard]] double const_of(NodeId id) const {
    return dfg_.node(id).constant;
  }

  NodeId binary(OpKind k, const std::string& op, NodeId a, NodeId b) {
    // Fold literal operands so the context memories stay lean.
    if (is_const(a) && is_const(b)) {
      const auto f = fold_binary(op, const_of(a), const_of(b));
      if (f) return dfg_.add_const(*f);
    }
    return dfg_.add_binary(k, a, b, stage_);
  }

  NodeId lower_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return dfg_.add_const(e.number);
      case Expr::Kind::kVar: {
        const auto it = symbols_.find(e.name);
        if (it == symbols_.end()) {
          fail("use of undeclared '" + e.name + "'", e.line, e.column);
        }
        return it->second.value;
      }
      case Expr::Kind::kUnary: {
        const NodeId a = lower_expr(*e.args[0]);
        if (is_const(a)) return dfg_.add_const(-const_of(a));
        return dfg_.add_unary(OpKind::kNeg, a, stage_);
      }
      case Expr::Kind::kBinary: {
        const NodeId a = lower_expr(*e.args[0]);
        const NodeId b = lower_expr(*e.args[1]);
        if (e.name == "+") return binary(OpKind::kAdd, e.name, a, b);
        if (e.name == "-") return binary(OpKind::kSub, e.name, a, b);
        if (e.name == "*") return binary(OpKind::kMul, e.name, a, b);
        if (e.name == "/") return binary(OpKind::kDiv, e.name, a, b);
        if (e.name == "<") return binary(OpKind::kCmpLt, e.name, a, b);
        if (e.name == "<=") return binary(OpKind::kCmpLe, e.name, a, b);
        // a > b  <=>  b < a ;  a >= b  <=>  b <= a
        if (e.name == ">") return binary(OpKind::kCmpLt, "<", b, a);
        if (e.name == ">=") return binary(OpKind::kCmpLe, "<=", b, a);
        if (e.name == "==") return binary(OpKind::kCmpEq, e.name, a, b);
        if (e.name == "!=") {
          const NodeId eq = binary(OpKind::kCmpEq, "==", a, b);
          if (is_const(eq)) return dfg_.add_const(const_of(eq) == 0.0 ? 1 : 0);
          return dfg_.add_select(eq, dfg_.add_const(0.0), dfg_.add_const(1.0),
                                 stage_);
        }
        fail("unknown operator '" + e.name + "'", e.line, e.column);
      }
      case Expr::Kind::kTernary: {
        const NodeId c = lower_expr(*e.args[0]);
        const NodeId a = lower_expr(*e.args[1]);
        const NodeId b = lower_expr(*e.args[2]);
        if (is_const(c)) return const_of(c) != 0.0 ? a : b;
        return dfg_.add_select(c, a, b, stage_);
      }
      case Expr::Kind::kCall:
        return lower_call(e);
    }
    fail("internal: unhandled expression", e.line, e.column);
  }

  NodeId lower_call(const Expr& e) {
    auto expect_args = [&](std::size_t n) {
      if (e.args.size() != n) {
        fail(e.name + " expects " + std::to_string(n) + " argument(s)",
             e.line, e.column);
      }
    };
    if (e.name == "sensor_read") {
      expect_args(1);
      return dfg_.add_load(lower_expr(*e.args[0]), stage_);
    }
    if (e.name == "sqrtf") {
      expect_args(1);
      const NodeId a = lower_expr(*e.args[0]);
      if (is_const(a) && const_of(a) >= 0.0) {
        return dfg_.add_const(std::sqrt(const_of(a)));
      }
      return dfg_.add_unary(OpKind::kSqrt, a, stage_);
    }
    if (e.name == "fabsf") {
      expect_args(1);
      const NodeId a = lower_expr(*e.args[0]);
      if (is_const(a)) return dfg_.add_const(std::fabs(const_of(a)));
      return dfg_.add_unary(OpKind::kAbs, a, stage_);
    }
    if (e.name == "floorf") {
      expect_args(1);
      const NodeId a = lower_expr(*e.args[0]);
      if (is_const(a)) return dfg_.add_const(std::floor(const_of(a)));
      return dfg_.add_unary(OpKind::kFloor, a, stage_);
    }
    if (e.name == "sinf") {
      expect_args(1);
      const NodeId a = lower_expr(*e.args[0]);
      if (is_const(a)) return dfg_.add_const(std::sin(const_of(a)));
      return dfg_.add_unary(OpKind::kSin, a, stage_);
    }
    if (e.name == "cosf") {
      expect_args(1);
      const NodeId a = lower_expr(*e.args[0]);
      if (is_const(a)) return dfg_.add_const(std::cos(const_of(a)));
      return dfg_.add_unary(OpKind::kCos, a, stage_);
    }
    if (e.name == "fminf" || e.name == "fmaxf") {
      expect_args(2);
      const bool min = e.name == "fminf";
      // The second operand lowers first: node ids, and the schedules that
      // tie-break on them, depend on this order.
      const NodeId b = lower_expr(*e.args[1]);
      const NodeId a = lower_expr(*e.args[0]);
      if (is_const(a) && is_const(b)) {
        return dfg_.add_const(min ? detail::pe_min(const_of(a), const_of(b))
                                  : detail::pe_max(const_of(a), const_of(b)));
      }
      return dfg_.add_binary(min ? OpKind::kMin : OpKind::kMax, a, b, stage_);
    }
    fail("unknown builtin '" + e.name + "'", e.line, e.column);
  }

  void finalise_states() {
    // The last value bound to a state variable becomes next iteration's
    // state; an unassigned state keeps its value (identity update).
    for (const StateVar& sv : dfg_.states()) {
      const Symbol& sym = symbols_.at(sv.name);
      dfg_.set_state_update(sv.name, sym.value);
    }
  }

  Dfg dfg_;
  std::map<std::string, Symbol> symbols_;
  int stage_ = 0;
};

}  // namespace

Dfg lower(const Program& program) {
  Lowerer l;
  return l.run(program);
}

Dfg compile_to_dfg(std::string_view source) { return lower(parse(source)); }

}  // namespace citl::cgra
