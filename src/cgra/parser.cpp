#include "cgra/parser.hpp"

#include <array>

#include "cgra/lexer.hpp"
#include "core/error.hpp"

namespace citl::cgra {

namespace {

constexpr std::array<std::string_view, 8> kBuiltins = {
    "sensor_read", "sqrtf", "fabsf", "fminf", "fmaxf", "floorf",
    "sinf", "cosf"};

bool is_builtin(std::string_view name) {
  for (auto b : kBuiltins) {
    if (b == name) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::string_view source) : toks_(lex(source)) {}

  Program parse_program() {
    Program prog;
    while (peek().kind != TokKind::kEnd) {
      prog.stmts.push_back(parse_stmt());
    }
    return prog;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  [[noreturn]] void fail(const std::string& msg, const Token& at) const {
    throw CompileError(msg, at.line, at.column);
  }

  void expect_punct(std::string_view p) {
    if (!peek().is_punct(p)) {
      fail("expected '" + std::string(p) + "', got '" + peek().text + "'",
           peek());
    }
    take();
  }

  std::string expect_ident() {
    if (peek().kind != TokKind::kIdent) {
      fail("expected identifier, got '" + peek().text + "'", peek());
    }
    return take().text;
  }

  Stmt parse_stmt() {
    const Token& t = peek();
    if (t.kind != TokKind::kIdent) fail("expected statement", t);

    // pipeline_split();
    if (t.is_ident("pipeline_split")) {
      Stmt s;
      s.kind = Stmt::Kind::kPipelineSplit;
      s.line = t.line;
      s.column = t.column;
      take();
      expect_punct("(");
      expect_punct(")");
      expect_punct(";");
      return s;
    }
    // sensor_write(addr, value);
    if (t.is_ident("sensor_write")) {
      Stmt s;
      s.kind = Stmt::Kind::kCallStmt;
      s.name = "sensor_write";
      s.line = t.line;
      s.column = t.column;
      take();
      expect_punct("(");
      s.address = parse_expr();
      expect_punct(",");
      s.value = parse_expr();
      expect_punct(")");
      expect_punct(";");
      return s;
    }
    // Declarations: [state|param] float name [= expr];
    Stmt::Storage storage = Stmt::Storage::kLocal;
    std::size_t save = pos_;
    if (t.is_ident("state") || t.is_ident("param")) {
      storage = t.is_ident("state") ? Stmt::Storage::kState
                                    : Stmt::Storage::kParam;
      take();
    }
    if (peek().is_ident("float")) {
      Stmt s;
      s.kind = Stmt::Kind::kDecl;
      s.storage = storage;
      s.line = peek().line;
      s.column = peek().column;
      take();
      s.name = expect_ident();
      if (peek().is_punct("=")) {
        take();
        s.value = parse_expr();
      }
      expect_punct(";");
      return s;
    }
    if (storage != Stmt::Storage::kLocal) {
      fail("'state'/'param' must be followed by 'float'", peek());
    }
    pos_ = save;

    // Assignment: name = expr;
    Stmt s;
    s.kind = Stmt::Kind::kAssign;
    s.line = t.line;
    s.column = t.column;
    s.name = expect_ident();
    expect_punct("=");
    s.value = parse_expr();
    expect_punct(";");
    return s;
  }

  ExprPtr make(Expr::Kind kind, const Token& at) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = at.line;
    e->column = at.column;
    return e;
  }

  ExprPtr parse_expr() { return parse_ternary(); }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_comparison();
    if (!peek().is_punct("?")) return cond;
    const Token& q = peek();
    take();
    ExprPtr then_e = parse_expr();
    expect_punct(":");
    ExprPtr else_e = parse_expr();
    ExprPtr e = make(Expr::Kind::kTernary, q);
    e->args.push_back(std::move(cond));
    e->args.push_back(std::move(then_e));
    e->args.push_back(std::move(else_e));
    return e;
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_additive();
    const Token& t = peek();
    if (t.is_punct("<") || t.is_punct("<=") || t.is_punct(">") ||
        t.is_punct(">=") || t.is_punct("==") || t.is_punct("!=")) {
      take();
      ExprPtr rhs = parse_additive();
      ExprPtr e = make(Expr::Kind::kBinary, t);
      e->name = t.text;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      return e;
    }
    return lhs;
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (peek().is_punct("+") || peek().is_punct("-")) {
      const Token t = take();
      ExprPtr rhs = parse_multiplicative();
      ExprPtr e = make(Expr::Kind::kBinary, t);
      e->name = t.text;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (peek().is_punct("*") || peek().is_punct("/")) {
      const Token t = take();
      ExprPtr rhs = parse_unary();
      ExprPtr e = make(Expr::Kind::kBinary, t);
      e->name = t.text;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (peek().is_punct("-")) {
      const Token t = take();
      ExprPtr inner = parse_unary();
      ExprPtr e = make(Expr::Kind::kUnary, t);
      e->name.assign(1, '-');
      e->args.push_back(std::move(inner));
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    if (t.kind == TokKind::kNumber) {
      ExprPtr e = make(Expr::Kind::kNumber, t);
      e->number = t.number;
      take();
      return e;
    }
    if (t.is_punct("(")) {
      take();
      ExprPtr inner = parse_expr();
      expect_punct(")");
      return inner;
    }
    if (t.kind == TokKind::kIdent) {
      if (is_builtin(t.text)) {
        ExprPtr e = make(Expr::Kind::kCall, t);
        e->name = t.text;
        take();
        expect_punct("(");
        if (!peek().is_punct(")")) {
          e->args.push_back(parse_expr());
          while (peek().is_punct(",")) {
            take();
            e->args.push_back(parse_expr());
          }
        }
        expect_punct(")");
        return e;
      }
      if (t.is_ident("sensor_write")) {
        fail("sensor_write is a statement, not an expression", t);
      }
      ExprPtr e = make(Expr::Kind::kVar, t);
      e->name = t.text;
      take();
      return e;
    }
    fail("expected expression, got '" + t.text + "'", t);
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse(std::string_view source) {
  Parser p(source);
  return p.parse_program();
}

}  // namespace citl::cgra
