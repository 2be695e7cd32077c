// Kernel-language frontend: lexer, parser, lowering, constant folding.
#include <gtest/gtest.h>

#include "cgra/lexer.hpp"
#include "cgra/lower.hpp"
#include "cgra/parser.hpp"
#include "core/error.hpp"

namespace citl::cgra {
namespace {

// ---- lexer -----------------------------------------------------------------

TEST(Lexer, TokenisesBasicProgram) {
  const auto toks = lex("float x = 1.5;\n");
  ASSERT_EQ(toks.size(), 6u);  // float x = 1.5 ; <end>
  EXPECT_TRUE(toks[0].is_ident("float"));
  EXPECT_TRUE(toks[1].is_ident("x"));
  EXPECT_TRUE(toks[2].is_punct("="));
  EXPECT_EQ(toks[3].kind, TokKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[3].number, 1.5);
  EXPECT_TRUE(toks[4].is_punct(";"));
  EXPECT_EQ(toks[5].kind, TokKind::kEnd);
}

TEST(Lexer, NumberForms) {
  const auto toks = lex("1 2.5 .5 3e8 2.5e-7 1.0f 299792458.0");
  EXPECT_DOUBLE_EQ(toks[0].number, 1.0);
  EXPECT_DOUBLE_EQ(toks[1].number, 2.5);
  EXPECT_DOUBLE_EQ(toks[2].number, 0.5);
  EXPECT_DOUBLE_EQ(toks[3].number, 3e8);
  EXPECT_DOUBLE_EQ(toks[4].number, 2.5e-7);
  EXPECT_DOUBLE_EQ(toks[5].number, 1.0);
  EXPECT_DOUBLE_EQ(toks[6].number, 299792458.0);
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("// line comment\nx /* block\ncomment */ y");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_TRUE(toks[0].is_ident("x"));
  EXPECT_TRUE(toks[1].is_ident("y"));
}

TEST(Lexer, TwoCharOperators) {
  const auto toks = lex("<= >= == != < >");
  EXPECT_TRUE(toks[0].is_punct("<="));
  EXPECT_TRUE(toks[1].is_punct(">="));
  EXPECT_TRUE(toks[2].is_punct("=="));
  EXPECT_TRUE(toks[3].is_punct("!="));
  EXPECT_TRUE(toks[4].is_punct("<"));
  EXPECT_TRUE(toks[5].is_punct(">"));
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].column, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].column, 3);
}

TEST(Lexer, ErrorsCarryLocation) {
  try {
    (void)lex("x = @;");
    FAIL();
  } catch (const CompileError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 5);
  }
  EXPECT_THROW(lex("/* unterminated"), CompileError);
  EXPECT_THROW(lex("1e"), CompileError);
}

// ---- parser ----------------------------------------------------------------

TEST(ParserTest, DeclarationsWithStorageClasses) {
  const Program p = parse(
      "param float k = 2.0;\n"
      "state float x = 0.0;\n"
      "float y = x + k;\n");
  ASSERT_EQ(p.stmts.size(), 3u);
  EXPECT_EQ(p.stmts[0].storage, Stmt::Storage::kParam);
  EXPECT_EQ(p.stmts[1].storage, Stmt::Storage::kState);
  EXPECT_EQ(p.stmts[2].storage, Stmt::Storage::kLocal);
}

TEST(ParserTest, PrecedenceMulOverAdd) {
  const Program p = parse("float y = 1.0 + 2.0 * 3.0;");
  const Expr& e = *p.stmts[0].value;
  ASSERT_EQ(e.kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.name, "+");
  EXPECT_EQ(e.args[1]->kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.args[1]->name, "*");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  const Program p = parse("float y = (1.0 + 2.0) * 3.0;");
  const Expr& e = *p.stmts[0].value;
  EXPECT_EQ(e.name, "*");
  EXPECT_EQ(e.args[0]->name, "+");
}

TEST(ParserTest, TernaryAndComparison) {
  const Program p = parse("float y = a > 2.0 ? a : 2.0;");
  const Expr& e = *p.stmts[0].value;
  ASSERT_EQ(e.kind, Expr::Kind::kTernary);
  EXPECT_EQ(e.args[0]->kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.args[0]->name, ">");
}

TEST(ParserTest, SensorWriteStatement) {
  const Program p = parse("sensor_write(196608.0, x + 1.0);");
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0].kind, Stmt::Kind::kCallStmt);
  ASSERT_NE(p.stmts[0].address, nullptr);
  ASSERT_NE(p.stmts[0].value, nullptr);
}

TEST(ParserTest, PipelineSplitStatement) {
  const Program p = parse("pipeline_split();");
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0].kind, Stmt::Kind::kPipelineSplit);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_THROW(parse("float = 3;"), CompileError);
  EXPECT_THROW(parse("float x = ;"), CompileError);
  EXPECT_THROW(parse("x = 1.0"), CompileError);       // missing ;
  EXPECT_THROW(parse("float x = (1.0;"), CompileError);
  EXPECT_THROW(parse("state x = 1.0;"), CompileError);  // missing float
  EXPECT_THROW(parse("float y = sqrtf(1.0;"), CompileError);
}

// ---- lowering --------------------------------------------------------------

TEST(Lower, ConstantFoldingCollapsesLiterals) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "s = s + (2.0 + 3.0) * 4.0;\n");
  // Expect: state + const(20) + add — no mul/add of literals survives.
  std::size_t arith = 0;
  bool has_20 = false;
  for (const auto& n : g.nodes()) {
    if (n.kind == OpKind::kMul) ++arith;
    if (n.kind == OpKind::kConst && n.constant == 20.0) has_20 = true;
  }
  EXPECT_EQ(arith, 0u);
  EXPECT_TRUE(has_20);
}

TEST(Lower, ConstDeduplication) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "float a = s * 2.0;\n"
      "float b = s + 2.0;\n"
      "s = a + b;\n");
  std::size_t twos = 0;
  for (const auto& n : g.nodes()) {
    if (n.kind == OpKind::kConst && n.constant == 2.0) ++twos;
  }
  EXPECT_EQ(twos, 1u);
}

TEST(Lower, SsaRenamingOnReassignment) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "float x = s + 1.0;\n"
      "x = x * 2.0;\n"
      "s = x;\n");
  // s's update is the mul node.
  EXPECT_EQ(g.node(g.states()[0].update).kind, OpKind::kMul);
}

TEST(Lower, StateUpdateDefaultsToIdentity) {
  const Dfg g = compile_to_dfg(
      "state float s = 3.5;\n"
      "float unused = s + 1.0;\n");
  EXPECT_EQ(g.states()[0].update, g.states()[0].node);
  EXPECT_DOUBLE_EQ(g.states()[0].initial, 3.5);
}

TEST(Lower, ConstantInitialiserExpressions) {
  const Dfg g = compile_to_dfg("state float s = -(1.0 + 2.0) * 2.0;\n");
  EXPECT_DOUBLE_EQ(g.states()[0].initial, -6.0);
}

TEST(Lower, SemanticErrors) {
  EXPECT_THROW(compile_to_dfg("x = 1.0;"), CompileError);           // undeclared
  EXPECT_THROW(compile_to_dfg("float y = q + 1.0;"), CompileError); // undeclared use
  EXPECT_THROW(compile_to_dfg("param float p = 1.0; p = 2.0;"),
               CompileError);                                       // assign to param
  EXPECT_THROW(compile_to_dfg("float a = 1.0; float a = 2.0;"),
               CompileError);                                       // redeclaration
  EXPECT_THROW(compile_to_dfg("state float s = 0.0; float b = s;"
                              "pipeline_split(); pipeline_split();"),
               CompileError);                                       // two splits
  EXPECT_THROW(compile_to_dfg("float x;"), CompileError);           // no init
  EXPECT_THROW(compile_to_dfg("pipeline_split(); state float s = 0.0;"),
               CompileError);  // state after split
  EXPECT_THROW(compile_to_dfg("float y = sqrtf(1.0, 2.0);"), CompileError);
  EXPECT_THROW(compile_to_dfg("float y = nonsense(1.0);"), CompileError);
}

TEST(Lower, StagesAssignedAcrossSplit) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "float a = s + 1.0;\n"
      "pipeline_split();\n"
      "float b = a * 2.0;\n"
      "s = b;\n");
  bool found_stage0_add = false, found_stage1_mul = false;
  for (const auto& n : g.nodes()) {
    if (n.kind == OpKind::kAdd && n.stage == 0) found_stage0_add = true;
    if (n.kind == OpKind::kMul && n.stage == 1) found_stage1_mul = true;
  }
  EXPECT_TRUE(found_stage0_add);
  EXPECT_TRUE(found_stage1_mul);
  EXPECT_TRUE(g.has_pipeline_stages());
}

TEST(Lower, ComparisonOperatorsLowered) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "float a = s < 1.0 ? 1.0 : 0.0;\n"
      "float b = s >= 1.0 ? 1.0 : 0.0;\n"
      "float c = s != 1.0 ? a : b;\n"
      "s = c;\n");
  std::size_t selects = 0, cmps = 0;
  for (const auto& n : g.nodes()) {
    if (n.kind == OpKind::kSelect) ++selects;
    if (n.kind == OpKind::kCmpLt || n.kind == OpKind::kCmpLe ||
        n.kind == OpKind::kCmpEq) {
      ++cmps;
    }
  }
  EXPECT_GE(selects, 3u);
  EXPECT_GE(cmps, 3u);
}

TEST(Lower, StoreOrderingChainRecorded) {
  const Dfg g = compile_to_dfg(
      "state float s = 0.0;\n"
      "sensor_write(196608.0, s);\n"
      "sensor_write(196609.0, s);\n"
      "s = s + 1.0;\n");
  ASSERT_EQ(g.stores().size(), 2u);
  const Node& second = g.node(g.stores()[1]);
  ASSERT_EQ(second.order_deps.size(), 1u);
  EXPECT_EQ(second.order_deps[0], g.stores()[0]);
}

}  // namespace
}  // namespace citl::cgra
