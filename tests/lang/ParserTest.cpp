#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace nascent;

namespace {

std::unique_ptr<ProgramAST> parseOK(const std::string &Src) {
  DiagnosticEngine D;
  Parser P(Src, D);
  auto AST = P.parseProgram();
  EXPECT_FALSE(D.hasErrors()) << D.render();
  return AST;
}

void parseFails(const std::string &Src, const std::string &MsgPart) {
  DiagnosticEngine D;
  Parser P(Src, D);
  P.parseProgram();
  EXPECT_TRUE(D.hasErrors()) << "expected a parse error";
  EXPECT_NE(D.render().find(MsgPart), std::string::npos) << D.render();
}

TEST(Parser, MinimalProgram) {
  auto AST = parseOK("program p\nend program");
  ASSERT_EQ(AST->Units.size(), 1u);
  EXPECT_EQ(AST->Units[0]->Kind, UnitKind::Program);
  EXPECT_EQ(AST->Units[0]->Name, "p");
  EXPECT_TRUE(AST->Units[0]->Body.empty());
}

TEST(Parser, Declarations) {
  auto AST = parseOK(R"(
program p
  integer n, m
  real a(10), b(0:9, 2:5)
  logical flag
end program
)");
  const auto &Decls = AST->Units[0]->Decls;
  ASSERT_EQ(Decls.size(), 3u);
  EXPECT_EQ(Decls[0].Ty, ScalarType::Int);
  EXPECT_EQ(Decls[0].Vars.size(), 2u);
  EXPECT_EQ(Decls[1].Vars[0].Dims.size(), 1u);
  EXPECT_EQ(Decls[1].Vars[0].Dims[0], (std::pair<int64_t, int64_t>{1, 10}));
  EXPECT_EQ(Decls[1].Vars[1].Dims[0], (std::pair<int64_t, int64_t>{0, 9}));
  EXPECT_EQ(Decls[1].Vars[1].Dims[1], (std::pair<int64_t, int64_t>{2, 5}));
  EXPECT_EQ(Decls[2].Ty, ScalarType::Bool);
}

TEST(Parser, NegativeArrayBounds) {
  auto AST = parseOK("program p\n real a(-3:3)\nend program");
  EXPECT_EQ(AST->Units[0]->Decls[0].Vars[0].Dims[0],
            (std::pair<int64_t, int64_t>{-3, 3}));
}

TEST(Parser, ExpressionPrecedence) {
  auto AST = parseOK(R"(
program p
  integer x, y
  x = 1 + 2 * 3
  y = -x + 4
end program
)");
  auto &S0 = static_cast<AssignStmt &>(*AST->Units[0]->Body[0]);
  auto &Add = static_cast<BinaryExpr &>(*S0.Value);
  EXPECT_EQ(Add.Op, BinaryOp::Add);
  EXPECT_EQ(Add.LHS->Kind, ExprKind::IntLit);
  auto &Mul = static_cast<BinaryExpr &>(*Add.RHS);
  EXPECT_EQ(Mul.Op, BinaryOp::Mul);

  auto &S1 = static_cast<AssignStmt &>(*AST->Units[0]->Body[1]);
  auto &Add2 = static_cast<BinaryExpr &>(*S1.Value);
  EXPECT_EQ(Add2.LHS->Kind, ExprKind::Unary);
}

TEST(Parser, LogicalPrecedence) {
  // a < b and not c or d parses as ((a<b) and (not c)) or d.
  auto AST = parseOK(R"(
program p
  integer a, b
  logical c, d, r
  r = a < b and not c or d
end program
)");
  auto &S = static_cast<AssignStmt &>(*AST->Units[0]->Body[0]);
  auto &Or = static_cast<BinaryExpr &>(*S.Value);
  EXPECT_EQ(Or.Op, BinaryOp::Or);
  auto &And = static_cast<BinaryExpr &>(*Or.LHS);
  EXPECT_EQ(And.Op, BinaryOp::And);
  auto &Cmp = static_cast<BinaryExpr &>(*And.LHS);
  EXPECT_EQ(Cmp.Op, BinaryOp::Lt);
  EXPECT_EQ(And.RHS->Kind, ExprKind::Unary);
}

TEST(Parser, IfElseifElseDesugaring) {
  auto AST = parseOK(R"(
program p
  integer x
  if (x < 1) then
    x = 1
  elseif (x < 2) then
    x = 2
  else
    x = 3
  end if
end program
)");
  auto &If = static_cast<IfStmt &>(*AST->Units[0]->Body[0]);
  ASSERT_EQ(If.Else.size(), 1u);
  EXPECT_EQ(If.Else[0]->Kind, StmtKind::If);
  auto &Nested = static_cast<IfStmt &>(*If.Else[0]);
  EXPECT_EQ(Nested.Then.size(), 1u);
  EXPECT_EQ(Nested.Else.size(), 1u);
}

TEST(Parser, DoLoopWithStep) {
  auto AST = parseOK(R"(
program p
  integer i, n, s
  do i = 1, n
    s = s + i
  end do
  do i = n, 1, -2
    s = s - i
  end do
end program
)");
  auto &D0 = static_cast<DoStmt &>(*AST->Units[0]->Body[0]);
  EXPECT_EQ(D0.Step, 1);
  auto &D1 = static_cast<DoStmt &>(*AST->Units[0]->Body[1]);
  EXPECT_EQ(D1.Step, -2);
}

TEST(Parser, WhileLoop) {
  auto AST = parseOK(R"(
program p
  integer i
  while (i < 10) do
    i = i + 1
  end while
end program
)");
  auto &W = static_cast<WhileStmt &>(*AST->Units[0]->Body[0]);
  EXPECT_EQ(W.Body.size(), 1u);
}

TEST(Parser, Intrinsics) {
  auto AST = parseOK(R"(
program p
  integer a, b, c
  real r
  a = mod(b, 4)
  a = min(a, b, c)
  a = abs(a)
  r = real(a)
  a = int(r)
  a = max(a, b)
end program
)");
  auto &Body = AST->Units[0]->Body;
  EXPECT_EQ(static_cast<BinaryExpr &>(
                *static_cast<AssignStmt &>(*Body[0]).Value)
                .Op,
            BinaryOp::Mod);
  // min with 3 args folds left into nested Min.
  auto &MinE = static_cast<BinaryExpr &>(
      *static_cast<AssignStmt &>(*Body[1]).Value);
  EXPECT_EQ(MinE.Op, BinaryOp::Min);
  EXPECT_EQ(MinE.LHS->Kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<UnaryExpr &>(
                *static_cast<AssignStmt &>(*Body[2]).Value)
                .Op,
            UnaryOp::Abs);
  EXPECT_EQ(static_cast<UnaryExpr &>(
                *static_cast<AssignStmt &>(*Body[3]).Value)
                .Op,
            UnaryOp::RealCast);
  EXPECT_EQ(static_cast<UnaryExpr &>(
                *static_cast<AssignStmt &>(*Body[4]).Value)
                .Op,
            UnaryOp::IntCast);
}

TEST(Parser, SubroutineAndFunction) {
  auto AST = parseOK(R"(
program p
  call s(1, 2)
end program
subroutine s(a, b)
  integer a, b
end subroutine
function f(x) : real
  real x
  return x * 2.0
end function
)");
  ASSERT_EQ(AST->Units.size(), 3u);
  EXPECT_EQ(AST->Units[1]->Kind, UnitKind::Subroutine);
  EXPECT_EQ(AST->Units[1]->Params.size(), 2u);
  EXPECT_EQ(AST->Units[2]->Kind, UnitKind::Function);
  EXPECT_EQ(AST->Units[2]->ResultTy, ScalarType::Real);
}

TEST(Parser, ArrayAssignAndRef) {
  auto AST = parseOK(R"(
program p
  real a(10, 10)
  integer i, j
  a(i, j + 1) = a(i, j) + 1.0
end program
)");
  auto &S = static_cast<ArrayAssignStmt &>(*AST->Units[0]->Body[0]);
  EXPECT_EQ(S.Indices.size(), 2u);
  EXPECT_EQ(S.Name, "a");
}

TEST(Parser, ErrorMissingThen) {
  parseFails("program p\n integer x\n if (x < 1) x = 2 end if\nend program",
             "'then'");
}

TEST(Parser, ErrorBadUnitStart) {
  parseFails("banana", "expected 'program'");
}

TEST(Parser, ErrorUnterminatedParen) {
  parseFails("program p\n integer x\n x = (1 + 2\nend program", "')'");
}

TEST(Parser, ErrorNonConstantArrayBound) {
  parseFails("program p\n integer n\n real a(n)\nend program",
             "integer constants");
}

TEST(Parser, ErrorVariableStep) {
  parseFails("program p\n integer i, s\n do i = 1, 9, s\n end do\nend program",
             "integer constant");
}

TEST(Parser, IntegerLiteralOverflowInSourceOrder) {
  // The parser reads one token ahead, but the literal's error is reported
  // when the literal becomes current: after the parse error on the token
  // before it.
  DiagnosticEngine D;
  Parser P("program p\n integer k\n k = = 99999999999999999999\n"
           " k = 9223372036854775807\nend program",
           D);
  P.parseProgram();
  const auto &Diags = D.diagnostics();
  ASSERT_EQ(Diags.size(), 2u) << D.render();
  EXPECT_EQ(Diags[0].Loc, SourceLocation(3, 6));
  EXPECT_EQ(Diags[1].Loc, SourceLocation(3, 8));
  EXPECT_EQ(Diags[1].Message, "integer literal 99999999999999999999 does not "
                              "fit in 64 bits (the largest is "
                              "9223372036854775807)");
}

} // namespace
