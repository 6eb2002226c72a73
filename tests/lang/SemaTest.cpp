#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace nascent;

namespace {

std::unique_ptr<Module> semaOK(const std::string &Src) {
  DiagnosticEngine D;
  Parser P(Src, D);
  auto AST = P.parseProgram();
  EXPECT_FALSE(D.hasErrors()) << D.render();
  Sema S(*AST, D);
  auto M = S.run();
  EXPECT_TRUE(M != nullptr) << D.render();
  return M;
}

void semaFails(const std::string &Src, const std::string &MsgPart) {
  DiagnosticEngine D;
  Parser P(Src, D);
  auto AST = P.parseProgram();
  ASSERT_FALSE(D.hasErrors()) << "parse should succeed: " << D.render();
  Sema S(*AST, D);
  auto M = S.run();
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(D.render().find(MsgPart), std::string::npos) << D.render();
}

TEST(Sema, BuildsModuleShells) {
  auto M = semaOK(R"(
program p
  integer n
  call s(n)
end program
subroutine s(x)
  integer x
end subroutine
)");
  EXPECT_EQ(M->entryName(), "p");
  ASSERT_NE(M->function("s"), nullptr);
  EXPECT_EQ(M->function("s")->params().size(), 1u);
  EXPECT_FALSE(M->function("s")->resultType().has_value());
}

TEST(Sema, FunctionResultType) {
  auto M = semaOK(R"(
program p
  real r
  r = f(2.0)
end program
function f(x) : real
  real x
  return x + 1.0
end function
)");
  EXPECT_EQ(M->function("f")->resultType(), ScalarType::Real);
}

TEST(Sema, ArrayArgumentByReference) {
  semaOK(R"(
program p
  real v(8)
  call fill(v)
end program
subroutine fill(a)
  real a(8)
  integer i
  do i = 1, 8
    a(i) = 0.0
  end do
end subroutine
)");
}

TEST(Sema, UndeclaredVariable) {
  semaFails("program p\n x = 1\nend program", "undeclared");
}

TEST(Sema, MissingProgramUnit) {
  semaFails("subroutine s()\nend subroutine", "exactly one 'program'");
}

TEST(Sema, DuplicateDeclaration) {
  semaFails("program p\n integer x\n real x\nend program", "redeclaration");
}

TEST(Sema, AssignToWholeArray) {
  semaFails("program p\n real a(5)\n a = 1.0\nend program", "whole array");
}

TEST(Sema, SubscriptArity) {
  semaFails("program p\n real a(5, 5)\n integer i\n a(i) = 0.0\nend program",
            "rank");
}

TEST(Sema, NonIntegerSubscript) {
  semaFails("program p\n real a(5), r\n a(r) = 0.0\nend program",
            "subscript must be integer");
}

TEST(Sema, LogicalConditionRequired) {
  semaFails("program p\n integer x\n if (x) then\n end if\nend program",
            "must be logical");
}

TEST(Sema, AssignToActiveDoIndex) {
  semaFails(R"(
program p
  integer i
  do i = 1, 3
    i = 5
  end do
end program
)",
            "active do-loop index");
}

TEST(Sema, NestedLoopIndexReuse) {
  semaFails(R"(
program p
  integer i
  do i = 1, 3
    do i = 1, 2
    end do
  end do
end program
)",
            "already in use");
}

TEST(Sema, DoBoundsMayNotUseIndex) {
  semaFails(R"(
program p
  integer i
  do i = 1, i + 3
  end do
end program
)",
            "may not reference the loop index");
}

TEST(Sema, DoIndexMustBeIntegerScalar) {
  semaFails("program p\n real x\n do x = 1, 3\n end do\nend program",
            "integer scalar");
}

TEST(Sema, CallArityMismatch) {
  semaFails(R"(
program p
  call s(1)
end program
subroutine s(a, b)
  integer a, b
end subroutine
)",
            "expects 2");
}

TEST(Sema, ArrayShapeMismatchInCall) {
  semaFails(R"(
program p
  real v(8)
  call use(v)
end program
subroutine use(a)
  real a(9)
end subroutine
)",
            "mismatched bounds");
}

TEST(Sema, WholeArrayArgMustBeVariable) {
  semaFails(R"(
program p
  real v(8)
  call use(v(1))
end program
subroutine use(a)
  real a(8)
end subroutine
)",
            "whole array");
}

TEST(Sema, FunctionCalledAsSubroutine) {
  semaFails(R"(
program p
  call f(1.0)
end program
function f(x) : real
  real x
  return x
end function
)",
            "is a function");
}

TEST(Sema, SubroutineInExpression) {
  semaFails(R"(
program p
  integer x
  x = s(1)
end program
subroutine s(a)
  integer a
end subroutine
)",
            "cannot be used in an expression");
}

TEST(Sema, LogicalArithmeticRejected) {
  semaFails("program p\n logical a, b\n a = a + b\nend program",
            "numeric operator");
}

TEST(Sema, TypePromotionAccepted) {
  // Mixed int/real arithmetic and assignments both ways are Fortran-legal.
  semaOK(R"(
program p
  integer i
  real r
  r = i + 1
  i = r * 2.0
end program
)");
}

TEST(Sema, EmptyArrayDimensionRejected) {
  semaFails("program p\n real a(5:3)\nend program", "empty dimension");
}

TEST(Sema, OverflowingArraySizeRejected) {
  // The extent of one dimension overflows int64_t...
  semaFails("program p\n real a(-9223372036854775807:9223372036854775807)\n"
            "end program",
            "too large");
  // ...or every extent fits but their product does not.
  semaFails("program p\n integer b(4000000000,4000000000,4000000000)\n"
            "end program",
            "too large");
}

TEST(Sema, ParameterMustBeDeclared) {
  semaFails(R"(
program p
  call s(1)
end program
subroutine s(x)
end subroutine
)",
            "is not declared");
}

TEST(Sema, FunctionAndArrayDisambiguation) {
  // g(2) is an array element here, f(2) a call: sema resolves by symbol.
  auto M = semaOK(R"(
program p
  integer g(5), x
  x = g(2) + f(2)
end program
function f(k) : integer
  integer k
  return k * 2
end function
)");
  (void)M;
}

} // namespace
