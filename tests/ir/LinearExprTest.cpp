#include "ir/LinearExpr.h"

#include "ir/CheckExpr.h"
#include "ir/Symbol.h"

#include <gtest/gtest.h>

using namespace nascent;

namespace {

class LinearExprTest : public ::testing::Test {
protected:
  void SetUp() override {
    I = Syms.createScalar("i", ScalarType::Int);
    J = Syms.createScalar("j", ScalarType::Int);
    N = Syms.createScalar("n", ScalarType::Int);
  }
  SymbolTable Syms;
  SymbolID I = 0, J = 0, N = 0;
};

TEST_F(LinearExprTest, ConstantAndTerm) {
  LinearExpr C = LinearExpr::constant(7);
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.constantPart(), 7);

  LinearExpr T = LinearExpr::term(I, 3);
  EXPECT_FALSE(T.isConstant());
  EXPECT_EQ(T.coeff(I), 3);
  EXPECT_EQ(T.coeff(J), 0);
}

TEST_F(LinearExprTest, AdditionMergesAndCancels) {
  LinearExpr A = LinearExpr::term(I, 2) + LinearExpr::term(J, 1);
  LinearExpr B = LinearExpr::term(I, -2) + LinearExpr::constant(5);
  LinearExpr Sum = A + B;
  EXPECT_EQ(Sum.coeff(I), 0);
  EXPECT_EQ(Sum.coeff(J), 1);
  EXPECT_EQ(Sum.constantPart(), 5);
  // Cancelled terms are removed entirely (canonical form).
  EXPECT_EQ(Sum.terms().size(), 1u);
}

TEST_F(LinearExprTest, CanonicalTermOrderIndependence) {
  // i + n built in either order compares equal: the canonical order is
  // what makes syntactically different but equivalent range expressions
  // share a family (paper section 2.2).
  LinearExpr A = LinearExpr::term(I) + LinearExpr::term(N);
  LinearExpr B = LinearExpr::term(N) + LinearExpr::term(I);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST_F(LinearExprTest, ScaleAndNegate) {
  LinearExpr A = LinearExpr::term(I, 2) + LinearExpr::constant(3);
  LinearExpr S = A.scaled(-2);
  EXPECT_EQ(S.coeff(I), -4);
  EXPECT_EQ(S.constantPart(), -6);
  EXPECT_EQ(A.negated().coeff(I), -2);
  EXPECT_TRUE(A.scaled(0).isConstant());
  EXPECT_EQ(A.scaled(0).constantPart(), 0);
}

TEST_F(LinearExprTest, SubtractionAndSymbolicPart) {
  LinearExpr A = LinearExpr::term(I) + LinearExpr::constant(4);
  LinearExpr B = LinearExpr::term(N, 4) + LinearExpr::constant(1);
  LinearExpr D = A - B;
  EXPECT_EQ(D.coeff(I), 1);
  EXPECT_EQ(D.coeff(N), -4);
  EXPECT_EQ(D.constantPart(), 3);
  EXPECT_EQ(D.symbolicPart().constantPart(), 0);
  EXPECT_EQ(D.symbolicPart().coeff(N), -4);
}

TEST_F(LinearExprTest, Substitute) {
  // i + 2*j with j := n - 1 becomes i + 2*n - 2.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::term(J, 2);
  LinearExpr Repl = LinearExpr::term(N) + LinearExpr::constant(-1);
  E.substitute(J, Repl);
  EXPECT_EQ(E.coeff(I), 1);
  EXPECT_EQ(E.coeff(J), 0);
  EXPECT_EQ(E.coeff(N), 2);
  EXPECT_EQ(E.constantPart(), -2);
}

TEST_F(LinearExprTest, RemoveTerm) {
  LinearExpr E = LinearExpr::term(I, 5) + LinearExpr::term(J, -1);
  EXPECT_EQ(E.removeTerm(I), 5);
  EXPECT_EQ(E.coeff(I), 0);
  EXPECT_EQ(E.removeTerm(I), 0);
}

TEST_F(LinearExprTest, Printing) {
  LinearExpr E = LinearExpr::term(I, 2) + LinearExpr::term(J, -1) +
                 LinearExpr::constant(3);
  EXPECT_EQ(E.str(Syms), "2*i - j + 3");
  EXPECT_EQ(LinearExpr::constant(0).str(Syms), "0");
  EXPECT_EQ(LinearExpr::term(I, -1).str(Syms), "-i");
}

TEST_F(LinearExprTest, CheckExprCanonicalisation) {
  // (i + 1 <= 10) canonicalises to range-expression i, bound 9.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::constant(1);
  CheckExpr C(E, 10);
  EXPECT_EQ(C.expr().constantPart(), 0);
  EXPECT_EQ(C.expr().coeff(I), 1);
  EXPECT_EQ(C.bound(), 9);
}

TEST_F(LinearExprTest, CheckExprLowerBoundNegation) {
  // (i + 1 >= 4) becomes (-i <= -3), the paper's example.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::constant(1);
  CheckExpr C = CheckExpr::fromLowerBound(E, 4);
  EXPECT_EQ(C.expr().coeff(I), -1);
  EXPECT_EQ(C.bound(), -3);
}

TEST_F(LinearExprTest, CheckExprCompileTime) {
  CheckExpr True(LinearExpr::constant(3), 5);
  EXPECT_TRUE(True.isCompileTimeConstant());
  EXPECT_TRUE(True.evaluatesToTrue());
  CheckExpr False(LinearExpr::constant(7), 5);
  EXPECT_TRUE(False.isCompileTimeConstant());
  EXPECT_FALSE(False.evaluatesToTrue());
  CheckExpr Symbolic(LinearExpr::term(I), 5);
  EXPECT_FALSE(Symbolic.isCompileTimeConstant());
}

} // namespace
