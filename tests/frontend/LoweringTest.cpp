//===----------------------------------------------------------------------===//
///
/// \file
/// Lowering tests: naive check insertion (one lower and one upper check
/// per subscript per dimension), canonical check forms, loop shape and
/// metadata, and the syntactic-atom canonicalisation for non-affine
/// subscripts.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "ir/Verifier.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

std::vector<const Instruction *> allChecks(const Function &F) {
  std::vector<const Instruction *> Out;
  for (const auto &BB : F)
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check)
        Out.push_back(&I);
  return Out;
}

TEST(Lowering, NaiveCheckPairPerSubscript) {
  CompileResult R = compileNaive(R"(
program p
  real a(5:10)
  integer i
  i = 7
  a(i) = 1.0
end program
)");
  Function *F = R.M->entry();
  auto Checks = allChecks(*F);
  ASSERT_EQ(Checks.size(), 2u);
  SymbolID I = F->symbols().lookup("i");
  // Lower: (i >= 5) canonicalised to (-i <= -5); upper: (i <= 10).
  EXPECT_EQ(Checks[0]->Check.expr().coeff(I), -1);
  EXPECT_EQ(Checks[0]->Check.bound(), -5);
  EXPECT_FALSE(Checks[0]->Origin.IsUpper);
  EXPECT_EQ(Checks[1]->Check.expr().coeff(I), 1);
  EXPECT_EQ(Checks[1]->Check.bound(), 10);
  EXPECT_TRUE(Checks[1]->Origin.IsUpper);
  EXPECT_EQ(Checks[0]->Origin.ArrayName, "a");
}

TEST(Lowering, MultiDimChecksPerDimension) {
  CompileResult R = compileNaive(R"(
program p
  real a(4, 0:7)
  integer i, j
  i = 2
  j = 3
  a(i, j) = 1.0
end program
)");
  auto Checks = allChecks(*R.M->entry());
  // Two dimensions, two checks each.
  ASSERT_EQ(Checks.size(), 4u);
  EXPECT_EQ(Checks[2]->Check.bound(), 0); // -j <= 0 (lower bound 0)
  EXPECT_EQ(Checks[3]->Check.bound(), 7);
}

TEST(Lowering, CanonicalLinearSubscript) {
  // a(2*n - 1) with bounds 5..10 gives checks (-2n <= -6), (2n <= 11):
  // the paper's canonical form with constants folded into the bound.
  CompileResult R = compileNaive(R"(
program p
  real a(5:10)
  integer n
  n = 4
  a(2 * n - 1) = 1.0
end program
)");
  Function *F = R.M->entry();
  auto Checks = allChecks(*F);
  ASSERT_EQ(Checks.size(), 2u);
  SymbolID N = F->symbols().lookup("n");
  EXPECT_EQ(Checks[0]->Check.expr().coeff(N), -2);
  EXPECT_EQ(Checks[0]->Check.bound(), -6);
  EXPECT_EQ(Checks[1]->Check.expr().coeff(N), 2);
  EXPECT_EQ(Checks[1]->Check.bound(), 11);
}

TEST(Lowering, ConstantSubscriptMakesConstantCheck) {
  CompileResult R = compileNaive(R"(
program p
  real a(10)
  a(3) = 1.0
end program
)");
  auto Checks = allChecks(*R.M->entry());
  ASSERT_EQ(Checks.size(), 2u);
  EXPECT_TRUE(Checks[0]->Check.isCompileTimeConstant());
  EXPECT_TRUE(Checks[0]->Check.evaluatesToTrue());
}

TEST(Lowering, SyntacticAtomsUnifyNonAffineSubscripts) {
  // Two accesses q(idx(k)) in one block: the checks on the loaded value
  // share one atom symbol, so they fall into the same family.
  CompileResult R = compileNaive(R"(
program p
  integer idx(10)
  real q(10)
  integer k
  real x
  k = 2
  idx(2) = 3
  x = q(idx(k)) + q(idx(k))
  print x
end program
)");
  Function *F = R.M->entry();
  auto Checks = allChecks(*F);
  // Find the checks over a temp (atom) symbol: the two upper-bound checks
  // on the q subscript must use the same symbol.
  std::vector<const Instruction *> AtomChecks;
  for (const Instruction *C : Checks) {
    const auto &Terms = C->Check.expr().terms();
    if (Terms.size() == 1 &&
        F->symbols().get(Terms[0].first).Kind == SymbolKind::Temp &&
        C->Check.bound() == 10)
      AtomChecks.push_back(C);
  }
  ASSERT_EQ(AtomChecks.size(), 2u);
  EXPECT_EQ(AtomChecks[0]->Check.expr(), AtomChecks[1]->Check.expr());
}

TEST(Lowering, AtomsInvalidatedByStores) {
  // A store to idx between the two accesses must break the atom sharing:
  // the loaded values can differ.
  CompileResult R = compileNaive(R"(
program p
  integer idx(10)
  real q(10)
  integer k
  real x, y
  k = 2
  idx(2) = 3
  x = q(idx(k))
  idx(2) = 4
  y = q(idx(k))
  print x + y
end program
)");
  Function *F = R.M->entry();
  std::vector<LinearExpr> AtomExprs;
  for (const auto &BB : *F)
    for (const Instruction &I : BB->instructions()) {
      if (I.Op != Opcode::Check || I.Check.bound() != 10)
        continue;
      const auto &Terms = I.Check.expr().terms();
      if (Terms.size() == 1 &&
          F->symbols().get(Terms[0].first).Kind == SymbolKind::Temp)
        AtomExprs.push_back(I.Check.expr());
    }
  ASSERT_EQ(AtomExprs.size(), 2u);
  EXPECT_NE(AtomExprs[0], AtomExprs[1]);
}

TEST(Lowering, DoLoopShapeAndMetadata) {
  CompileResult R = compileNaive(R"(
program p
  integer i, n, s
  n = 5
  do i = 2, 2 * n, 3
    s = s + i
  end do
  print s
end program
)");
  Function *F = R.M->entry();
  ASSERT_EQ(F->doLoops().size(), 1u);
  const DoLoopInfo &DL = F->doLoops()[0];
  EXPECT_EQ(DL.Step, 3);
  EXPECT_EQ(DL.LowerBound.constantPart(), 2);
  SymbolID N = F->symbols().lookup("n");
  EXPECT_EQ(DL.UpperBound.coeff(N), 2);

  // Canonical shape: preheader jumps to header; header branches to body
  // and exit; latch increments the index and jumps to the header.
  F->recomputePreds();
  SuccessorList PreheaderSuccs = F->block(DL.Preheader)->successors();
  EXPECT_EQ(std::vector<BlockID>(PreheaderSuccs.begin(), PreheaderSuccs.end()),
            std::vector<BlockID>{DL.Header});
  auto HeaderSuccs = F->block(DL.Header)->successors();
  ASSERT_EQ(HeaderSuccs.size(), 2u);
  EXPECT_EQ(HeaderSuccs[0], DL.BodyEntry);
  const Instruction &Inc = F->block(DL.Latch)->instructions()[0];
  EXPECT_EQ(Inc.Op, Opcode::Add);
  EXPECT_EQ(Inc.Dest, DL.IndexVar);
}

TEST(Lowering, NoChecksWhenDisabled) {
  PipelineOptions PO;
  PO.Optimize = false;
  PO.Lowering.InsertChecks = false;
  CompileResult R = compileOrDie(R"(
program p
  real a(10)
  integer i
  i = 4
  a(i) = 1.0
end program
)",
                                 PO);
  EXPECT_TRUE(allChecks(*R.M->entry()).empty());
}

TEST(Lowering, FunctionCallsLowerToCallInstructions) {
  CompileResult R = compileNaive(R"(
program p
  integer x
  x = double_it(21)
  print x
end program
function double_it(v) : integer
  integer v
  return v * 2
end function
)");
  bool FoundCall = false;
  for (const auto &BB : *R.M->entry())
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Call) {
        FoundCall = true;
        EXPECT_EQ(I.Callee, "double_it");
        EXPECT_NE(I.Dest, InvalidSymbol);
      }
  EXPECT_TRUE(FoundCall);
  ExecResult E = interpret(*R.M);
  ASSERT_EQ(E.Output.size(), 1u);
  EXPECT_EQ(E.Output[0], "42");
}

TEST(Lowering, WholeModuleVerifies) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    CompileResult R = compileNaive(P.Source);
    DiagnosticEngine D;
    EXPECT_TRUE(verifyModule(*R.M, D)) << P.Name << ":\n" << D.render();
  }
}

} // namespace
