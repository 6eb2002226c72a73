//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter tests: arithmetic, control flow, arrays (including
/// by-reference array parameters), traps, the instruction/check counters,
/// and the execution limits, also where they cut through or fault in a
/// pair of ops the decoder fused -- including the edge cases that hand-built
/// IR can reach but the front end never emits (a block without a
/// terminator, an integer constant compared against a real symbol).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "ir/IRBuilder.h"
#include "obs/StatRegistry.h"

#include <gtest/gtest.h>

#include <set>

using namespace nascent;
using namespace nascent::test;

namespace {

ExecResult runNaive(const std::string &Src) {
  CompileResult R = compileNaive(Src);
  return interpret(*R.M);
}

TEST(Interpreter, IntegerArithmetic) {
  ExecResult E = runNaive(R"(
program p
  integer a
  a = (7 + 5) * 3 - 4
  print a
  print mod(17, 5)
  print min(3, -2)
  print max(3, -2)
  print abs(-9)
end program
)");
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output,
            (std::vector<std::string>{"32", "2", "-2", "3", "9"}));
}

TEST(Interpreter, IntegerDivisionTruncates) {
  ExecResult E = runNaive(R"(
program p
  print 7 / 2
  print -7 / 2
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"3", "-3"}));
}

TEST(Interpreter, RealArithmeticAndConversion) {
  ExecResult E = runNaive(R"(
program p
  real r
  integer i
  r = 3.5 * 2.0
  print r
  i = int(r) + 1
  print i
  r = real(i) / 4.0
  print r
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"7", "8", "2"}));
}

TEST(Interpreter, LogicalOps) {
  ExecResult E = runNaive(R"(
program p
  logical a, b
  a = 1 < 2 and 3 >= 3
  b = not a or 2 == 3
  print a
  print b
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"T", "F"}));
}

TEST(Interpreter, ControlFlow) {
  ExecResult E = runNaive(R"(
program p
  integer i, s
  s = 0
  do i = 1, 10, 2
    s = s + i
  end do
  print s
  while (s > 10) do
    s = s - 7
  end while
  print s
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"25", "4"}));
}

TEST(Interpreter, ZeroTripLoop) {
  ExecResult E = runNaive(R"(
program p
  integer i, s, n
  n = 0
  s = 42
  do i = 1, n
    s = s + 100
  end do
  print s
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"42"}));
}

TEST(Interpreter, DescendingLoop) {
  ExecResult E = runNaive(R"(
program p
  integer i, s
  s = 0
  do i = 5, 1, -1
    s = s * 10 + i
  end do
  print s
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"54321"}));
}

TEST(Interpreter, ArraysColumnMajorIndependentCells) {
  ExecResult E = runNaive(R"(
program p
  integer a(3, 3)
  integer i, j
  do i = 1, 3
    do j = 1, 3
      a(i, j) = i * 10 + j
    end do
  end do
  print a(2, 3)
  print a(3, 1)
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"23", "31"}));
}

TEST(Interpreter, ArrayParameterAliasesCaller) {
  ExecResult E = runNaive(R"(
program p
  integer v(4)
  call setall(v, 9)
  print v(1) + v(4)
end program
subroutine setall(a, val)
  integer a(4), val, i
  do i = 1, 4
    a(i) = val
  end do
end subroutine
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"18"}));
}

TEST(Interpreter, ScalarArgsPassedByValue) {
  ExecResult E = runNaive(R"(
program p
  integer x
  x = 5
  call shadow(x)
  print x
end program
subroutine shadow(x)
  integer x
  x = 99
end subroutine
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"5"}));
}

TEST(Interpreter, RecursiveFunction) {
  ExecResult E = runNaive(R"(
program p
  print fact(6)
end program
function fact(n) : integer
  integer n
  if (n <= 1) then
    return 1
  end if
  return n * fact(n - 1)
end function
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"720"}));
}

TEST(Interpreter, UpperBoundTrap) {
  ExecResult E = runNaive(R"(
program p
  real a(10)
  integer i
  i = 11
  a(i) = 1.0
  print a(1)
end program
)");
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_NE(E.FaultMessage.find("range check failed"), std::string::npos);
  EXPECT_NE(E.FaultMessage.find("array a"), std::string::npos);
  EXPECT_NE(E.FaultMessage.find("upper"), std::string::npos);
  EXPECT_TRUE(E.Output.empty()); // the trap fires before the print
}

TEST(Interpreter, LowerBoundTrap) {
  ExecResult E = runNaive(R"(
program p
  real a(5:10)
  integer i
  i = 4
  print a(i)
end program
)");
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_NE(E.FaultMessage.find("lower"), std::string::npos);
}

TEST(Interpreter, OutputBeforeTrapIsKept) {
  ExecResult E = runNaive(R"(
program p
  real a(5)
  integer i
  print 1
  print 2
  i = 6
  a(i) = 0.0
  print 3
end program
)");
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_EQ(E.Output, (std::vector<std::string>{"1", "2"}));
}

TEST(Interpreter, CountsSeparateChecksFromInstructions) {
  ExecResult E = runNaive(R"(
program p
  real a(10)
  integer i
  do i = 1, 10
    a(i) = 1.0
  end do
end program
)");
  // 10 iterations x 2 checks.
  EXPECT_EQ(E.DynChecks, 20u);
  EXPECT_GT(E.DynInstrs, 0u);
  EXPECT_EQ(E.DynCondChecks, 0u);
}

TEST(Interpreter, StepLimit) {
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileOrDie(R"(
program p
  integer i
  i = 0
  while (i >= 0) do
    i = i + 1
  end while
end program
)",
                                 PO);
  InterpOptions IO;
  IO.MaxSteps = 10'000;
  ExecResult E = interpret(*R.M, IO);
  EXPECT_EQ(E.St, ExecResult::Status::StepLimit);
}

TEST(Interpreter, CallDepthLimit) {
  CompileResult R = compileNaive(R"(
program p
  print inf(1)
end program
function inf(n) : integer
  integer n
  return inf(n + 1)
end function
)");
  InterpOptions IO;
  IO.MaxCallDepth = 50;
  ExecResult E = interpret(*R.M, IO);
  EXPECT_EQ(E.St, ExecResult::Status::CallDepthExceeded);
}

TEST(Interpreter, UnallocatableArrayIsARuntimeError) {
  // One array too long for a std::vector, one larger than memory: both
  // end the run cleanly, before any instruction executes.
  for (const char *Decl :
       {"real a(9223372036854775807)", "real a(100000,100000,100000)"}) {
    ExecResult E = runNaive(std::string("program p\n  ") + Decl +
                            "\n  print 1\nend program\n");
    EXPECT_EQ(E.St, ExecResult::Status::AllocationFailed) << Decl;
    EXPECT_NE(E.FaultMessage.find("cannot allocate array 'a'"),
              std::string::npos)
        << E.FaultMessage;
    EXPECT_TRUE(E.Output.empty()) << Decl;
  }
}

TEST(Interpreter, UninitialisedVariablesAreZero) {
  ExecResult E = runNaive(R"(
program p
  integer i
  real r
  print i
  print r
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"0", "0"}));
}

TEST(Interpreter, CondCheckSemantics) {
  // Build a CondCheck via the LLS pipeline on a zero-trip loop: the
  // guard is false at run time, so the hoisted check must not trap even
  // though the substituted bound would fail.
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileOrDie(R"(
program p
  real a(10)
  integer n, i
  n = 50
  do i = 1, n - 50
    a(i + 40) = 1.0
  end do
  print a(1)
end program
)",
                                 PO);
  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output, (std::vector<std::string>{"0"}));
}

TEST(Interpreter, StepLimitInsideCalleeCountsEveryStep) {
  // The limit fires deep in a callee; the counters the run reports are
  // the callee's as well as the caller's, and they add up to exactly the
  // limit (the spinning loop is all unit-cost instructions).
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileOrDie(R"(
program p
  real a(10)
  a(3) = 1.0
  call spin(a)
  print a(3)
end program
subroutine spin(a)
  real a(10)
  integer i
  i = 0
  while (i >= 0) do
    i = i + 1
  end while
end subroutine
)",
                                 PO);
  InterpOptions IO;
  IO.MaxSteps = 10'000;
  ExecResult E = interpret(*R.M, IO);
  EXPECT_EQ(E.St, ExecResult::Status::StepLimit);
  EXPECT_EQ(E.FaultMessage, "step limit exceeded");
  EXPECT_EQ(E.DynInstrs + E.DynChecks, IO.MaxSteps);
  EXPECT_EQ(E.DynChecks, 2u); // a(3)'s lower and upper bound checks
  EXPECT_TRUE(E.Output.empty());
}

TEST(Interpreter, StepLimitSweepStopsAtEveryOperation) {
  // Every limit from 1 to the run's total steps, over a program holding
  // each pair the decoder fuses (lower/upper check pairs, compare->branch
  // loop heads, add->jump loop latches) and rank-2 accesses, the costliest
  // ops (1 + 2 x 2). A limit stops the run at the first operation whose
  // steps so far reach it, so over the sweep the run stops once after
  // every operation: the distinct step counts reported are exactly as
  // many as the operations a full run executes. A fused pair that ran
  // both halves past the limit would skip one of those stops. Each limit
  // runs with and without site counting, the two copies of every
  // handler, which must agree.
  CompileResult R = compileNaive(R"(
program p
  integer i, j, n
  real a(4), b(3, 3)
  n = 3
  do i = 1, n
    do j = 1, n
      b(i, j) = real(i + j)
    end do
    a(i) = b(i, 2)
  end do
  print a(2)
end program
)");
  obs::Counter &Ops = obs::StatRegistry::global().counter("interp.ops");
  uint64_t OpsBefore = Ops.value();
  ExecResult Full = interpret(*R.M);
  uint64_t FullOps = Ops.value() - OpsBefore;
  ASSERT_EQ(Full.St, ExecResult::Status::Ok) << Full.FaultMessage;
  const uint64_t Total = Full.DynInstrs + Full.DynChecks;
  const uint64_t CostliestOp = 5;

  uint64_t Previous = 0;
  std::set<uint64_t> Stops;
  for (uint64_t Limit = 1; Limit <= Total; ++Limit) {
    InterpOptions IO;
    IO.MaxSteps = Limit;
    ExecResult E = interpret(*R.M, IO);
    IO.CountCheckSites = true;
    ExecResult Observed = interpret(*R.M, IO);
    uint64_t Steps = E.DynInstrs + E.DynChecks;
    // The last operation, a unit-cost ret, starts below a limit equal to
    // the total, so that limit lets the run finish.
    if (Limit < Total) {
      EXPECT_EQ(E.St, ExecResult::Status::StepLimit) << Limit;
      EXPECT_EQ(E.FaultMessage, "step limit exceeded") << Limit;
    } else {
      EXPECT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
      EXPECT_EQ(E.Output, Full.Output);
    }
    EXPECT_GE(Steps, Limit);
    EXPECT_LT(Steps, Limit + CostliestOp);
    EXPECT_GE(Steps, Previous) << Limit;
    Previous = Steps;
    Stops.insert(Steps);

    EXPECT_EQ(Observed.St, E.St) << Limit;
    EXPECT_EQ(Observed.DynInstrs, E.DynInstrs) << Limit;
    EXPECT_EQ(Observed.DynChecks, E.DynChecks) << Limit;
    EXPECT_EQ(Observed.Output, E.Output) << Limit;
    uint64_t SiteHits = 0;
    for (const obs::CheckSiteCount &S : Observed.CheckSites)
      SiteHits += S.Count;
    EXPECT_EQ(SiteHits, E.DynChecks) << Limit;
  }
  EXPECT_EQ(Previous, Total);
  EXPECT_EQ(Stops.size(), FullOps);
}

/// The (block, index) of every range check in \p F, in program order.
std::vector<std::pair<BlockID, uint32_t>> checkSites(const Function &F) {
  std::vector<std::pair<BlockID, uint32_t>> Sites;
  for (const auto &BB : F) {
    const auto &Instrs = BB->instructions();
    for (uint32_t K = 0; K != Instrs.size(); ++K)
      if (Instrs[K].isRangeCheck())
        Sites.push_back({BB->id(), K});
  }
  return Sites;
}

TEST(Interpreter, TrapInSecondHalfOfCheckPair) {
  // a(i)'s lower and upper checks run as one fused op; the lower passes,
  // the upper fails. The fault names the upper check, both checks count,
  // and each site is credited to its own instruction.
  CompileResult R = compileNaive(R"(
program p
  integer i
  real a(10)
  i = 11
  a(i) = 1.0
end program
)");
  InterpOptions IO;
  IO.CountCheckSites = true;
  ExecResult E = interpret(*R.M, IO);
  ASSERT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_EQ(E.FaultMessage, "range check failed: Check(i <= 10) (array a, "
                            "dim 1, upper bound, line 6:3)");
  EXPECT_EQ(E.DynChecks, 2u);
  auto Sites = checkSites(*R.M->entry());
  ASSERT_EQ(Sites.size(), 2u);
  ASSERT_EQ(E.CheckSites.size(), 2u);
  for (size_t K = 0; K != 2; ++K) {
    EXPECT_EQ(E.CheckSites[K].Block, Sites[K].first) << K;
    EXPECT_EQ(E.CheckSites[K].Index, Sites[K].second) << K;
    EXPECT_EQ(E.CheckSites[K].Count, 1u) << K;
  }
}

TEST(Interpreter, TrapAfterCompareBranchPair) {
  // The loop head's compare and branch run as one fused op, as does the
  // latch's add and jump. On the eleventh trip the fused compare->branch
  // enters the body, whose check pair passes its lower half and traps in
  // its upper half: the fault names the upper check, every check of the
  // eleven trips counts, and the site hits split evenly between the two.
  CompileResult R = compileNaive(R"(
program p
  integer i, n
  real a(10)
  n = 11
  do i = 1, n
    a(i) = 1.0
  end do
end program
)");
  InterpOptions IO;
  IO.CountCheckSites = true;
  ExecResult E = interpret(*R.M, IO);
  ASSERT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_EQ(E.FaultMessage, "range check failed: Check(i <= 10) (array a, "
                            "dim 1, upper bound, line 7:5)");
  EXPECT_EQ(E.DynChecks, 22u);
  auto Sites = checkSites(*R.M->entry());
  ASSERT_EQ(Sites.size(), 2u);
  ASSERT_EQ(E.CheckSites.size(), 2u);
  for (size_t K = 0; K != 2; ++K) {
    EXPECT_EQ(E.CheckSites[K].Block, Sites[K].first) << K;
    EXPECT_EQ(E.CheckSites[K].Index, Sites[K].second) << K;
    EXPECT_EQ(E.CheckSites[K].Count, 11u) << K;
  }
  EXPECT_EQ(interpret(*R.M).DynInstrs, E.DynInstrs);
}

TEST(Interpreter, FallingOffABlockIsAHardFault) {
  // A block without a terminator: the instructions before the end run
  // and count, then the run faults naming the block.
  {
    Module M;
    Function *F = M.createFunction("main");
    M.setEntry("main");
    SymbolID X = F->symbols().createScalar("x", ScalarType::Int);
    IRBuilder B(*F);
    B.setInsertBlock(B.createBlock("entry"));
    B.emitCopy(X, Value::intConst(1));
    B.emitPrint(Value::sym(X));
    ExecResult E = interpret(M);
    EXPECT_EQ(E.St, ExecResult::Status::HardFault);
    EXPECT_EQ(E.FaultMessage, "fell off the end of block bb0");
    EXPECT_EQ(E.DynInstrs, 2u);
    EXPECT_EQ(E.Output, (std::vector<std::string>{"1"}));
  }
  // An empty block reached by a jump.
  {
    Module M;
    Function *F = M.createFunction("main");
    M.setEntry("main");
    IRBuilder B(*F);
    BasicBlock *Entry = B.createBlock("entry");
    BasicBlock *Empty = B.createBlock("empty");
    B.setInsertBlock(Entry);
    B.emitJump(Empty->id());
    ExecResult E = interpret(M);
    EXPECT_EQ(E.St, ExecResult::Status::HardFault);
    EXPECT_EQ(E.FaultMessage, "fell off the end of block bb1");
    EXPECT_EQ(E.DynInstrs, 1u);
  }
}

TEST(Interpreter, PrintLogicalSymbolVersusLogicalConstant) {
  // A logical symbol prints as T/F; a logical constant prints as the
  // integer it holds.
  Module M;
  Function *F = M.createFunction("main");
  M.setEntry("main");
  SymbolID Yes = F->symbols().createScalar("yes", ScalarType::Bool);
  SymbolID No = F->symbols().createScalar("no", ScalarType::Bool);
  IRBuilder B(*F);
  B.setInsertBlock(B.createBlock("entry"));
  B.emitCopy(Yes, Value::boolConst(true));
  B.emitCopy(No, Value::boolConst(false));
  B.emitPrint(Value::sym(Yes));
  B.emitPrint(Value::sym(No));
  B.emitPrint(Value::boolConst(true));
  B.emitPrint(Value::boolConst(false));
  B.emitRet();
  ExecResult E = interpret(M);
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output, (std::vector<std::string>{"T", "F", "1", "0"}));
}

TEST(Interpreter, CompareMixesIntegerConstantWithRealSymbol) {
  // One real operand makes the whole compare real: the integer constant
  // is converted, not the real truncated (2 < 2.5 holds; 2 < int(2.5)
  // would not).
  Module M;
  Function *F = M.createFunction("main");
  M.setEntry("main");
  SymbolID R = F->symbols().createScalar("r", ScalarType::Real);
  IRBuilder B(*F);
  B.setInsertBlock(B.createBlock("entry"));
  B.emitCopy(R, Value::realConst(2.5));
  B.emitPrint(B.emitBinary(Opcode::CmpLT, Value::intConst(2), Value::sym(R),
                           ScalarType::Bool));
  B.emitPrint(B.emitBinary(Opcode::CmpGE, Value::sym(R), Value::intConst(3),
                           ScalarType::Bool));
  B.emitPrint(B.emitBinary(Opcode::CmpNE, Value::intConst(2), Value::sym(R),
                           ScalarType::Bool));
  B.emitRet();
  ExecResult E = interpret(M);
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output, (std::vector<std::string>{"T", "F", "T"}));
}

TEST(Interpreter, CountCheckSitesRecordsCondCheckWhoseGuardsFail) {
  // A conditional check whose guard never holds still executes (and is
  // counted at its site) on every visit; it never traps even though its
  // check would fail.
  Module M;
  Function *F = M.createFunction("main");
  M.setEntry("main");
  SymbolID N = F->symbols().createScalar("n", ScalarType::Int);
  SymbolID I = F->symbols().createScalar("i", ScalarType::Int);
  IRBuilder B(*F);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Loop = B.createBlock("loop");
  BasicBlock *Exit = B.createBlock("exit");
  B.setInsertBlock(Entry);
  B.emitCopy(N, Value::intConst(5));
  B.emitCopy(I, Value::intConst(0));
  B.emitJump(Loop->id());
  B.setInsertBlock(Loop);
  B.emitBinaryTo(I, Opcode::Add, Value::sym(I), Value::intConst(1));
  B.emitCondCheck({CheckExpr(LinearExpr::term(N), 0)},
                  CheckExpr(LinearExpr::term(N), 1));
  Value More = B.emitBinary(Opcode::CmpLT, Value::sym(I), Value::intConst(3),
                            ScalarType::Bool);
  B.emitBr(More, Loop->id(), Exit->id());
  B.setInsertBlock(Exit);
  B.emitRet();

  InterpOptions IO;
  IO.CountCheckSites = true;
  ExecResult E = interpret(M, IO);
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.DynChecks, 3u);
  EXPECT_EQ(E.DynCondChecks, 3u);
  ASSERT_EQ(E.CheckSites.size(), 1u);
  const obs::CheckSiteCount &S = E.CheckSites[0];
  CheckTag Tag = Loop->instructions()[1].Tag;
  EXPECT_EQ(S.Func, "main");
  EXPECT_EQ(S.Block, Loop->id());
  EXPECT_EQ(S.Index, 1u);
  EXPECT_EQ(S.Count, 3u);
  EXPECT_NE(Tag, NoCheckTag);
  EXPECT_EQ(S.Tag, Tag);
}

} // namespace
