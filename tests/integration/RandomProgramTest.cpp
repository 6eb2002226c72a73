//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based testing: a seeded random program generator produces
/// mini-Fortran programs full of array accesses (some of which trap), and
/// every optimizer configuration must preserve the paper's behaviour
/// criterion on each of them. This is the widest net for optimizer
/// soundness bugs: partial redundancies, kills, zero-trip loops,
/// triangular bounds, and out-of-bounds accesses all occur by chance.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Generates a random, always-terminating mini-Fortran program.
class ProgramGenerator {
public:
  explicit ProgramGenerator(unsigned Seed) : Rng(Seed) {}

  std::string generate() {
    Out.str("");
    Out << "program r" << Rng() % 1000 << "\n";
    Out << "  integer i, j, k, n, m, s, w\n";
    Out << "  real a(" << pick({8, 10, 16}) << "), b(0:"
        << pick({7, 9, 12}) << "), c(" << pick({6, 8}) << ", "
        << pick({6, 8}) << ")\n";
    Out << "  n = " << 3 + int(Rng() % 8) << "\n";
    Out << "  m = " << 1 + int(Rng() % 4) << "\n";
    Out << "  k = " << int(Rng() % 12) << "\n";
    Out << "  s = 0\n";
    unsigned NumStmts = 3 + Rng() % 5;
    for (unsigned S = 0; S != NumStmts; ++S)
      emitStmt(1, 2);
    // A bounded while loop over a dedicated counter, full of accesses.
    Out << "  w = 0\n";
    Out << "  while (w < " << 2 + Rng() % 4 << ") do\n";
    emitStmt(2, 0);
    emitStmt(2, 0);
    Out << "    w = w + 1\n";
    Out << "  end while\n";
    Out << "  print s\n";
    Out << "end program\n";
    Out << "function g2(x) : integer\n"
           "  integer x\n"
           "  return x + 1\n"
           "end function\n";
    return Out.str();
  }

private:
  int pick(std::initializer_list<int> Choices) {
    auto It = Choices.begin();
    std::advance(It, Rng() % Choices.size());
    return *It;
  }

  std::string intExpr(int Depth) {
    switch (Rng() % (Depth > 0 ? 9 : 4)) {
    case 0:
      return std::to_string(1 + Rng() % 9);
    case 1:
      return "i";
    case 2:
      return "j";
    case 3:
      return pick({0, 1}) ? "k" : "n";
    case 4:
      return intExpr(Depth - 1) + " + " + intExpr(Depth - 1);
    case 5:
      return intExpr(Depth - 1) + " - " + std::to_string(Rng() % 4);
    case 6:
      // Non-affine subscripts exercise the syntactic-atom machinery.
      return "mod(" + intExpr(Depth - 1) + ", " +
             std::to_string(3 + Rng() % 5) + ") + 1";
    case 7:
      return "g2(" + intExpr(Depth - 1) + ")";
    default:
      return std::to_string(1 + Rng() % 3) + " * " + intExpr(Depth - 1);
    }
  }

  std::string subscript() {
    // Mostly small expressions; out-of-bounds values arise naturally.
    return intExpr(1 + Rng() % 2);
  }

  std::string access() {
    switch (Rng() % 3) {
    case 0:
      return "a(" + subscript() + ")";
    case 1:
      return "b(" + subscript() + ")";
    default:
      return "c(" + subscript() + ", " + subscript() + ")";
    }
  }

  void indent(int Level) {
    for (int K = 0; K != Level; ++K)
      Out << "  ";
  }

  void emitStmt(int Level, int Budget) {
    unsigned Kind = Rng() % 10;
    if (Budget <= 0 || Kind < 5) {
      // Plain statement touching arrays (redundancy fodder).
      indent(Level);
      switch (Rng() % 4) {
      case 0:
        Out << access() << " = " << access() << " + 1.0\n";
        break;
      case 1:
        Out << "s = s + int(" << access() << ") + int(" << access()
            << ")\n";
        break;
      case 2:
        Out << "k = " << intExpr(1) << "\n";
        break;
      default: {
        std::string A = access();
        Out << A << " = " << A << " * 0.5\n";
        break;
      }
      }
      return;
    }
    if (Kind < 7) {
      // Counted loop; index var chosen by level to respect nesting rules.
      const char *Var = Level % 2 == 1 ? "i" : "j";
      indent(Level);
      Out << "do " << Var << " = " << 1 + int(Rng() % 3) << ", ";
      if (Rng() % 2)
        Out << "n";
      else
        Out << 2 + int(Rng() % 8);
      if (Rng() % 4 == 0)
        Out << ", " << pick({2, -1});
      Out << "\n";
      unsigned Body = 1 + Rng() % 3;
      for (unsigned S = 0; S != Body; ++S)
        emitStmt(Level + 1, Budget - 1);
      indent(Level);
      Out << "end do\n";
      return;
    }
    // Branch.
    indent(Level);
    Out << "if (" << intExpr(1) << " < " << intExpr(1) << ") then\n";
    emitStmt(Level + 1, Budget - 1);
    if (Rng() % 2) {
      indent(Level);
      Out << "else\n";
      emitStmt(Level + 1, Budget - 1);
    }
    indent(Level);
    Out << "end if\n";
  }

  std::mt19937 Rng;
  std::ostringstream Out;
};

class RandomProgramTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomProgramTest, AllConfigurationsPreserveBehavior) {
  ProgramGenerator Gen(GetParam());
  std::string Source = Gen.generate();
  SCOPED_TRACE(Source);

  // The program must at least compile; nesting rules are respected by
  // construction.
  CompileResult Naive = compileNaive(Source);
  ASSERT_TRUE(Naive.Success);
  ExecResult NaiveRun = interpret(*Naive.M);
  ASSERT_NE(NaiveRun.St, ExecResult::Status::HardFault)
      << NaiveRun.FaultMessage;

  for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
    for (PlacementScheme Scheme :
         {PlacementScheme::NI, PlacementScheme::CS, PlacementScheme::LNI,
          PlacementScheme::SE, PlacementScheme::LI, PlacementScheme::LLS,
          PlacementScheme::ALL, PlacementScheme::MCM}) {
      for (ImplicationMode Mode : AllImplicationModes) {
        CompileResult Opt = compileWithScheme(Source, Scheme, Src, Mode);
        ExecResult OptRun = interpret(*Opt.M);
        expectBehaviorPreserved(
            NaiveRun, OptRun,
            std::string(placementSchemeName(Scheme)) + "/" +
                (Src == CheckSource::PRX ? "PRX" : "INX") + "/mode" +
                std::to_string(static_cast<int>(Mode)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(1u, 41u));

} // namespace
