//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumented-C back end tests: the emitted C compiles with the system
/// compiler, and running it produces exactly the interpreter's output and
/// dynamic counters — validating both the back end and, independently,
/// the interpreter (the paper's methodology was precisely "translate to
/// instrumented C, compile, run, count").
///
//===----------------------------------------------------------------------===//

#include "cbackend/CEmitter.h"

#include "TestHelpers.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace nascent;
using namespace nascent::test;

namespace {

bool haveCC() {
  static int Have = -1;
  if (Have < 0)
    Have = std::system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Have == 1;
}

struct CRun {
  int ExitCode = -1;
  std::vector<std::string> Stdout;
  uint64_t Instrs = 0, Checks = 0, CondChecks = 0;
  bool Trapped = false;
};

/// Emits, compiles, and runs \p M; fails the test on compile errors.
CRun compileAndRunC(const Module &M, const std::string &Tag) {
  std::string Dir = ::testing::TempDir();
  std::string CPath = Dir + "/nck_" + Tag + ".c";
  std::string Bin = Dir + "/nck_" + Tag + ".bin";
  std::string OutPath = Dir + "/nck_" + Tag + ".out";
  std::string ErrPath = Dir + "/nck_" + Tag + ".err";

  {
    std::ofstream Out(CPath);
    Out << emitModuleToC(M);
  }
  std::string Compile = "cc -O1 -o " + Bin + " " + CPath + " 2> " + ErrPath;
  int CC = std::system(Compile.c_str());
  EXPECT_EQ(CC, 0) << "C compilation failed for " << Tag;
  CRun R;
  if (CC != 0)
    return R;

  int Rc = std::system((Bin + " > " + OutPath + " 2> " + ErrPath).c_str());
  R.ExitCode = WEXITSTATUS(Rc);

  std::ifstream In(OutPath);
  std::string Line;
  while (std::getline(In, Line))
    R.Stdout.push_back(Line);

  std::ifstream Err(ErrPath);
  while (std::getline(Err, Line)) {
    if (Line.find("[nascent-trap]") != std::string::npos)
      R.Trapped = true;
    unsigned long long I, C, Q;
    if (std::sscanf(Line.c_str(),
                    "[nascent-counts] instrs=%llu checks=%llu "
                    "condchecks=%llu",
                    &I, &C, &Q) == 3) {
      R.Instrs = I;
      R.Checks = C;
      R.CondChecks = Q;
    }
  }
  return R;
}

void expectMatchesInterpreter(const std::string &Source,
                              const PipelineOptions &PO,
                              const std::string &Tag) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  CompileResult R = compileOrDie(Source, PO);
  ExecResult E = interpret(*R.M);
  CRun C = compileAndRunC(*R.M, Tag);

  EXPECT_EQ(C.Stdout, E.Output) << Tag;
  EXPECT_EQ(C.Trapped, E.St == ExecResult::Status::Trapped) << Tag;
  if (E.St == ExecResult::Status::Ok) {
    EXPECT_EQ(C.Instrs, E.DynInstrs) << Tag;
    EXPECT_EQ(C.Checks, E.DynChecks) << Tag;
    EXPECT_EQ(C.CondChecks, E.DynCondChecks) << Tag;
  }
}

TEST(CEmitter, ArithmeticAndControlFlow) {
  PipelineOptions PO;
  PO.Optimize = false;
  expectMatchesInterpreter(R"(
program p
  integer i, s
  real r
  s = 0
  do i = 1, 10, 2
    s = s + i * 2
  end do
  r = real(s) / 4.0
  print s
  print r
  print s > 10
end program
)",
                           PO, "arith");
}

TEST(CEmitter, ArraysAndCalls) {
  PipelineOptions PO;
  PO.Optimize = false;
  expectMatchesInterpreter(R"(
program p
  real v(3, 4)
  integer i, j
  do i = 1, 3
    do j = 1, 4
      v(i, j) = real(i * 10 + j)
    end do
  end do
  call scale(v)
  print v(2, 3)
  print total(v)
end program
subroutine scale(v)
  real v(3, 4)
  integer i, j
  do i = 1, 3
    do j = 1, 4
      v(i, j) = v(i, j) * 2.0
    end do
  end do
end subroutine
function total(v) : real
  real v(3, 4), s
  integer i, j
  s = 0.0
  do i = 1, 3
    do j = 1, 4
      s = s + v(i, j)
    end do
  end do
  return s
end function
)",
                           PO, "arrays");
}

TEST(CEmitter, TrapBehaviourMatches) {
  PipelineOptions PO;
  PO.Optimize = false;
  expectMatchesInterpreter(R"(
program p
  real a(5)
  integer i
  print 1
  i = 7
  a(i) = 0.0
  print 2
end program
)",
                           PO, "trap");
}

TEST(CEmitter, OptimizedProgramsMatchToo) {
  for (PlacementScheme S :
       {PlacementScheme::NI, PlacementScheme::SE, PlacementScheme::LLS}) {
    PipelineOptions PO;
    PO.Opt.Scheme = S;
    expectMatchesInterpreter(R"(
program p
  real a(30), b(30)
  integer n, i, k
  n = 20
  k = 7
  do i = 1, n
    a(i) = a(i) + b(k) * 0.5 + b(i)
  end do
  print a(3)
end program
)",
                             PO, std::string("opt") + placementSchemeName(S));
  }
}

TEST(CEmitter, SuiteProgramsMatchEndToEnd) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // The full methodology check on the whole suite, naive and
  // LLS-optimized: C execution == interpretation, counter for counter.
  for (const SuiteProgram &P : benchmarkSuite()) {
    for (bool Optimize : {false, true}) {
      PipelineOptions PO;
      PO.Optimize = Optimize;
      PO.Opt.Scheme = PlacementScheme::LLS;
      expectMatchesInterpreter(P.Source, PO,
                               std::string(P.Name) +
                                   (Optimize ? "_lls" : "_naive"));
    }
  }
}

TEST(CEmitter, WrappingArithmeticIsDefinedInC) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  if (std::system("echo 'int main(void){return 0;}' | cc "
                  "-fsanitize=signed-integer-overflow -x c -o /dev/null - "
                  "> /dev/null 2>&1") != 0)
    GTEST_SKIP() << "the C compiler has no UBSan runtime";
  // Reproducer B: 2 * k overflows. Integers wrap, so the naive lower-bound
  // check on a(2 * k + i) fails; the C must trap at the same site as the
  // interpreter, with no signed-overflow report from the sanitizer.
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::NI;
  PO.Telemetry.Profile = true;
  CompileResult R = compileOrDie(R"(
program p
  integer k, i
  real a(10)
  k = 4611686018427387904
  do i = 1, 3
    a(i + 3) = 1.0
    a(2 * k + i) = 1.0
  end do
  print a(4)
end program
)",
                                 PO);
  InterpOptions IO;
  IO.Profile = &R.Profile;
  ExecResult E = interpret(*R.M, IO);
  ASSERT_TRUE(E.trapped()) << E.FaultMessage;
  std::vector<std::pair<unsigned long, unsigned long>> InterpTraps;
  for (const obs::FunctionProfile &FP : R.Profile.functions())
    for (const obs::CheckSiteProfile &S : FP.Sites)
      if (S.Traps)
        InterpTraps.push_back({S.Block, S.Index});
  ASSERT_EQ(InterpTraps.size(), 1u);

  std::string Dir = ::testing::TempDir();
  std::string CPath = Dir + "/nck_wrap.c", Bin = Dir + "/nck_wrap.bin",
              ErrPath = Dir + "/nck_wrap.err";
  {
    std::ofstream Out(CPath);
    CEmitOptions CO;
    CO.Profile = true;
    Out << emitModuleToC(*R.M, CO);
  }
  ASSERT_EQ(std::system(("cc -O1 -fsanitize=signed-integer-overflow "
                         "-fno-sanitize-recover=all -o " +
                         Bin + " " + CPath + " 2> " + ErrPath)
                            .c_str()),
            0);
  int Rc = std::system((Bin + " > /dev/null 2> " + ErrPath).c_str());
  EXPECT_EQ(WEXITSTATUS(Rc), 2) << "expected the range-check trap exit";
  std::ifstream Err(ErrPath);
  std::string Line;
  std::vector<std::pair<unsigned long, unsigned long>> CTraps;
  while (std::getline(Err, Line)) {
    EXPECT_EQ(Line.find("runtime error"), std::string::npos) << Line;
    char Func[256];
    unsigned long Block, Index;
    unsigned long long Tag, Hits, Traps;
    if (std::sscanf(Line.c_str(),
                    "[nascent-profsite] func=%255s block=%lu index=%lu "
                    "tag=%llu hits=%llu traps=%llu",
                    Func, &Block, &Index, &Tag, &Hits, &Traps) == 6 &&
        Traps)
      CTraps.push_back({Block, Index});
  }
  EXPECT_EQ(CTraps, InterpTraps);
}

TEST(CEmitter, MinimumIntegerDivisionWraps) {
  // INT64_MIN / -1 wraps to INT64_MIN and INT64_MIN mod -1 is 0, in the
  // interpreter and in the emitted C alike (neither may raise SIGFPE).
  PipelineOptions PO;
  PO.Optimize = false;
  const char *Source = R"(
program p
  integer a, b
  a = -9223372036854775807 - 1
  b = -1
  print a / b
  print mod(a, b)
  print -a
  print abs(a)
  print a - 1
  print (a + 1) * b
  print (-9223372036854775807 - 1) / (-1)
  print mod(-9223372036854775807 - 1, -1)
  print -(-9223372036854775807 - 1)
  print 9223372036854775807 + 1
  print 9223372036854775807 * 2
end program
)";
  // The last five have constant operands, so lowering folds them: the
  // compiler must wrap exactly as the program would at run time.
  CompileResult R = compileOrDie(Source, PO);
  ExecResult E = interpret(*R.M);
  ASSERT_TRUE(E.ok()) << E.FaultMessage;
  EXPECT_EQ(E.Output,
            (std::vector<std::string>{
                "-9223372036854775808", "0", "-9223372036854775808",
                "-9223372036854775808", "9223372036854775807",
                "9223372036854775807", "-9223372036854775808", "0",
                "-9223372036854775808", "-9223372036854775808", "-2"}));
  // The folded constant INT64_MIN has no C literal; the emitter must not
  // print the out-of-range 9223372036854775808LL.
  EXPECT_EQ(emitModuleToC(*R.M).find("9223372036854775808LL"),
            std::string::npos);
  expectMatchesInterpreter(Source, PO, "minint");
}

TEST(CEmitter, DeterministicOutput) {
  CompileResult R = compileNaive(findSuiteProgram("qcd")->Source);
  std::string A = emitModuleToC(*R.M);
  std::string B = emitModuleToC(*R.M);
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("fn_qcd"), std::string::npos);
  EXPECT_NE(A.find("nck_report"), std::string::npos);
}

} // namespace
