//===----------------------------------------------------------------------===//
///
/// \file
/// The profile parity gate: for every sample program in
/// examples/programs/*.mf (naive and LLS-optimized), and for a loop that
/// traps under every placement scheme, the interpreter's ExecutionProfile
/// and the instrumented-C binary's atexit counter dump must agree bit for
/// bit — per-site hits and traps, per-block execution counts, and
/// per-array load/store counts. This is the acceptance contract of
/// docs/profiling.md: both execution paths measure the same dynamic check
/// cost, so either one can back the paper's numbers. The compiled C is
/// the profile's independent reference: it counts in its own executor,
/// not in a second counter of the interpreter's loop.
///
//===----------------------------------------------------------------------===//

#include "cbackend/CEmitter.h"

#include "TestHelpers.h"
#include "obs/Profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace nascent;
using namespace nascent::test;

namespace {

bool haveCC() {
  static int Have = -1;
  if (Have < 0)
    Have = std::system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Have == 1;
}

/// The counter dump of one instrumented-C run, keyed the way the profile
/// is: sites by (func, block, index), blocks by (func, id), arrays by
/// (func, name).
struct CDump {
  bool Ran = false;
  /// The [nascent-counts] totals.
  uint64_t Instrs = 0, Checks = 0, CondChecks = 0;
  std::map<std::tuple<std::string, unsigned long, unsigned long>,
           std::pair<uint64_t, uint64_t>>
      Sites; ///< -> (hits, traps)
  std::map<std::tuple<std::string, unsigned long, unsigned long>, uint64_t>
      SiteTags; ///< -> emitted tag
  std::map<std::pair<std::string, unsigned long>, uint64_t> Blocks;
  std::map<std::pair<std::string, std::string>,
           std::pair<uint64_t, uint64_t>>
      Arrays; ///< -> (loads, stores)
};

/// Emits \p M with profile instrumentation, compiles it with the system
/// compiler, runs it, and parses the [nascent-prof*] stderr dump.
CDump compileRunAndDump(const Module &M, const std::string &Tag) {
  std::string Dir = ::testing::TempDir();
  std::string CPath = Dir + "/nck_prof_" + Tag + ".c";
  std::string Bin = Dir + "/nck_prof_" + Tag + ".bin";
  std::string ErrPath = Dir + "/nck_prof_" + Tag + ".err";

  {
    std::ofstream Out(CPath);
    CEmitOptions CO;
    CO.Profile = true;
    Out << emitModuleToC(M, CO);
  }
  std::string Compile = "cc -O1 -o " + Bin + " " + CPath + " 2> " + ErrPath;
  int CC = std::system(Compile.c_str());
  EXPECT_EQ(CC, 0) << "C compilation failed for " << Tag;
  CDump D;
  if (CC != 0)
    return D;

  // Trapping programs exit non-zero; the atexit dump must survive that.
  std::system((Bin + " > /dev/null 2> " + ErrPath).c_str());

  std::ifstream Err(ErrPath);
  std::string Line;
  char Func[256], Name[256];
  while (std::getline(Err, Line)) {
    unsigned long Block, Index;
    unsigned long long A, B, T;
    if (std::sscanf(Line.c_str(),
                    "[nascent-counts] instrs=%llu checks=%llu "
                    "condchecks=%llu",
                    &A, &B, &T) == 3) {
      D.Instrs = A;
      D.Checks = B;
      D.CondChecks = T;
    } else if (std::sscanf(Line.c_str(),
                    "[nascent-profsite] func=%255s block=%lu index=%lu "
                    "tag=%llu hits=%llu traps=%llu",
                    Func, &Block, &Index, &T, &A, &B) == 6) {
      D.Sites[{Func, Block, Index}] = {A, B};
      D.SiteTags[{Func, Block, Index}] = T;
    } else if (std::sscanf(Line.c_str(),
                           "[nascent-profblock] func=%255s block=%lu "
                           "count=%llu",
                           Func, &Block, &A) == 3) {
      D.Blocks[{Func, Block}] = A;
    } else if (std::sscanf(Line.c_str(),
                           "[nascent-profarray] func=%255s array=%255s "
                           "loads=%llu stores=%llu",
                           Func, Name, &A, &B) == 4) {
      D.Arrays[{Func, Name}] = {A, B};
    }
  }
  D.Ran = !D.Blocks.empty();
  return D;
}

/// The whole contract for one compiled module: interpreter profile ==
/// compiled-C dump, counter for counter.
void expectDumpMatchesProfile(const CDump &D, const obs::ExecutionProfile &P,
                              const std::string &Tag) {
  ASSERT_TRUE(D.Ran) << Tag << ": no profile dump captured";

  size_t Sites = 0, Blocks = 0, Arrays = 0;
  for (const obs::FunctionProfile &FP : P.functions()) {
    for (unsigned long B = 0; B != FP.BlockCounts.size(); ++B) {
      auto It = D.Blocks.find({FP.Name, B});
      ASSERT_NE(It, D.Blocks.end()) << Tag << ": " << FP.Name << " bb" << B;
      EXPECT_EQ(It->second, FP.BlockCounts[B])
          << Tag << ": " << FP.Name << " bb" << B;
      ++Blocks;
    }
    for (const obs::CheckSiteProfile &S : FP.Sites) {
      auto It = D.Sites.find({FP.Name, S.Block, S.Index});
      ASSERT_NE(It, D.Sites.end())
          << Tag << ": " << FP.Name << " bb" << S.Block << "#" << S.Index;
      EXPECT_EQ(It->second.first, S.Hits)
          << Tag << ": hits at " << FP.Name << " bb" << S.Block << "#"
          << S.Index;
      EXPECT_EQ(It->second.second, S.Traps)
          << Tag << ": traps at " << FP.Name << " bb" << S.Block << "#"
          << S.Index;
      uint64_t EmittedTag = D.SiteTags.at({FP.Name, S.Block, S.Index});
      EXPECT_EQ(EmittedTag, S.Tag)
          << Tag << ": tag at " << FP.Name << " bb" << S.Block << "#"
          << S.Index;
      ++Sites;
    }
    for (const obs::ArrayProfile &A : FP.Arrays) {
      auto It = D.Arrays.find({FP.Name, A.Name});
      ASSERT_NE(It, D.Arrays.end()) << Tag << ": " << FP.Name << " "
                                    << A.Name;
      EXPECT_EQ(It->second.first, A.Loads)
          << Tag << ": loads of " << FP.Name << " " << A.Name;
      EXPECT_EQ(It->second.second, A.Stores)
          << Tag << ": stores of " << FP.Name << " " << A.Name;
      ++Arrays;
    }
  }
  // Nothing extra on the C side either: both paths enumerate the same
  // structure.
  EXPECT_EQ(D.Sites.size(), Sites) << Tag;
  EXPECT_EQ(D.Blocks.size(), Blocks) << Tag;
  EXPECT_EQ(D.Arrays.size(), Arrays) << Tag;
}

void expectProfileParity(const Module &M, const obs::ExecutionProfile &P,
                         const std::string &Tag) {
  expectDumpMatchesProfile(compileRunAndDump(M, Tag), P, Tag);
}

void expectSourceParity(const std::string &Source, bool Optimize,
                        const std::string &Tag) {
  PipelineOptions PO;
  PO.Optimize = Optimize;
  PO.Opt.Scheme = PlacementScheme::LLS;
  PO.Telemetry.Profile = true;
  CompileResult R = compileOrDie(Source, PO);
  InterpOptions IO;
  IO.Profile = &R.Profile;
  interpret(*R.M, IO);
  expectProfileParity(*R.M, R.Profile, Tag);
}

std::vector<std::pair<std::string, std::string>> samplePrograms() {
  std::vector<std::pair<std::string, std::string>> Out;
  DIR *D = opendir(NASCENT_EXAMPLE_PROGRAMS_DIR);
  if (!D)
    return Out;
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() < 4 || Name.substr(Name.size() - 3) != ".mf")
      continue;
    std::ifstream In(std::string(NASCENT_EXAMPLE_PROGRAMS_DIR) + "/" + Name);
    std::stringstream SS;
    SS << In.rdbuf();
    Out.push_back({Name.substr(0, Name.size() - 3), SS.str()});
  }
  closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(ProfileParity, EverySampleProgramNaiveAndOptimized) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  std::vector<std::pair<std::string, std::string>> Programs =
      samplePrograms();
  ASSERT_FALSE(Programs.empty())
      << "no .mf programs under " << NASCENT_EXAMPLE_PROGRAMS_DIR;
  for (const auto &P : Programs) {
    expectSourceParity(P.second, /*Optimize=*/false, P.first + "_naive");
    expectSourceParity(P.second, /*Optimize=*/true, P.first + "_lls");
  }
}

TEST(ProfileParity, TrappingProgramDumpSurvivesExit) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // The trap path: the C binary aborts via nck_trap/exit, yet the atexit
  // dump still fires and its counters — including the trapping site's
  // hit+trap and the partial block counts — match the interpreter.
  expectSourceParity(TrappingLoop, /*Optimize=*/false, "trap_naive");
  expectSourceParity(TrappingLoop, /*Optimize=*/true, "trap_lls");
}

TEST(ProfileParity, TrappingLoopUnderEverySchemeMatchesCompiledC) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // Each scheme traps at its own placement of the violated check: in the
  // body, or at a conditional check hoisted to the preheader. The
  // compiled C must see the same single trap at the same site, the same
  // partial block and array counts, and the interpreter's totals.
  size_t CondCheckTraps = 0;
  for (PlacementScheme Scheme : AllPlacementSchemes) {
    const std::string Tag = std::string("trap_") + placementSchemeName(Scheme);
    PipelineOptions PO;
    PO.Opt.Scheme = Scheme;
    PO.Telemetry.Profile = true;
    CompileResult R = compileOrDie(TrappingLoop, PO);
    InterpOptions IO;
    IO.Profile = &R.Profile;
    ExecResult E = interpret(*R.M, IO);
    ASSERT_TRUE(E.trapped()) << Tag << ": " << E.FaultMessage;
    ASSERT_EQ(R.Profile.dynTraps(), 1u) << Tag;

    CDump D = compileRunAndDump(*R.M, Tag);
    expectDumpMatchesProfile(D, R.Profile, Tag);
    EXPECT_EQ(D.Instrs, E.DynInstrs) << Tag;
    EXPECT_EQ(D.Checks, E.DynChecks) << Tag;
    EXPECT_EQ(D.CondChecks, E.DynCondChecks) << Tag;
    for (const obs::FunctionProfile &FP : R.Profile.functions())
      for (const obs::CheckSiteProfile &S : FP.Sites)
        if (S.Traps != 0 && S.Conditional)
          ++CondCheckTraps;
  }
  // LLS, ALL and MCM hoist the violated check as a CondCheck.
  EXPECT_EQ(CondCheckTraps, 3u);
}

TEST(ProfileParity, MultiFunctionProgram) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // Calls: per-function tables stay separate and recursion-safe frame
  // state on the interpreter side matches the C side's flat counters.
  expectSourceParity(R"(
program p
  real v(8)
  integer i
  do i = 1, 8
    v(i) = real(i)
  end do
  call bump(v)
  call bump(v)
  print total(v)
end program
subroutine bump(v)
  real v(8)
  integer i
  do i = 1, 8
    v(i) = v(i) + 1.0
  end do
end subroutine
function total(v) : real
  real v(8), s
  integer i
  s = 0.0
  do i = 1, 8
    s = s + v(i)
  end do
  return s
end function
)",
                     /*Optimize=*/true, "calls");
}

} // namespace
