//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-suite golden execution test: every suite program, built
/// unchecked, naive, and under each of the nine placement schemes with
/// PRX and INX checks, must run to exactly the recorded result -- status,
/// the three dynamic counters, a hash of the printed output, and the
/// fault message. The table pins the interpreter's observable behaviour
/// bit for bit, so a change to how the interpreter executes (rather than
/// to what the optimizer produces) cannot move any of them unnoticed.
/// Each cell runs a second time counting check sites, which must change
/// nothing but add the sites, whose hits sum to the executed checks.
///
/// A mismatching cell prints its current row in table syntax; when a
/// change to the optimizer or the suite legitimately moves a cell, the
/// printed rows replace the stale ones.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "suite/Suite.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace nascent;

namespace {

struct GoldenRow {
  const char *Cell;
  int Status;
  uint64_t DynInstrs;
  uint64_t DynChecks;
  uint64_t DynCondChecks;
  uint64_t OutputHash;
  const char *FaultMessage;
};

// clang-format off
const GoldenRow Golden[] = {
#include "GoldenExecution.inc"
};
// clang-format on

struct BuildCell {
  std::string Name;
  PipelineOptions Opts;
};

/// The build matrix of one program, in the order of the table.
std::vector<BuildCell> buildCells(const std::string &Program) {
  std::vector<BuildCell> Cells;
  BuildCell Unchecked{Program + "/unchecked", {}};
  Unchecked.Opts.Lowering.InsertChecks = false;
  Unchecked.Opts.Optimize = false;
  Cells.push_back(Unchecked);
  BuildCell Naive{Program + "/naive", {}};
  Naive.Opts.Optimize = false;
  Cells.push_back(Naive);
  for (PlacementScheme S : AllPlacementSchemes)
    for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
      BuildCell C{Program + "/" + placementSchemeName(S) + "/" +
                      (Src == CheckSource::PRX ? "PRX" : "INX"),
                  {}};
      C.Opts.Opt.Scheme = S;
      C.Opts.Source = Src;
      Cells.push_back(C);
    }
  return Cells;
}

uint64_t outputHash(const std::vector<std::string> &Output) {
  support::StableHasher H;
  for (const std::string &Line : Output)
    H.str(Line);
  return H.digest().Lo;
}

std::string escaped(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string row(const std::string &Cell, const ExecResult &E) {
  return formatString("{\"%s\", %d, %lluu, %lluu, %lluu, 0x%016llxu, \"%s\"},",
                      Cell.c_str(), static_cast<int>(E.St),
                      static_cast<unsigned long long>(E.DynInstrs),
                      static_cast<unsigned long long>(E.DynChecks),
                      static_cast<unsigned long long>(E.DynCondChecks),
                      static_cast<unsigned long long>(outputHash(E.Output)),
                      escaped(E.FaultMessage).c_str());
}

TEST(GoldenExecution, WholeSuiteMatchesRecordedResults) {
  size_t Next = 0;
  size_t Total = sizeof(Golden) / sizeof(Golden[0]);
  for (const SuiteProgram &P : benchmarkSuite()) {
    for (const BuildCell &C : buildCells(P.Name)) {
      CompileResult R = compileSource(P.Source, C.Opts);
      ASSERT_TRUE(R.Success) << C.Name << ": " << R.Diags.render();
      ExecResult E = interpret(*R.M);
      std::string Current = row(C.Name, E);
      ASSERT_LT(Next, Total) << "no recorded row; current:\n" << Current;
      const GoldenRow &G = Golden[Next++];
      ASSERT_EQ(C.Name, G.Cell) << "table out of order; current:\n"
                                << Current;
      bool Same = static_cast<int>(E.St) == G.Status &&
                  E.DynInstrs == G.DynInstrs && E.DynChecks == G.DynChecks &&
                  E.DynCondChecks == G.DynCondChecks &&
                  outputHash(E.Output) == G.OutputHash &&
                  E.FaultMessage == G.FaultMessage;
      EXPECT_TRUE(Same) << C.Name << " moved; current:\n" << Current;

      // A profile runs the interpreter's other copy of every handler; it
      // must give the same result, and its site hits must account for
      // every executed check.
      obs::ExecutionProfile Profile;
      Profile.attach(*R.M);
      InterpOptions Observing;
      Observing.Profile = &Profile;
      ExecResult Observed = interpret(*R.M, Observing);
      EXPECT_EQ(row(C.Name, Observed), Current) << "with a profile";
      EXPECT_EQ(Profile.dynChecks(), Observed.DynChecks) << C.Name;
    }
  }
  EXPECT_EQ(Next, Total) << "recorded rows with no matching cell";
}

} // namespace
