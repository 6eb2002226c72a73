//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-optimizer invariants across schemes: the orderings the paper's
/// Table 2 rests on, idempotence, verification of the output IR, and the
/// implication-mode ablation (Table 3's structure).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "ir/Verifier.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

uint64_t dynChecks(const std::string &Src, PlacementScheme S,
                   ImplicationMode Mode = ImplicationMode::All,
                   CheckSource Source = CheckSource::PRX) {
  CompileResult R = compileWithScheme(Src, S, Source, Mode);
  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  return E.DynChecks;
}

const char *MixedSrc = R"(
program p
  real a(30), b(30)
  integer n, i, j, k, s
  n = 12
  k = 7
  s = 0
  do i = 1, n
    a(i) = a(i) + b(k) * 0.5
    do j = 1, i
      s = s + int(b(j))
    end do
  end do
  print s
end program
)";

TEST(Optimizer, SchemeOrderingOnMixedProgram) {
  CompileResult Naive = compileNaive(MixedSrc);
  uint64_t Base = interpret(*Naive.M).DynChecks;
  uint64_t NI = dynChecks(MixedSrc, PlacementScheme::NI);
  uint64_t CS = dynChecks(MixedSrc, PlacementScheme::CS);
  uint64_t LI = dynChecks(MixedSrc, PlacementScheme::LI);
  uint64_t LLS = dynChecks(MixedSrc, PlacementScheme::LLS);
  uint64_t ALL = dynChecks(MixedSrc, PlacementScheme::ALL);

  EXPECT_LE(NI, Base);
  EXPECT_LE(CS, NI);  // strengthening only helps
  EXPECT_LE(LI, NI);  // hoisting invariants only helps
  EXPECT_LE(LLS, LI); // substitution subsumes invariant hoisting
  EXPECT_LE(ALL, LLS + 4); // ALL may add a few SE placements
  EXPECT_LT(LLS, Base / 4) << "LLS should remove the bulk of the checks";
}

TEST(Optimizer, ImplicationModesOrdering) {
  // With fewer implications, no more checks can be eliminated.
  uint64_t NIAll = dynChecks(MixedSrc, PlacementScheme::NI);
  uint64_t NINone =
      dynChecks(MixedSrc, PlacementScheme::NI, ImplicationMode::None);
  EXPECT_LE(NIAll, NINone);

  uint64_t LLSAll = dynChecks(MixedSrc, PlacementScheme::LLS);
  uint64_t LLSPrime = dynChecks(MixedSrc, PlacementScheme::LLS,
                                ImplicationMode::CrossFamilyOnly);
  EXPECT_LE(LLSAll, LLSPrime);
}

TEST(Optimizer, PrimedUniverseHasFamilyPerCheck) {
  // Arrays of different sizes indexed by the same variable: the upper
  // checks (i <= 20) and (i <= 30) share a family normally.
  const char *Src = R"(
program p
  real a(30), b(20)
  integer i
  i = 5
  a(i) = 0.0
  i = 6
  b(i) = 1.0
end program
)";
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::NI;
  PO.Opt.Implications = ImplicationMode::None;
  CompileResult R = compileOrDie(Src, PO);
  // In the no-implication mode every check is its own family: the
  // paper's explanation for why the primed variants are slower.
  EXPECT_EQ(R.Stats.UniverseSize, R.Stats.NumFamilies);

  PO.Opt.Implications = ImplicationMode::All;
  CompileResult R2 = compileOrDie(Src, PO);
  EXPECT_LT(R2.Stats.NumFamilies, R2.Stats.UniverseSize);
}

TEST(Optimizer, OptimizedIRVerifies) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    for (PlacementScheme S : {PlacementScheme::SE, PlacementScheme::LLS,
                              PlacementScheme::ALL}) {
      CompileResult R = compileWithScheme(P.Source, S);
      DiagnosticEngine D;
      EXPECT_TRUE(verifyModule(*R.M, D))
          << P.Name << "/" << placementSchemeName(S) << ":\n" << D.render();
    }
  }
}

TEST(Optimizer, IdempotentOnSecondRun) {
  // Running the optimizer twice must not change the check counts again
  // (the first run reaches a fixpoint for elimination).
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileOrDie(MixedSrc, PO);
  uint64_t After1 = countStatic(*R.M).Checks;
  DiagnosticEngine D;
  OptimizerStats S2 = optimizeModule(*R.M, PO.Opt, D);
  EXPECT_EQ(S2.ChecksDeleted, 0u);
  EXPECT_EQ(countStatic(*R.M).Checks, After1 + S2.CondChecksInserted * 0);
  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Ok);
}

TEST(Optimizer, StatsAccounting) {
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileOrDie(MixedSrc, PO);
  const OptimizerStats &S = R.Stats;
  EXPECT_GT(S.ChecksBefore, S.ChecksAfter);
  EXPECT_GT(S.ChecksDeleted, 0u);
  EXPECT_GT(S.CondChecksInserted, 0u);
}

TEST(Optimizer, AllSchemesOnAllSuitePrograms) {
  // The heavyweight sweep: every scheme preserves the behaviour of every
  // suite program (both check sources).
  for (const SuiteProgram &P : benchmarkSuite()) {
    SCOPED_TRACE(P.Name);
    CompileResult Naive = compileNaive(P.Source);
    ExecResult NaiveRun = interpret(*Naive.M);
    ASSERT_EQ(NaiveRun.St, ExecResult::Status::Ok) << NaiveRun.FaultMessage;
    for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
      for (PlacementScheme S :
           {PlacementScheme::NI, PlacementScheme::CS, PlacementScheme::LNI,
            PlacementScheme::SE, PlacementScheme::LI, PlacementScheme::LLS,
            PlacementScheme::ALL}) {
        CompileResult Opt = compileWithScheme(P.Source, S, Src);
        ExecResult OptRun = interpret(*Opt.M);
        expectBehaviorPreserved(NaiveRun, OptRun,
                                std::string(P.Name) + "/" +
                                    placementSchemeName(S));
      }
    }
  }
}

TEST(Optimizer, SchemeNamesRoundTrip) {
  for (PlacementScheme S : AllPlacementSchemes) {
    PlacementScheme Parsed;
    ASSERT_TRUE(parsePlacementScheme(placementSchemeName(S), Parsed));
    EXPECT_EQ(Parsed, S);
  }
  PlacementScheme Lower;
  ASSERT_TRUE(parsePlacementScheme("lls", Lower));
  EXPECT_EQ(Lower, PlacementScheme::LLS);
  EXPECT_STREQ(placementSchemeNames(),
               "NI, CS, LNI, SE, LI, LLS, ALL, MCM, AI");
  PlacementScheme Dummy;
  EXPECT_FALSE(parsePlacementScheme("bogus", Dummy));
  EXPECT_FALSE(parsePlacementScheme("", Dummy));
  EXPECT_FALSE(parsePlacementScheme("LLSX", Dummy));
}

} // namespace
