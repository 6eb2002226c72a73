//===----------------------------------------------------------------------===//
///
/// \file
/// Profile behaviour on trapping runs: a check that fires mid-loop must
/// record the partial trip count up to the trap, and the profile's totals
/// must reconcile with the interpreter's per-site CheckSiteCount record
/// and the provenance terminal states — for every placement scheme, since
/// each scheme traps at a different site (body check, hoisted preheader
/// check, post-loop LLS residual).
///
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "TestHelpers.h"
#include "obs/Json.h"
#include "obs/Provenance.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Walks off the end of a(10) at iteration 11 of 15: every scheme must
/// trap (behaviour preservation), each at its own placement of the
/// violated upper-bound check.
const char *TrappingLoop = R"(
program p
  real a(10)
  integer i, n
  n = 15
  do i = 1, n
    a(i) = real(i)
  end do
  print a(1)
end program
)";

struct TrappedRun {
  CompileResult R;
  ExecResult E;
};

TrappedRun runTrapped(PlacementScheme Scheme, bool Optimize = true) {
  PipelineOptions PO;
  PO.Optimize = Optimize;
  PO.Opt.Scheme = Scheme;
  PO.Telemetry.Provenance = true;
  PO.Telemetry.Profile = true;
  TrappedRun T;
  T.R = compileOrDie(TrappingLoop, PO);
  InterpOptions IO;
  IO.Profile = &T.R.Profile;
  IO.CountCheckSites = true;
  T.E = interpret(*T.R.M, IO);
  EXPECT_EQ(T.E.St, ExecResult::Status::Trapped)
      << placementSchemeName(Scheme) << ": " << T.E.FaultMessage;
  return T;
}

TEST(ProfileTrap, NaiveTrapRecordsPartialTripCount) {
  TrappedRun T = runTrapped(PlacementScheme::NI, /*Optimize=*/false);
  const obs::FunctionProfile &FP = T.R.Profile.functions()[0];
  ASSERT_EQ(FP.Loops.size(), 1u);
  const obs::LoopProfile &L = FP.Loops[0];

  // One entry, cut short by the trap: the body ran 11 times (the 11th
  // iteration's own check fired) and the histogram records exactly that
  // partial trip count — not 15, not 0.
  EXPECT_EQ(L.Entries, 1u);
  EXPECT_EQ(L.PartialEntries, 1u);
  EXPECT_EQ(L.Iterations, 11u);
  ASSERT_EQ(L.TripHistogram.size(), 1u);
  EXPECT_EQ(L.TripHistogram.begin()->first, 11u);
  EXPECT_EQ(L.TripHistogram.begin()->second, 1u);

  // Exactly one site trapped, and only the iterations before the trap
  // stored into the array.
  EXPECT_EQ(T.R.Profile.dynTraps(), 1u);
  EXPECT_EQ(T.R.Profile.trappedRuns(), 1u);
  for (const obs::ArrayProfile &A : FP.Arrays)
    if (A.Name == "a") {
      EXPECT_EQ(A.Stores, 10u);
    }
}

TEST(ProfileTrap, TotalsReconcileAcrossAllSchemes) {
  for (PlacementScheme Scheme : AllPlacementSchemes) {
    const std::string Label = placementSchemeName(Scheme);
    TrappedRun T = runTrapped(Scheme);
    const obs::ExecutionProfile &P = T.R.Profile;

    // Run-level totals: one run, trapped, exactly one dynamic trap, and
    // the profile's dynamic check total is the interpreter's.
    EXPECT_EQ(P.runs(), 1u) << Label;
    EXPECT_EQ(P.trappedRuns(), 1u) << Label;
    EXPECT_EQ(P.dynTraps(), 1u) << Label;
    EXPECT_EQ(P.dynChecks(), T.E.DynChecks) << Label;

    // Per-site reconciliation with the CheckSiteCount record: both paths
    // observed the same executions at the same (func, block, index).
    std::map<std::tuple<std::string, BlockID, uint32_t>, uint64_t> ByKey;
    for (const obs::CheckSiteCount &S : T.E.CheckSites)
      ByKey[{S.Func, S.Block, S.Index}] += S.Count;
    uint64_t SiteTotal = 0;
    for (const obs::FunctionProfile &FP : P.functions())
      for (const obs::CheckSiteProfile &S : FP.Sites) {
        SiteTotal += S.Hits;
        auto It = ByKey.find({FP.Name, S.Block, S.Index});
        uint64_t Counted = It == ByKey.end() ? 0 : It->second;
        EXPECT_EQ(S.Hits, Counted)
            << Label << ": " << FP.Name << " bb" << S.Block << "#"
            << S.Index;
        EXPECT_LE(S.Traps, S.Hits) << Label;
      }
    EXPECT_EQ(SiteTotal, T.E.DynChecks) << Label;

    // Reconciliation with provenance terminal states: the profile's site
    // set is exactly the set of Residualized tags — a check the compiler
    // eliminated, subsumed, or turned into an unconditional Trap never
    // appears as a dynamic site.
    std::set<CheckTag> SiteTags;
    for (const obs::FunctionProfile &FP : P.functions())
      for (const obs::CheckSiteProfile &S : FP.Sites)
        SiteTags.insert(S.Tag);
    std::set<CheckTag> Residual, CompileTimeTrapped;
    for (CheckTag Tag : T.R.Provenance.tags()) {
      const obs::LifecycleEvent *Last = T.R.Provenance.lastEventOf(Tag);
      ASSERT_NE(Last, nullptr) << Label;
      if (Last->Kind == obs::LifecycleKind::Residualized)
        Residual.insert(Tag);
      if (Last->Kind == obs::LifecycleKind::Trapped)
        CompileTimeTrapped.insert(Tag);
    }
    EXPECT_EQ(SiteTags, Residual) << Label;
    EXPECT_EQ(P.residualSites(), Residual.size()) << Label;
    for (CheckTag Tag : CompileTimeTrapped)
      EXPECT_EQ(SiteTags.count(Tag), 0u) << Label;

    // The partial entry made it into some loop's histogram: entries
    // always balance (Σ histogram == entries), trap or no trap.
    for (const obs::FunctionProfile &FP : P.functions())
      for (const obs::LoopProfile &L : FP.Loops) {
        uint64_t HistSum = 0;
        for (const auto &Bin : L.TripHistogram)
          HistSum += Bin.second;
        EXPECT_EQ(HistSum, L.Entries) << Label;
        EXPECT_LE(L.PartialEntries, L.Entries) << Label;
      }
  }
}

TEST(ProfileTrap, TrapEnvelopeStillSchemaValidates) {
  // A trapped run's envelope must still reconcile: the validator checks
  // the advertised totals against the per-function payload.
  TrappedRun T = runTrapped(PlacementScheme::LLS);
  obs::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(T.R.Profile.toEnvelopeJson(), Doc, &Err))
      << Err;
  EXPECT_TRUE(obs::validateProfileDocument(Doc, &Err)) << Err;
}

} // namespace
