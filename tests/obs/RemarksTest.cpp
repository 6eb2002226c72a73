//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization-remark stream: per-kind remark totals must reconcile
/// exactly with OptimizerStats for every placement scheme, remarks are
/// the same whether they derive from the provenance record or from a
/// recorder of their own and match the lifecycle events they map from,
/// the family filter must drop non-matching remarks, and the
/// interpreter's residual-check join must agree with the dynamic check
/// count.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "obs/Json.h"
#include "obs/Profile.h"
#include "obs/Remarks.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <map>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Triangular loop over two arrays with a conditional update: exercises
/// elimination, strengthening, preheader hoisting, and LCM placement.
const char *Corpus = R"(
program remarks
  integer n, i, j
  real a(40), b(40)
  n = 30
  do i = 1, n
    a(i) = real(i)
  end do
  do i = 1, n
    do j = i, n
      b(j) = b(j) + a(i)
      if (j > 5) then
        a(j) = b(j)
      end if
    end do
  end do
  print b(7)
end program
)";

/// Per-kind reconciliation of one compile's remark stream against its
/// OptimizerStats.
void expectReconciled(const CompileResult &R, PlacementScheme S) {
  const char *N = placementSchemeName(S);
  const obs::RemarkCollector &RC = R.Remarks;
  EXPECT_EQ(RC.count(obs::RemarkKind::Eliminated), R.Stats.ChecksDeleted) << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::Strengthened),
            R.Stats.ChecksStrengthened)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::LcmInserted), R.Stats.ChecksInserted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::CondInserted),
            R.Stats.CondChecksInserted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::Rehoisted), R.Stats.Rehoisted) << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::CompileTimeDeleted),
            R.Stats.CompileTimeDeleted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::CompileTimeTrap),
            R.Stats.CompileTimeTraps)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::IntervalEliminated),
            R.Stats.IntervalDeleted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::Residual), 0u) << N;
}

CompileResult compileWithRemarks(const char *Source, PlacementScheme S,
                                 const std::string &Filter = "") {
  PipelineOptions PO;
  PO.Opt.Scheme = S;
  PO.Telemetry.Remarks = true;
  PO.Telemetry.RemarkFilter = Filter;
  return compileOrDie(Source, PO);
}

/// A statically failing subscript: a(20) folds into a trap (under AI,
/// value ranges prove it) that truncates its block. Other schemes delete
/// b(4)'s constant checks as available first; under AI they close under
/// "Unreachable", which has no remark.
const char *TrapCorpus = R"(
program ct
  integer n, i
  real a(10), b(20)
  n = 8
  do i = 1, n
    a(i) = b(i+2) + a(5)
  end do
  if (n > 3) then
    a(20) = 2.0
    b(4) = 3.0
  end if
  print a(2)
end program
)";

/// Every suite program plus the trap corpus, as (name, source) pairs.
std::vector<std::pair<std::string, const char *>> derivationPrograms() {
  std::vector<std::pair<std::string, const char *>> Out;
  for (const SuiteProgram &P : benchmarkSuite())
    Out.push_back({P.Name, P.Source});
  Out.push_back({"ct", TrapCorpus});
  return Out;
}

std::string cellName(const std::string &Program, PlacementScheme S,
                     CheckSource Src) {
  return Program + "/" + placementSchemeName(S) +
         (Src == CheckSource::PRX ? "/PRX" : "/INX");
}

CompileResult compileCell(const char *Source, PlacementScheme S,
                          CheckSource Src, bool Provenance) {
  PipelineOptions PO;
  PO.Opt.Scheme = S;
  PO.Source = Src;
  PO.Telemetry.Remarks = true;
  PO.Telemetry.Provenance = Provenance;
  return compileOrDie(Source, PO);
}

void expectSameRemark(const obs::Remark &A, const obs::Remark &B,
                      const std::string &Where) {
  EXPECT_EQ(A.Kind, B.Kind) << Where;
  EXPECT_EQ(A.Pass, B.Pass) << Where;
  EXPECT_EQ(A.Function, B.Function) << Where;
  EXPECT_EQ(A.Block, B.Block) << Where;
  EXPECT_EQ(A.CheckStr, B.CheckStr) << Where;
  EXPECT_EQ(A.FamilyStr, B.FamilyStr) << Where;
  EXPECT_EQ(A.Bound, B.Bound) << Where;
  EXPECT_EQ(A.Origin.ArrayName, B.Origin.ArrayName) << Where;
  EXPECT_EQ(A.Origin.Dim, B.Origin.Dim) << Where;
  EXPECT_EQ(A.Origin.IsUpper, B.Origin.IsUpper) << Where;
  EXPECT_EQ(A.Origin.Loc.Line, B.Origin.Loc.Line) << Where;
  EXPECT_EQ(A.Origin.Loc.Column, B.Origin.Loc.Column) << Where;
  EXPECT_EQ(A.Justification, B.Justification) << Where;
  EXPECT_EQ(A.DynCount, B.DynCount) << Where;
  EXPECT_EQ(A.HasDynCount, B.HasDynCount) << Where;
}

} // namespace

TEST(Remarks, ReconcilesWithStatsAcrossAllSchemes) {
  for (PlacementScheme S : AllPlacementSchemes) {
    CompileResult R = compileWithRemarks(Corpus, S);
    expectReconciled(R, S);
  }
}

TEST(Remarks, LlsEmitsDecisions) {
  CompileResult R = compileWithRemarks(Corpus, PlacementScheme::LLS);
  EXPECT_FALSE(R.Remarks.remarks().empty());
  EXPECT_GT(R.Stats.ChecksDeleted, 0u);
  for (const obs::Remark &M : R.Remarks.remarks()) {
    EXPECT_FALSE(M.Pass.empty());
    EXPECT_FALSE(M.Function.empty());
    EXPECT_FALSE(M.Block.empty());
    EXPECT_FALSE(M.CheckStr.empty());
    EXPECT_FALSE(M.Justification.empty());
  }
}

TEST(Remarks, DisabledCollectorStaysEmpty) {
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileOrDie(Corpus, PO);
  EXPECT_FALSE(R.Remarks.enabled());
  EXPECT_TRUE(R.Remarks.remarks().empty());
}

TEST(Remarks, FamilyFilter) {
  CompileResult All = compileWithRemarks(Corpus, PlacementScheme::LLS);
  CompileResult None =
      compileWithRemarks(Corpus, PlacementScheme::LLS, "zzz-no-such-family");
  CompileResult OnlyB = compileWithRemarks(Corpus, PlacementScheme::LLS, "^b$");
  EXPECT_TRUE(None.Remarks.remarks().empty());
  EXPECT_FALSE(OnlyB.Remarks.remarks().empty());
  EXPECT_LT(OnlyB.Remarks.remarks().size(), All.Remarks.remarks().size());
  for (const obs::Remark &M : OnlyB.Remarks.remarks())
    EXPECT_EQ(M.Origin.ArrayName, "b");
}

TEST(Remarks, ResidualJoinMatchesDynamicCounts) {
  CompileResult R = compileWithRemarks(Corpus, PlacementScheme::LLS);
  obs::ExecutionProfile Profile;
  Profile.attach(*R.M);
  InterpOptions IO;
  IO.Profile = &Profile;
  ExecResult E = interpret(*R.M, IO);
  ASSERT_TRUE(E.ok()) << E.FaultMessage;
  EXPECT_EQ(Profile.dynChecks(), E.DynChecks);

  size_t Before = R.Remarks.remarks().size();
  emitResidualCheckRemarks(*R.M, Profile, R.Remarks);
  // One residual remark per *static* surviving check...
  EXPECT_EQ(R.Remarks.count(obs::RemarkKind::Residual), R.Stats.ChecksAfter);
  EXPECT_EQ(R.Remarks.remarks().size(), Before + R.Stats.ChecksAfter);
  // ...and their dynamic counts sum to the interpreter's check total.
  uint64_t Sum = 0;
  for (const obs::Remark &M : R.Remarks.remarks())
    if (M.Kind == obs::RemarkKind::Residual) {
      EXPECT_TRUE(M.HasDynCount);
      Sum += M.DynCount;
    }
  EXPECT_EQ(Sum, E.DynChecks);
}

TEST(Remarks, JsonStreamParses) {
  CompileResult R = compileWithRemarks(Corpus, PlacementScheme::LLS);
  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(R.Remarks.toJson(), V, &Err)) << Err;
  ASSERT_TRUE(V.isArray());
  ASSERT_EQ(V.Array.size(), R.Remarks.remarks().size());
  for (const obs::JsonValue &M : V.Array) {
    ASSERT_NE(M.get("kind"), nullptr);
    ASSERT_NE(M.get("pass"), nullptr);
    ASSERT_NE(M.get("block"), nullptr);
    ASSERT_NE(M.get("check"), nullptr);
    ASSERT_NE(M.get("justification"), nullptr);
    ASSERT_NE(M.get("origin"), nullptr);
  }
}

TEST(Remarks, SameWithAndWithoutProvenance) {
  size_t Total = 0;
  for (const auto &[Name, Source] : derivationPrograms())
    for (PlacementScheme S : AllPlacementSchemes)
      for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
        std::string Cell = cellName(Name, S, Src);
        CompileResult Local = compileCell(Source, S, Src, false);
        CompileResult Shared = compileCell(Source, S, Src, true);
        // Without provenance the optimizer records into a recorder of its
        // own; nothing reaches the caller's.
        EXPECT_FALSE(Local.Provenance.enabled()) << Cell;
        EXPECT_TRUE(Local.Provenance.events().empty()) << Cell;
        const auto &L = Local.Remarks.remarks();
        const auto &R = Shared.Remarks.remarks();
        ASSERT_EQ(L.size(), R.size()) << Cell;
        for (size_t I = 0; I != L.size(); ++I)
          expectSameRemark(L[I], R[I], Cell + " remark #" + std::to_string(I));
        Total += L.size();
      }
  EXPECT_GT(Total, 0u);
}

TEST(Remarks, KindTotalsEqualMappedEventTotals) {
  // The remark mapping, written out independently of the derivation; a
  // null pass counts events of any pass.
  const struct {
    obs::RemarkKind Remark;
    obs::LifecycleKind Event;
    const char *Pass;
  } Mapping[] = {
      {obs::RemarkKind::Eliminated, obs::LifecycleKind::SubsumedBy,
       "Elimination"},
      {obs::RemarkKind::Strengthened, obs::LifecycleKind::Strengthened,
       "CheckStrengthening"},
      {obs::RemarkKind::LcmInserted, obs::LifecycleKind::Inserted,
       "LazyCodeMotion"},
      {obs::RemarkKind::CondInserted, obs::LifecycleKind::Inserted,
       "PreheaderInsertion"},
      {obs::RemarkKind::Rehoisted, obs::LifecycleKind::Moved,
       "PreheaderInsertion"},
      {obs::RemarkKind::CompileTimeDeleted, obs::LifecycleKind::Eliminated,
       "Elimination"},
      {obs::RemarkKind::CompileTimeTrap, obs::LifecycleKind::Trapped,
       nullptr},
      {obs::RemarkKind::IntervalEliminated, obs::LifecycleKind::Eliminated,
       "IntervalAnalysis"},
  };
  std::map<obs::RemarkKind, size_t> Seen;
  for (const auto &[Name, Source] : derivationPrograms())
    for (PlacementScheme S : AllPlacementSchemes)
      for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
        std::string Cell = cellName(Name, S, Src);
        CompileResult R = compileCell(Source, S, Src, true);
        size_t Mapped = 0;
        for (const auto &M : Mapping) {
          size_t Remarks = R.Remarks.count(M.Remark);
          EXPECT_EQ(Remarks, R.Provenance.count(M.Event, M.Pass ? M.Pass : ""))
              << Cell << ": " << obs::remarkKindName(M.Remark);
          Mapped += Remarks;
          Seen[M.Remark] += Remarks;
        }
        // No other event turns into a remark.
        EXPECT_EQ(Mapped, R.Remarks.remarks().size()) << Cell;
      }
  // Every row of the mapping is exercised somewhere.
  for (const auto &M : Mapping)
    EXPECT_GT(Seen[M.Remark], 0u) << obs::remarkKindName(M.Remark);
}
