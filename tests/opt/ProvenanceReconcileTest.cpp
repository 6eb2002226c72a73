//===----------------------------------------------------------------------===//
///
/// \file
/// The two provenance reconciliation invariants, enforced for every
/// placement scheme over the benchmark suite:
///
///  1. Lifecycle terminal states reconcile exactly with OptimizerStats —
///     every Inserted/Moved/Strengthened/SubsumedBy/Eliminated/Trapped/
///     Residualized total matches the corresponding counter
///     (reconcileCheckProvenance, opt/RangeCheckOptimizer.h).
///  2. A check whose lifecycle ended Eliminated (or SubsumedBy, or
///     Trapped) has zero dynamic executions: only Residualized tags may
///     appear among the interpreter's per-site counts.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/Provenance.h"
#include "suite/Suite.h"

#include "gtest/gtest.h"

#include <map>
#include <sstream>

using namespace nascent;

namespace {

CompileResult compileWithProvenance(const SuiteProgram &P,
                                    PlacementScheme Scheme,
                                    CheckSource Source = CheckSource::PRX) {
  PipelineOptions PO;
  PO.Opt.Scheme = Scheme;
  PO.Source = Source;
  PO.Telemetry.Provenance = true;
  CompileResult R = compileSource(P.Source, PO);
  EXPECT_TRUE(R.Success) << P.Name << ": " << R.Diags.render();
  return R;
}

std::string join(const std::vector<std::string> &Problems) {
  std::ostringstream OS;
  for (const std::string &P : Problems)
    OS << "  " << P << "\n";
  return OS.str();
}

TEST(ProvenanceReconcile, TerminalStatesMatchOptimizerStatsForAllSchemes) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    for (PlacementScheme Scheme : AllPlacementSchemes) {
      CompileResult R = compileWithProvenance(P, Scheme);
      if (!R.Success)
        continue;
      std::vector<std::string> Problems =
          reconcileCheckProvenance(R.Provenance, R.Stats);
      EXPECT_TRUE(Problems.empty())
          << P.Name << "/" << placementSchemeName(Scheme) << ":\n"
          << join(Problems);
    }
  }
}

TEST(ProvenanceReconcile, TerminalStatesMatchStatsUnderINXChecks) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  for (PlacementScheme Scheme : AllPlacementSchemes) {
    CompileResult R = compileWithProvenance(*P, Scheme, CheckSource::INX);
    if (!R.Success)
      continue;
    std::vector<std::string> Problems =
        reconcileCheckProvenance(R.Provenance, R.Stats);
    EXPECT_TRUE(Problems.empty())
        << placementSchemeName(Scheme) << ":\n"
        << join(Problems);
  }
}

TEST(ProvenanceReconcile, EliminatedChecksNeverExecute) {
  const char *Programs[] = {"vortex", "linpackd", "trfd"};
  for (const char *Name : Programs) {
    const SuiteProgram *P = findSuiteProgram(Name);
    ASSERT_NE(P, nullptr) << Name;
    for (PlacementScheme Scheme : AllPlacementSchemes) {
      CompileResult R = compileWithProvenance(*P, Scheme);
      if (!R.Success)
        continue;

      InterpOptions IO;
      IO.CountCheckSites = true;
      ExecResult E = interpret(*R.M, IO);
      ASSERT_NE(E.St, ExecResult::Status::HardFault)
          << Name << "/" << placementSchemeName(Scheme) << ": "
          << E.FaultMessage;

      for (const obs::CheckSiteCount &Site : E.CheckSites) {
        if (Site.Count == 0)
          continue;
        // Every dynamically executed check is a recorded, surviving one.
        ASSERT_NE(Site.Tag, NoCheckTag)
            << Name << "/" << placementSchemeName(Scheme) << " " << Site.Func
            << " block " << Site.Block;
        const obs::LifecycleEvent *Last = R.Provenance.lastEventOf(Site.Tag);
        ASSERT_NE(Last, nullptr)
            << Name << "/" << placementSchemeName(Scheme) << " tag "
            << Site.Tag;
        EXPECT_EQ(Last->Kind, obs::LifecycleKind::Residualized)
            << Name << "/" << placementSchemeName(Scheme) << " tag "
            << Site.Tag << " executed " << Site.Count
            << " times but its lifecycle ended "
            << obs::lifecycleKindName(Last->Kind);
      }
    }
  }
}

} // namespace
