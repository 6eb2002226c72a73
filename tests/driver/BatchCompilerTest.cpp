//===----------------------------------------------------------------------===//
///
/// \file
/// Batch-vs-serial equivalence: the BatchCompiler determinism contract
/// says a batch produces identical per-job results for every worker
/// count. For every placement scheme this compiles the audit matrix at
/// --jobs 1, 2, and 8 and asserts the optimizer stats, the audit
/// findings, and the per-job stat deltas are bit-identical to the serial
/// run. Runs under TSan via the check-threads label. Also pins the shape
/// of the sweep grid and the strict --jobs parser.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchCompiler.h"
#include "suite/Suite.h"

#include "gtest/gtest.h"

#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace nascent;

namespace {

/// Everything about a job's outcome that must not depend on the worker
/// count, rendered to comparable strings.
struct JobFingerprint {
  bool Success;
  std::string Stats;
  bool AuditClean;
  std::string AuditReport;
  obs::StatSnapshot::FlatMap Work;

  bool operator==(const JobFingerprint &O) const = default;
};

std::vector<JobFingerprint> fingerprints(unsigned Jobs,
                                         const std::vector<BatchJob> &Batch) {
  std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
  std::vector<JobFingerprint> Out;
  for (const BatchJobResult &R : Results) {
    std::ostringstream SS;
    R.Result.Stats.print(SS);
    Out.push_back({R.Result.Success, SS.str(), R.Result.Audit.clean(),
                   R.Result.Audit.render(), R.Work});
  }
  return Out;
}

/// vortex under every (scheme, implication mode) cell, audited.
std::vector<BatchJob> auditMatrix() {
  const SuiteProgram *P = findSuiteProgram("vortex");
  EXPECT_NE(P, nullptr);
  PipelineOptions Base;
  Base.Audit = true;
  return buildSweepGrid(
             {{P->Name, std::make_shared<const std::string>(P->Source)}},
             Base)
      .Jobs;
}

TEST(BatchCompiler, ParallelRunsMatchSerialForEveryScheme) {
  std::vector<BatchJob> Batch = auditMatrix();

  // Warmup so one-time lazy initialisation (dynamically interned
  // counters and the like) cannot appear as a first-run-only delta.
  fingerprints(1, Batch);

  std::vector<JobFingerprint> Serial = fingerprints(1, Batch);
  for (unsigned Jobs : {2u, 8u}) {
    std::vector<JobFingerprint> Parallel = fingerprints(Jobs, Batch);
    ASSERT_EQ(Parallel.size(), Serial.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_TRUE(Serial[I].Success) << "job " << I;
      EXPECT_EQ(Parallel[I].Success, Serial[I].Success)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].Stats, Serial[I].Stats)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].AuditClean, Serial[I].AuditClean)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].AuditReport, Serial[I].AuditReport)
          << "jobs=" << Jobs << " job " << I;
      EXPECT_EQ(Parallel[I].Work, Serial[I].Work)
          << "jobs=" << Jobs << " job " << I;
    }
  }
}

TEST(BatchCompiler, RegistryTotalsMatchSerialAfterParallelRun) {
  // The post-run registry view must also be exact: every worker is
  // joined (and its shard flushed) before run() returns, so the total
  // growth over a batch is the same for every worker count.
  std::vector<BatchJob> Batch = auditMatrix();
  fingerprints(1, Batch); // warmup

  auto RunDelta = [&Batch](unsigned Jobs) {
    obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
    BatchCompiler(Jobs).run(Batch);
    return obs::StatRegistry::global().snapshot().deltaFrom(Before);
  };
  obs::StatSnapshot::FlatMap Serial = RunDelta(1);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(RunDelta(2), Serial);
  EXPECT_EQ(RunDelta(8), Serial);
}

TEST(BatchCompiler, CompileErrorsAreReportedNotThrown) {
  std::vector<BatchJob> Batch(4, BatchJob{"not a ( valid program",
                                          PipelineOptions{}});
  for (unsigned Jobs : {1u, 2u}) {
    std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
    ASSERT_EQ(Results.size(), Batch.size());
    for (const BatchJobResult &R : Results)
      EXPECT_FALSE(R.Result.Success);
  }
}

TEST(BatchCompiler, SweepGridIsProgramMajorAndKeysEveryJob) {
  auto A = std::make_shared<const std::string>("program a\nend program\n");
  auto B = std::make_shared<const std::string>("program b\nend program\n");
  PipelineOptions Base;
  Base.Audit = true;
  Base.Telemetry.Provenance = true;
  SweepGrid G = buildSweepGrid({{"a", A}, {"b", B}}, Base);

  const size_t PerProgram =
      std::size(AllPlacementSchemes) * std::size(AllImplicationModes);
  ASSERT_EQ(G.Jobs.size(), 2 * PerProgram);
  ASSERT_EQ(G.Cells.size(), G.Jobs.size());
  size_t I = 0;
  for (const char *Program : {"a", "b"}) {
    for (PlacementScheme Scheme : AllPlacementSchemes) {
      for (ImplicationMode Mode : AllImplicationModes) {
        const GridCell &C = G.Cells[I];
        const BatchJob &J = G.Jobs[I];
        EXPECT_EQ(C.Program, Program) << "cell " << I;
        EXPECT_EQ(C.Scheme, Scheme) << "cell " << I;
        EXPECT_EQ(C.Mode, Mode) << "cell " << I;
        EXPECT_EQ(J.Opts.Opt.Scheme, Scheme) << "cell " << I;
        EXPECT_EQ(J.Opts.Opt.Implications, Mode) << "cell " << I;
        // The base options ride along; the program text is shared.
        EXPECT_TRUE(J.Opts.Audit) << "cell " << I;
        EXPECT_TRUE(J.Opts.Telemetry.Provenance) << "cell " << I;
        EXPECT_EQ(J.Source, I < PerProgram ? A : B) << "cell " << I;
        ++I;
      }
    }
  }
}

TEST(BatchCompiler, ParseJobCountAcceptsOnlyBoundedDecimals) {
  for (const char *Bad :
       {"", "-3", "fast", "8x", "4097", "99999999999999999999"}) {
    unsigned Out = 77;
    EXPECT_FALSE(parseJobCount(Bad, Out)) << "'" << Bad << "'";
    EXPECT_EQ(Out, 77u) << "'" << Bad << "' touched the output";
  }
  const std::pair<const char *, unsigned> Good[] = {
      {"0", 0}, {"8", 8}, {"4096", 4096}};
  for (const auto &[Text, Want] : Good) {
    unsigned Out = 77;
    EXPECT_TRUE(parseJobCount(Text, Out)) << "'" << Text << "'";
    EXPECT_EQ(Out, Want) << "'" << Text << "'";
  }
}

TEST(BatchCompiler, ZeroJobsClampsToSerial) {
  EXPECT_EQ(BatchCompiler(0).jobs(), 1u);
  EXPECT_GE(resolveJobCount(0), 1u);
  EXPECT_EQ(resolveJobCount(5), 5u);
}

} // namespace
