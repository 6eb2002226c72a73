//===----------------------------------------------------------------------===//
///
/// \file
/// audit_all: compiles every benchmark-suite program under every placement
/// scheme (and every implication mode) with the trap-safety auditor
/// enabled, and exits nonzero on any finding. This is the CI gate behind
/// the `audit-all` target / `check-audit` test label: a change to the
/// optimizer that silently weakens trap safety fails here even when no
/// hand-written test exercises the broken placement.
///
/// The sweep summary reports the optimizer phase cost per configuration
/// (both clocks, summed over the suite); `--json` emits the whole sweep
/// as one machine-readable document instead.
///
/// `--jobs N` fans the (program, scheme, mode) matrix across N worker
/// threads via BatchCompiler (0 = one per hardware thread). Results are
/// consumed in submission order and the job count is deliberately not
/// echoed into the output, so findings, counters, and JSON are
/// bit-identical across job counts (timing values aside). `--cache`
/// shares frontend and analysis artifacts across the matrix
/// (docs/caching.md) without changing a byte of the audit output; file
/// arguments sweep the given programs instead of the built-in suite.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "driver/BatchCompiler.h"
#include "driver/Pipeline.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "suite/Suite.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

using namespace nascent;

namespace {

/// Accumulated optimizer phase cost of one (scheme, mode) configuration.
struct ConfigTiming {
  double OptimizeWall = 0;
  double OptimizeCpu = 0;
  double TotalWall = 0;
  double TotalCpu = 0;
  unsigned Runs = 0;
};

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  bool Provenance = false;
  bool UseCache = false;
  std::vector<std::string> Files;
  unsigned Jobs = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--provenance") == 0)
      Provenance = true;
    else if (std::strcmp(argv[I], "--cache") == 0)
      UseCache = true;
    else if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      unsigned Requested = 0;
      if (!parseJobCount(argv[++I], Requested)) {
        std::fprintf(stderr,
                     "audit_all: invalid --jobs value '%s' (expected a "
                     "non-negative integer; 0 = one worker per hardware "
                     "thread)\n",
                     argv[I]);
        return 2;
      }
      Jobs = resolveJobCount(Requested);
    } else if (argv[I][0] != '-')
      Files.push_back(argv[I]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--provenance] [--cache] [--jobs N] "
                   "[FILE.mf ...]\n",
                   argv[0]);
      return 2;
    }
  }

  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const ImplicationMode Modes[] = {ImplicationMode::All,
                                   ImplicationMode::CrossFamilyOnly,
                                   ImplicationMode::None};

  obs::JsonWriter W;
  if (Json) {
    W.beginObject();
    W.kv("schemaVersion", obs::BenchSchemaVersion);
    W.kv("tool", "audit_all");
    W.key("runs");
    W.beginArray();
  }

  // Each program's text is materialised once (suite sources wrapped in a
  // shared buffer, file arguments read exactly once) and shared across
  // every grid cell via BatchJob's shared_ptr.
  struct ProgramEntry {
    std::string Name;
    std::shared_ptr<const std::string> Source;
  };
  std::vector<ProgramEntry> Programs;
  if (Files.empty()) {
    for (const SuiteProgram &P : benchmarkSuite())
      Programs.push_back(
          {P.Name, std::make_shared<const std::string>(P.Source)});
  } else {
    for (const std::string &Path : Files) {
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "audit_all: cannot open %s\n", Path.c_str());
        return 2;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Programs.push_back(
          {Path, std::make_shared<const std::string>(Buf.str())});
    }
  }

  // Build the job matrix in the canonical (program, scheme, mode) order;
  // Keys[I] identifies Batch[I] when results come back in the same order.
  struct RunKey {
    std::string Program;
    PlacementScheme Scheme;
    ImplicationMode Mode;
  };
  std::vector<BatchJob> Batch;
  std::vector<RunKey> Keys;
  for (const ProgramEntry &P : Programs) {
    for (PlacementScheme Scheme : Schemes) {
      for (ImplicationMode Mode : Modes) {
        PipelineOptions PO;
        PO.Opt.Scheme = Scheme;
        PO.Opt.Implications = Mode;
        PO.Audit = true;
        PO.Cache.Enabled = UseCache;
        PO.Telemetry.Provenance = Provenance;
        Batch.push_back({P.Source, PO});
        Keys.push_back({P.Name, Scheme, Mode});
      }
    }
  }

  if (UseCache)
    cache::ArtifactCache::global().resetStats();
  std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
  // Stats go to stderr so stdout stays byte-identical cache-on vs off.
  if (UseCache)
    std::fprintf(stderr, "audit_all: %s\n",
                 cache::ArtifactCache::global().summaryLine().c_str());

  unsigned Runs = 0, Failures = 0;
  AuditStats Total;
  std::map<std::pair<std::string, std::string>, ConfigTiming> Timings;
  for (size_t I = 0; I != Results.size(); ++I) {
    const RunKey &K = Keys[I];
    const CompileResult &R = Results[I].Result;
    ++Runs;
    if (!R.Success) {
      std::fprintf(stderr, "audit_all: %s/%s: compile failed:\n%s\n",
                   K.Program.c_str(), placementSchemeName(K.Scheme),
                   R.Diags.render().c_str());
      ++Failures;
      continue;
    }
    ConfigTiming &CT = Timings[{placementSchemeName(K.Scheme),
                                implicationModeName(K.Mode)}];
    CT.OptimizeWall += R.optimizeWallSeconds();
    CT.OptimizeCpu += R.optimizeCpuSeconds();
    CT.TotalWall += R.totalWallSeconds();
    CT.TotalCpu += R.totalCpuSeconds();
    ++CT.Runs;
    if (Json) {
      W.beginObject();
      W.kv("program", K.Program);
      W.kv("scheme", placementSchemeName(K.Scheme));
      W.kv("impl", implicationModeName(K.Mode));
      W.kv("clean", R.Audit.clean());
      W.key("stats");
      R.Stats.writeJson(W);
      W.key("phases");
      W.beginArray();
      for (const obs::PhaseTiming &Ph : R.Phases.Phases) {
        W.beginObject();
        W.kv("name", Ph.Name);
        W.kv("wallSeconds", Ph.WallSeconds);
        W.kv("cpuSeconds", Ph.CpuSeconds);
        W.endObject();
      }
      W.endArray();
      if (Provenance) {
        W.key("provenance");
        R.Provenance.writeJson(W);
      }
      W.endObject();
    }
    if (Provenance) {
      // The provenance record must reconcile with the optimizer stats for
      // every configuration; a mismatch is a finding like any other.
      std::vector<std::string> Problems =
          reconcileCheckProvenance(R.Provenance, R.Stats);
      if (!Problems.empty()) {
        std::fprintf(stderr, "audit_all: %s scheme=%s impl=%s provenance "
                             "FAILED\n",
                     K.Program.c_str(), placementSchemeName(K.Scheme),
                     implicationModeName(K.Mode));
        for (const std::string &P : Problems)
          std::fprintf(stderr, "  %s\n", P.c_str());
        ++Failures;
      }
    }
    Total += R.Audit.stats();
    if (!R.Audit.clean()) {
      std::fprintf(stderr, "audit_all: %s scheme=%s impl=%d FAILED\n%s",
                   K.Program.c_str(), placementSchemeName(K.Scheme),
                   static_cast<int>(K.Mode), R.Audit.render().c_str());
      ++Failures;
    }
  }

  if (Json) {
    W.endArray();
    W.kv("runs", Runs);
    W.kv("failures", Failures);
    W.key("configTimings");
    W.beginArray();
    for (const auto &[Key, CT] : Timings) {
      W.beginObject();
      W.kv("scheme", Key.first);
      W.kv("impl", Key.second);
      W.kv("optimizeWallSeconds", CT.OptimizeWall);
      W.kv("optimizeCpuSeconds", CT.OptimizeCpu);
      W.kv("totalWallSeconds", CT.TotalWall);
      W.kv("totalCpuSeconds", CT.TotalCpu);
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::printf("%s\n", W.str().c_str());
    return Failures ? 1 : 0;
  }

  std::printf("audit_all: %u runs, %u failures; checks=%u condchecks=%u "
              "traps=%u covered=%u facts=%u\n",
              Runs, Failures, Total.ChecksAudited, Total.CondChecksAudited,
              Total.TrapsAudited, Total.OriginalChecksCovered,
              Total.FactsValidated);

  std::printf("\noptimizer phase cost per configuration (seconds over the "
              "suite):\n");
  TextTable T({"scheme", "impl", "opt wall", "opt cpu", "total wall",
               "total cpu"});
  for (const auto &[Key, CT] : Timings)
    T.addRow({Key.first, Key.second, formatString("%.3f", CT.OptimizeWall),
              formatString("%.3f", CT.OptimizeCpu),
              formatString("%.3f", CT.TotalWall),
              formatString("%.3f", CT.TotalCpu)});
  std::printf("%s", T.render().c_str());
  return Failures ? 1 : 0;
}
