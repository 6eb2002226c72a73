//===----------------------------------------------------------------------===//
///
/// \file
/// profdiff: cross-scheme dynamic check-cost comparison. For every suite
/// program it compiles the naive baseline (every check in place) plus all
/// nine placement schemes with an execution profile attached, runs each
/// module once, and reports
///
///   - the hot check sites of the naive baseline, ranked by dynamic hit
///     count, with the share of array accesses each site costs and the
///     list of schemes that eliminate the site statically (joined by the
///     stable lifecycle tag, which lowering assigns before any optimizer
///     runs — paste it into `mfc -explain=tag:N` for the decision chain)
///   - per-scheme residual-check density (dynamic checks per dynamic
///     array access, the paper's Table 1 characteristic), per program and
///     aggregated over the whole suite
///
///   profdiff [--json] [--top N] [--jobs N] [program ...]
///
/// Compilation fans out through BatchCompiler; results are consumed in
/// submission order and runs are serial, so the report is byte-identical
/// for every --jobs value.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchCompiler.h"
#include "interp/Interpreter.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "suite/Suite.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace nascent;

namespace {

/// Everything profdiff needs from one (program, config) run.
struct RunProfile {
  bool Ok = false;
  uint64_t DynChecks = 0;
  uint64_t DynTraps = 0;
  uint64_t Accesses = 0;
  uint64_t ResidualSites = 0;
  std::set<CheckTag> ResidualTags; ///< static residual sites, by tag
};

/// One naive check site, ready for ranking.
struct HotSite {
  CheckTag Tag = NoCheckTag;
  std::string Site; ///< "func bbN#idx Check(...) (array a dim d side)"
  uint64_t Hits = 0;
  std::vector<std::string> EliminatedBy; ///< schemes lacking the tag
};

RunProfile summarise(const obs::ExecutionProfile &P) {
  RunProfile R;
  R.Ok = true;
  R.DynChecks = P.dynChecks();
  R.DynTraps = P.dynTraps();
  R.Accesses = P.arrayAccesses();
  R.ResidualSites = P.residualSites();
  for (const obs::FunctionProfile &FP : P.functions())
    for (const obs::CheckSiteProfile &S : FP.Sites)
      if (S.Tag != NoCheckTag)
        R.ResidualTags.insert(S.Tag);
  return R;
}

std::string siteLabel(const obs::FunctionProfile &FP,
                      const obs::CheckSiteProfile &S) {
  std::string L = FP.Name + " bb" + std::to_string(S.Block) + "#" +
                  std::to_string(S.Index) + " " + S.CheckStr;
  if (!S.Origin.ArrayName.empty())
    L += " (array " + S.Origin.ArrayName + " dim " +
         std::to_string(S.Origin.Dim + 1) +
         (S.Origin.IsUpper ? " upper" : " lower") + " @" +
         S.Origin.Loc.str() + ")";
  return L;
}

} // namespace

int main(int argc, char **argv) {
  auto Usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s [--json] [--top N] [--jobs N] [program ...]\n",
                 argv[0]);
    return 2;
  };
  bool Json = false;
  unsigned Top = 10;
  unsigned Jobs = 1;
  std::vector<const SuiteProgram *> Programs;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--top") == 0 && I + 1 < argc) {
      if (!parseCountFlag(argv[++I], UINT_MAX, Top))
        return Usage();
    } else if (std::strcmp(argv[I], "--jobs") == 0 && I + 1 < argc) {
      unsigned Requested = 0;
      if (!parseJobCount(argv[++I], Requested))
        return Usage();
      Jobs = resolveJobCount(Requested);
    } else if (argv[I][0] == '-') {
      return Usage();
    } else {
      const SuiteProgram *P = findSuiteProgram(argv[I]);
      if (!P) {
        std::fprintf(stderr, "profdiff: unknown suite program '%s'\n",
                     argv[I]);
        return 2;
      }
      Programs.push_back(P);
    }
  }
  if (Programs.empty())
    for (const SuiteProgram &P : benchmarkSuite())
      Programs.push_back(&P);

  // One naive job plus one per scheme, per program, in a fixed order the
  // result loop below relies on.
  std::vector<BatchJob> Batch;
  for (const SuiteProgram *P : Programs) {
    PipelineOptions Naive;
    Naive.Optimize = false;
    Naive.Telemetry.Profile = true;
    Batch.push_back({P->Source, Naive});
    for (PlacementScheme S : AllPlacementSchemes) {
      PipelineOptions PO;
      PO.Opt.Scheme = S;
      PO.Telemetry.Profile = true;
      Batch.push_back({P->Source, PO});
    }
  }
  std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);

  const size_t PerProgram = 1 + std::size(AllPlacementSchemes);
  unsigned Failures = 0;

  obs::JsonWriter W;
  if (Json) {
    W.beginObject();
    W.kv("schemaVersion", obs::BenchSchemaVersion);
    W.kv("profileVersion", obs::ProfileVersion);
    W.kv("tool", "profdiff");
    W.key("programs").beginArray();
  }

  // Suite-wide aggregates per scheme (plus the naive baseline).
  std::map<std::string, RunProfile> Aggregate;

  for (size_t PI = 0; PI != Programs.size(); ++PI) {
    const SuiteProgram &Prog = *Programs[PI];
    BatchJobResult *Runs = &Results[PI * PerProgram];

    // Interpret serially, submission order: deterministic under --jobs N.
    std::vector<RunProfile> Summaries(PerProgram);
    for (size_t C = 0; C != PerProgram; ++C) {
      CompileResult &R = Runs[C].Result;
      if (!R.Success) {
        std::fprintf(stderr, "profdiff: %s: compile failed:\n%s\n",
                     Prog.Name, R.Diags.render().c_str());
        ++Failures;
        continue;
      }
      InterpOptions IO;
      IO.Profile = &R.Profile;
      ExecResult E = interpret(*R.M, IO);
      if (E.St == ExecResult::Status::HardFault) {
        std::fprintf(stderr, "profdiff: %s: runtime fault: %s\n", Prog.Name,
                     E.FaultMessage.c_str());
        ++Failures;
        continue;
      }
      Summaries[C] = summarise(R.Profile);
    }
    if (!Summaries[0].Ok)
      continue;

    const obs::ExecutionProfile &NaiveP = Runs[0].Result.Profile;
    uint64_t NaiveAccesses = Summaries[0].Accesses;

    // Rank the naive sites by dynamic hits; ties keep (function, block,
    // index) order so the report is deterministic.
    std::vector<HotSite> Hot;
    for (const obs::FunctionProfile &FP : NaiveP.functions())
      for (const obs::CheckSiteProfile &S : FP.Sites) {
        HotSite H;
        H.Tag = S.Tag;
        H.Site = siteLabel(FP, S);
        H.Hits = S.Hits;
        for (size_t SC = 0; SC != std::size(AllPlacementSchemes); ++SC)
          if (Summaries[1 + SC].Ok &&
              !Summaries[1 + SC].ResidualTags.count(S.Tag))
            H.EliminatedBy.push_back(
                placementSchemeName(AllPlacementSchemes[SC]));
        Hot.push_back(std::move(H));
      }
    std::stable_sort(Hot.begin(), Hot.end(),
                     [](const HotSite &A, const HotSite &B) {
                       return A.Hits > B.Hits;
                     });
    if (Hot.size() > Top)
      Hot.resize(Top);

    auto Pct = [&](uint64_t Hits) {
      return NaiveAccesses ? 100.0 * static_cast<double>(Hits) /
                                 static_cast<double>(NaiveAccesses)
                           : 0.0;
    };
    auto Density = [](const RunProfile &S) {
      return S.Accesses ? static_cast<double>(S.DynChecks) /
                              static_cast<double>(S.Accesses)
                        : 0.0;
    };
    auto Accumulate = [&](const std::string &Name, const RunProfile &S) {
      RunProfile &A = Aggregate[Name];
      A.Ok = true;
      A.DynChecks += S.DynChecks;
      A.DynTraps += S.DynTraps;
      A.Accesses += S.Accesses;
      A.ResidualSites += S.ResidualSites;
    };
    Accumulate("naive", Summaries[0]);
    for (size_t SC = 0; SC != std::size(AllPlacementSchemes); ++SC)
      if (Summaries[1 + SC].Ok)
        Accumulate(placementSchemeName(AllPlacementSchemes[SC]),
                   Summaries[1 + SC]);

    if (Json) {
      W.beginObject();
      W.kv("name", Prog.Name);
      W.key("schemes").beginArray();
      auto SchemeRow = [&](const std::string &Name, const RunProfile &S) {
        W.beginObject();
        W.kv("scheme", Name);
        W.kv("dynChecks", S.DynChecks);
        W.kv("dynTraps", S.DynTraps);
        W.kv("arrayAccesses", S.Accesses);
        W.kv("residualSites", S.ResidualSites);
        W.kv("checksPerAccess", Density(S));
        W.endObject();
      };
      SchemeRow("naive", Summaries[0]);
      for (size_t SC = 0; SC != std::size(AllPlacementSchemes); ++SC)
        if (Summaries[1 + SC].Ok)
          SchemeRow(placementSchemeName(AllPlacementSchemes[SC]),
                    Summaries[1 + SC]);
      W.endArray();
      W.key("hotSites").beginArray();
      for (const HotSite &H : Hot) {
        W.beginObject();
        W.kv("site", H.Site);
        W.kv("tag", H.Tag);
        W.kv("dynCount", H.Hits);
        W.kv("pctOfAccesses", Pct(H.Hits));
        W.key("eliminatedBy").beginArray();
        for (const std::string &S : H.EliminatedBy)
          W.value(S);
        W.endArray();
        W.endObject();
      }
      W.endArray();
      W.endObject();
    } else {
      std::printf("== %s ==\n", Prog.Name);
      TextTable DT({"scheme", "dyn checks", "accesses", "chk/acc",
                    "residual sites"});
      auto DensityRow = [&](const std::string &Name, const RunProfile &S) {
        DT.addRow({Name,
                   formatString("%llu",
                                static_cast<unsigned long long>(S.DynChecks)),
                   formatString("%llu",
                                static_cast<unsigned long long>(S.Accesses)),
                   formatString("%.4f", Density(S)),
                   formatString("%llu", static_cast<unsigned long long>(
                                            S.ResidualSites))});
      };
      DensityRow("naive", Summaries[0]);
      for (size_t SC = 0; SC != std::size(AllPlacementSchemes); ++SC)
        if (Summaries[1 + SC].Ok)
          DensityRow(placementSchemeName(AllPlacementSchemes[SC]),
                     Summaries[1 + SC]);
      std::printf("%s\n", DT.render().c_str());

      TextTable HT({"site", "tag", "dyn count", "% of accesses",
                    "eliminated by"});
      for (const HotSite &H : Hot) {
        std::string Elim;
        for (const std::string &S : H.EliminatedBy)
          Elim += (Elim.empty() ? "" : " ") + S;
        HT.addRow({H.Site, "t" + std::to_string(H.Tag),
                   formatString("%llu",
                                static_cast<unsigned long long>(H.Hits)),
                   formatString("%.2f", Pct(H.Hits)),
                   Elim.empty() ? "-" : Elim});
      }
      std::printf("%s\n", HT.render().c_str());
    }
  }

  if (Json) {
    W.endArray();
    W.key("suite").beginArray();
    for (const auto &[Name, S] : Aggregate) {
      W.beginObject();
      W.kv("scheme", Name);
      W.kv("dynChecks", S.DynChecks);
      W.kv("dynTraps", S.DynTraps);
      W.kv("arrayAccesses", S.Accesses);
      W.kv("residualSites", S.ResidualSites);
      W.kv("checksPerAccess",
           S.Accesses ? static_cast<double>(S.DynChecks) /
                            static_cast<double>(S.Accesses)
                      : 0.0);
      W.endObject();
    }
    W.endArray();
    W.kv("failures", Failures);
    W.endObject();
    std::printf("%s\n", W.str().c_str());
  } else {
    std::printf("== suite (%zu programs) ==\n", Programs.size());
    TextTable AT({"scheme", "dyn checks", "accesses", "chk/acc",
                  "residual sites"});
    for (const auto &[Name, S] : Aggregate)
      AT.addRow(
          {Name,
           formatString("%llu", static_cast<unsigned long long>(S.DynChecks)),
           formatString("%llu", static_cast<unsigned long long>(S.Accesses)),
           formatString("%.4f",
                        S.Accesses ? static_cast<double>(S.DynChecks) /
                                         static_cast<double>(S.Accesses)
                                   : 0.0),
           formatString("%llu",
                        static_cast<unsigned long long>(S.ResidualSites))});
    std::printf("%s", AT.render().c_str());
  }
  return Failures ? 1 : 0;
}
