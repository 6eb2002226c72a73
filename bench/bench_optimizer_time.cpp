//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timing of the range-check optimization phase (the
/// paper's section 4.2 compile-time comparison): each scheme over the
/// whole suite, plus the implication ablation. Expected ordering: NI
/// cheapest, preheader schemes moderate, PRE-based schemes most
/// expensive, and primed (no-implication) variants slower than their
/// unprimed counterparts because the check universe degenerates to one
/// family per check.
///
/// `--json` wraps google-benchmark's own JSON document in the versioned
/// bench envelope (schemaVersion + env + config) so `json_check` can
/// validate it and `benchdiff` can gate the per-iteration CPU medians.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

using namespace nascent;

namespace {

/// Whether --tiny was given: run a reduced suite for smoke validation.
bool TinyRun = false;

/// The suite under measurement (trimmed under --tiny).
std::vector<SuiteProgram> measuredSuite() {
  const std::vector<SuiteProgram> &Full = benchmarkSuite();
  if (!TinyRun)
    return Full;
  return std::vector<SuiteProgram>(Full.begin(),
                                   Full.begin() + std::min<size_t>(3, Full.size()));
}

/// Compiles the whole suite without optimization, once per timing
/// iteration (outside the measured region), then times optimizeModule.
void benchScheme(benchmark::State &State, PlacementScheme Scheme,
                 ImplicationMode Mode, CheckSource Source) {
  PipelineOptions Naive;
  Naive.Optimize = false;
  Naive.Source = Source;

  uint64_t ChecksDeleted = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<std::unique_ptr<Module>> Modules;
    for (const SuiteProgram &P : measuredSuite()) {
      CompileResult R = compileSource(P.Source, Naive);
      if (!R.Success)
        State.SkipWithError("suite program failed to compile");
      Modules.push_back(std::move(R.M));
    }
    State.ResumeTiming();

    RangeCheckOptions Opts;
    Opts.Scheme = Scheme;
    Opts.Implications = Mode;
    for (auto &M : Modules) {
      DiagnosticEngine Diags;
      OptimizerStats S = optimizeModule(*M, Opts, Diags);
      ChecksDeleted += S.ChecksDeleted;
    }
  }
  // Per-iteration, so the value is deterministic (independent of how many
  // iterations the timer needed) and benchdiff could diff it meaningfully.
  State.counters["checksDeleted"] = benchmark::Counter(
      static_cast<double>(ChecksDeleted), benchmark::Counter::kAvgIterations);
}

void registerAll() {
  struct Entry {
    const char *Name;
    PlacementScheme Scheme;
    ImplicationMode Mode;
  };
  static const Entry Entries[] = {
      {"NI", PlacementScheme::NI, ImplicationMode::All},
      {"CS", PlacementScheme::CS, ImplicationMode::All},
      {"LNI", PlacementScheme::LNI, ImplicationMode::All},
      {"SE", PlacementScheme::SE, ImplicationMode::All},
      {"LI", PlacementScheme::LI, ImplicationMode::All},
      {"LLS", PlacementScheme::LLS, ImplicationMode::All},
      {"ALL", PlacementScheme::ALL, ImplicationMode::All},
      {"NIprime", PlacementScheme::NI, ImplicationMode::None},
      {"SEprime", PlacementScheme::SE, ImplicationMode::None},
      {"LLSprime", PlacementScheme::LLS, ImplicationMode::CrossFamilyOnly},
  };
  for (const Entry &E : Entries) {
    for (CheckSource Source : {CheckSource::PRX, CheckSource::INX}) {
      std::string Name = std::string("BM_Optimize/") + E.Name + "/" +
                         (Source == CheckSource::PRX ? "PRX" : "INX");
      benchmark::RegisterBenchmark(
          Name.c_str(), [E, Source](benchmark::State &State) {
            benchScheme(State, E.Scheme, E.Mode, Source);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  bench::BenchFlags Flags;
  std::vector<std::string> Storage;
  // Under --tiny a representative subset (cheapest, the paper's best, and
  // one PRE scheme) on three programs keeps the smoke run to a few seconds.
  if (!bench::translateGoogleBenchmarkFlags(
          argc, argv, Flags, Storage,
          {"--benchmark_filter=BM_Optimize/(NI|SE|LLS)/PRX"}))
    return 2;
  TinyRun = Flags.Tiny;
  std::vector<char *> Args;
  for (std::string &S : Storage)
    Args.push_back(S.data());
  int Argc = static_cast<int>(Args.size());
  registerAll();
  benchmark::Initialize(&Argc, Args.data());
  if (!Flags.Json) {
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  // Capture google-benchmark's JSON and wrap it in the bench envelope.
  std::ostringstream Captured;
  benchmark::JSONReporter Reporter;
  Reporter.SetOutputStream(&Captured);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  obs::JsonWriter W;
  bench::beginBenchDocument(W, "bench_optimizer_time", Flags);
  W.key("googleBenchmark");
  W.rawValue(Captured.str());
  bench::endBenchDocument(W);
  std::printf("%s\n", W.str().c_str());
  return 0;
}
