//===----------------------------------------------------------------------===//
///
/// \file
/// bench_cache_sweep: measures what the content-addressed artifact cache
/// buys on the canonical batch workload — the full (program, scheme,
/// implication mode) sweep through BatchCompiler — by timing the whole
/// batch uncached and cached (docs/caching.md). Two runs land in the
/// JSON document, discriminated by "config": "uncached" / "cached", so
/// the committed BENCH_bench_cache_sweep.json baseline records the
/// speedup and benchdiff gates both configurations:
///
///  * the work-proxy counters of both configurations are identical by
///    construction (the cache's byte-identity contract), so any drift is
///    a real behaviour change, and
///  * the cached configuration's wall/CPU medians must stay inside their
///    noise envelope — a cache regression (missed hits, key churn) shows
///    up as its timing walking back toward the uncached run's.
///
///   bench_cache_sweep [--json] [--tiny] [--reps N] [--warmup N] [--jobs N]
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/ArtifactCache.h"
#include "driver/BatchCompiler.h"
#include "obs/Sampling.h"
#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <memory>

using namespace nascent;
using namespace nascent::bench;

namespace {

/// One timed pass over the whole sweep batch.
struct BatchResult {
  double WallSeconds = 0;
  double CpuSeconds = 0;
  uint64_t StaticChecks = 0;
  obs::StatSnapshot::FlatMap Work;
};

std::vector<BatchJob> makeBatch(const std::vector<SuiteProgram> &Suite,
                                cache::ArtifactCache *Cache) {
  // One shared buffer per program across its 27 cells, like sweep.
  std::vector<NamedSource> Programs;
  for (const SuiteProgram &P : Suite)
    Programs.push_back({P.Name, std::make_shared<const std::string>(P.Source)});
  PipelineOptions Base;
  Base.Cache.Enabled = Cache != nullptr;
  Base.Cache.Cache = Cache;
  return buildSweepGrid(Programs, Base).Jobs;
}

BatchResult runBatch(const std::vector<SuiteProgram> &Suite, bool Cached,
                     unsigned Jobs) {
  using Clock = std::chrono::steady_clock;
  // A fresh cache per pass: the measurement is "one cold sweep with
  // intra-sweep sharing", not an ever-warmer process-global cache.
  std::unique_ptr<cache::ArtifactCache> Cache;
  if (Cached)
    Cache = std::make_unique<cache::ArtifactCache>();
  std::vector<BatchJob> Batch = makeBatch(Suite, Cache.get());

  BatchResult R;
  obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
  auto T0 = Clock::now();
  double Cpu0 = obs::processCpuSeconds();
  std::vector<BatchJobResult> Results = BatchCompiler(Jobs).run(Batch);
  R.CpuSeconds = obs::processCpuSeconds() - Cpu0;
  R.WallSeconds = std::chrono::duration<double>(Clock::now() - T0).count();
  R.Work = obs::StatRegistry::global().snapshot().deltaFrom(Before);
  for (const BatchJobResult &BR : Results) {
    if (!BR.Result.Success) {
      std::fprintf(stderr, "bench_cache_sweep: compile failed:\n%s\n",
                   BR.Result.Diags.render().c_str());
      std::exit(1);
    }
    R.StaticChecks += countStatic(*BR.Result.M).Checks;
  }
  return R;
}

/// Measures one configuration --reps times (after --warmup) and writes
/// its run object. Returns the wall-clock median for the speedup line.
double measureAndWrite(obs::JsonWriter *W, const std::vector<SuiteProgram> &S,
                       bool Cached, const BenchFlags &Flags) {
  for (unsigned I = 0; I != Flags.Warmup; ++I)
    runBatch(S, Cached, Flags.Jobs);
  unsigned Reps = Flags.Reps ? Flags.Reps : 1;
  std::vector<double> Wall, Cpu;
  BatchResult Last;
  for (unsigned I = 0; I != Reps; ++I) {
    Last = runBatch(S, Cached, Flags.Jobs);
    Wall.push_back(Last.WallSeconds);
    Cpu.push_back(Last.CpuSeconds);
  }
  obs::SampleStats WallStats = obs::summarizeSamples(Wall);
  obs::SampleStats CpuStats = obs::summarizeSamples(Cpu);

  if (W) {
    W->beginObject();
    W->kv("config", Cached ? "cached" : "uncached");
    W->key("run");
    W->beginObject();
    W->kv("program", "suite-sweep");
    W->kv("dynChecks", uint64_t(0));
    W->kv("dynInstrs", uint64_t(0));
    W->kv("staticChecks", Last.StaticChecks);
    W->key("stats");
    W->beginObject();
    W->endObject();
    W->key("timing");
    W->beginObject();
    W->key("totalWall");
    WallStats.writeJson(*W);
    W->key("totalCpu");
    CpuStats.writeJson(*W);
    W->endObject();
    W->key("work");
    W->beginObject();
    for (const auto &[Name, V] : Last.Work)
      W->kv(Name, V);
    W->endObject();
    W->endObject();
    W->endObject();
  } else {
    std::printf("%-9s wall %.3fs (median of %u), cpu %.3fs, "
                "static checks %llu\n",
                Cached ? "cached" : "uncached", WallStats.Median, Reps,
                CpuStats.Median,
                static_cast<unsigned long long>(Last.StaticChecks));
  }
  return WallStats.Median;
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags;
  if (!parseBenchFlags(argc, argv, Flags))
    return 2;
  std::vector<SuiteProgram> Suite = benchSuite(Flags);

  obs::JsonWriter W;
  obs::JsonWriter *WP = Flags.Json ? &W : nullptr;
  if (Flags.Json) {
    beginBenchDocument(W, "bench_cache_sweep", Flags);
    W.key("runs");
    W.beginArray();
  }
  double Uncached = measureAndWrite(WP, Suite, /*Cached=*/false, Flags);
  double Cached = measureAndWrite(WP, Suite, /*Cached=*/true, Flags);
  if (Flags.Json) {
    W.endArray();
    W.kv("cacheSpeedup", Cached > 0 ? Uncached / Cached : 0.0);
    endBenchDocument(W);
    std::printf("%s\n", W.str().c_str());
  } else {
    std::printf("speedup: %.2fx\n", Cached > 0 ? Uncached / Cached : 0.0);
  }
  return 0;
}
