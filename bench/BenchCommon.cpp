#include "BenchCommon.h"

#include "driver/BatchCompiler.h"
#include "obs/BenchSchema.h"
#include "support/ThreadPool.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <mutex>

using namespace nascent;
using namespace nascent::bench;

const char *nascent::bench::checkSourceName(CheckSource S) {
  return S == CheckSource::PRX ? "PRX" : "INX";
}

RunResult nascent::bench::runProgram(const SuiteProgram &Program,
                                     CheckSource Source, bool Optimize,
                                     PlacementScheme Scheme,
                                     ImplicationMode Mode) {
  PipelineOptions PO;
  PO.Source = Source;
  PO.Optimize = Optimize;
  PO.Opt.Scheme = Scheme;
  PO.Opt.Implications = Mode;
  CompileResult CR = compileSource(Program.Source, PO);
  if (!CR.Success) {
    std::fprintf(stderr, "benchmark program '%s' failed to compile:\n%s\n",
                 Program.Name, CR.Diags.render().c_str());
    std::exit(1);
  }
  RunResult R;
  R.Exec = interpret(*CR.M);
  if (R.Exec.St != ExecResult::Status::Ok) {
    std::fprintf(stderr, "benchmark program '%s' did not run cleanly: %s\n",
                 Program.Name, R.Exec.FaultMessage.c_str());
    std::exit(1);
  }
  R.Static = countStatic(*CR.M);
  R.Opt = CR.Stats;
  R.OptimizeWallSeconds = CR.optimizeWallSeconds();
  R.OptimizeCpuSeconds = CR.optimizeCpuSeconds();
  R.TotalWallSeconds = CR.totalWallSeconds();
  R.TotalCpuSeconds = CR.totalCpuSeconds();
  return R;
}

MeasuredRun nascent::bench::measureProgram(const SuiteProgram &Program,
                                           CheckSource Source, bool Optimize,
                                           PlacementScheme Scheme,
                                           ImplicationMode Mode,
                                           const BenchFlags &Flags) {
  for (unsigned W = 0; W != Flags.Warmup; ++W)
    runProgram(Program, Source, Optimize, Scheme, Mode);

  MeasuredRun M;
  unsigned Reps = std::max(1u, Flags.Reps);
  std::vector<double> OptWall, OptCpu, TotWall, TotCpu;
  OptWall.reserve(Reps);
  OptCpu.reserve(Reps);
  TotWall.reserve(Reps);
  TotCpu.reserve(Reps);
  for (unsigned R = 0; R != Reps; ++R) {
    // Bracket each rep in registry snapshots: the work map must hold one
    // rep's worth of counters, not the accumulation across --reps.
    obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
    M.Run = runProgram(Program, Source, Optimize, Scheme, Mode);
    M.Work = obs::StatRegistry::global().snapshot().deltaFrom(Before);
    OptWall.push_back(M.Run.OptimizeWallSeconds);
    OptCpu.push_back(M.Run.OptimizeCpuSeconds);
    TotWall.push_back(M.Run.TotalWallSeconds);
    TotCpu.push_back(M.Run.TotalCpuSeconds);
  }
  M.OptimizeWall = obs::summarizeSamples(OptWall);
  M.OptimizeCpu = obs::summarizeSamples(OptCpu);
  M.TotalWall = obs::summarizeSamples(TotWall);
  M.TotalCpu = obs::summarizeSamples(TotCpu);
  return M;
}

bool nascent::bench::parseBenchFlags(int Argc, char **Argv, BenchFlags &Out) {
  auto Usage = [Argv] {
    std::fprintf(
        stderr,
        "usage: %s [--json] [--tiny] [--reps N] [--warmup N] [--jobs N]\n",
        Argv[0]);
    return false;
  };
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      Out.Json = true;
    else if (std::strcmp(Argv[I], "--tiny") == 0)
      Out.Tiny = true;
    else if (std::strcmp(Argv[I], "--reps") == 0 && I + 1 < Argc) {
      if (!parseCountFlag(Argv[++I], UINT_MAX, Out.Reps) || Out.Reps == 0)
        return Usage();
    } else if (std::strcmp(Argv[I], "--warmup") == 0 && I + 1 < Argc) {
      if (!parseCountFlag(Argv[++I], UINT_MAX, Out.Warmup))
        return Usage();
    } else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc) {
      unsigned Requested = 0;
      if (!parseJobCount(Argv[++I], Requested))
        return Usage();
      Out.Jobs = resolveJobCount(Requested);
    } else
      return Usage();
  }
  return true;
}

bool nascent::bench::translateGoogleBenchmarkFlags(
    int Argc, char **Argv, BenchFlags &Flags, std::vector<std::string> &Args,
    const std::vector<std::string> &TinyArgs) {
  auto Usage = [Argv] {
    std::fprintf(stderr,
                 "usage: %s [--json] [--tiny] [--reps N] [--warmup N] "
                 "[google-benchmark flags]\n",
                 Argv[0]);
    return false;
  };
  Args.assign(1, Argv[0]);
  for (int I = 1; I < Argc; ++I) {
    bool IsReps = std::strcmp(Argv[I], "--reps") == 0;
    bool IsWarmup = std::strcmp(Argv[I], "--warmup") == 0;
    if (std::strcmp(Argv[I], "--json") == 0) {
      Flags.Json = true;
    } else if (std::strcmp(Argv[I], "--tiny") == 0) {
      Flags.Tiny = true;
      Args.push_back("--benchmark_min_time=0.01");
      Args.insert(Args.end(), TinyArgs.begin(), TinyArgs.end());
    } else if (IsReps || IsWarmup) {
      if (I + 1 == Argc)
        return Usage();
      unsigned &Count = IsReps ? Flags.Reps : Flags.Warmup;
      if (!parseCountFlag(Argv[++I], UINT_MAX, Count) ||
          (IsReps && Count == 0))
        return Usage();
      if (IsReps) {
        Args.push_back("--benchmark_repetitions=" + std::to_string(Count));
        Args.push_back("--benchmark_report_aggregates_only=true");
      } else {
        Args.push_back("--benchmark_min_warmup_time=" +
                       std::to_string(0.01 * Count));
      }
    } else {
      Args.push_back(Argv[I]);
    }
  }
  return true;
}

std::vector<SuiteProgram> nascent::bench::benchSuite(const BenchFlags &Flags) {
  const std::vector<SuiteProgram> &Full = benchmarkSuite();
  if (!Flags.Tiny)
    return Full;
  size_t N = std::min<size_t>(3, Full.size());
  return std::vector<SuiteProgram>(Full.begin(), Full.begin() + N);
}

void nascent::bench::beginBenchDocument(obs::JsonWriter &W,
                                        const char *Harness,
                                        const BenchFlags &Flags) {
  W.beginObject();
  W.kv("schemaVersion", obs::BenchSchemaVersion);
  W.kv("harness", Harness);
  W.key("env");
  obs::writeBenchEnv(W, obs::captureBenchEnv());
  W.key("config");
  W.beginObject();
  W.kv("reps", static_cast<uint64_t>(std::max(1u, Flags.Reps)));
  W.kv("warmup", static_cast<uint64_t>(Flags.Warmup));
  W.kv("tiny", Flags.Tiny);
  W.endObject();
}

void nascent::bench::endBenchDocument(obs::JsonWriter &W) { W.endObject(); }

void nascent::bench::writeRunJson(obs::JsonWriter &W, const char *Program,
                                  const RunResult &Naive,
                                  const MeasuredRun &Measured) {
  const RunResult &Run = Measured.Run;
  W.beginObject();
  W.kv("program", Program);
  W.kv("dynChecks", Run.Exec.DynChecks);
  W.kv("dynInstrs", Run.Exec.DynInstrs);
  W.kv("staticChecks", Run.Static.Checks);
  W.kv("pctEliminated", percentEliminated(Naive, Run));
  W.key("stats");
  Run.Opt.writeJson(W);
  W.key("timing");
  W.beginObject();
  W.key("optimizeWall");
  Measured.OptimizeWall.writeJson(W);
  W.key("optimizeCpu");
  Measured.OptimizeCpu.writeJson(W);
  W.key("totalWall");
  Measured.TotalWall.writeJson(W);
  W.key("totalCpu");
  Measured.TotalCpu.writeJson(W);
  W.endObject();
  W.key("work");
  W.beginObject();
  for (const auto &[Name, V] : Measured.Work)
    W.kv(Name, V);
  W.endObject();
  W.endObject();
}

std::vector<MeasuredRun>
nascent::bench::sweepMeasure(const std::vector<SweepConfig> &Configs,
                             const BenchFlags &Flags) {
  std::vector<MeasuredRun> Out(Configs.size());
  if (Flags.Jobs <= 1) {
    for (size_t I = 0; I != Configs.size(); ++I) {
      const SweepConfig &C = Configs[I];
      Out[I] = measureProgram(C.Program, C.Source, /*Optimize=*/true,
                              C.Scheme, C.Mode, Flags);
    }
    return Out;
  }
  std::vector<std::future<void>> Futures;
  Futures.reserve(Configs.size());
  {
    ThreadPool Pool(Flags.Jobs);
    for (size_t I = 0; I != Configs.size(); ++I)
      Futures.push_back(Pool.submit([&Out, &Configs, &Flags, I] {
        const SweepConfig &C = Configs[I];
        Out[I] = measureProgram(C.Program, C.Source, /*Optimize=*/true,
                                C.Scheme, C.Mode, Flags);
      }));
    // Pool destruction drains the queue and joins every worker, flushing
    // their stat shards, before any result is consumed.
  }
  for (std::future<void> &F : Futures)
    F.get();
  return Out;
}

const RunResult &nascent::bench::naiveBaseline(const SuiteProgram &Program,
                                               CheckSource Source) {
  // Guarded so sweep workers can warm the cache concurrently; map nodes
  // are stable, so returned references outlive the lock.
  static std::mutex Mu;
  static std::map<std::pair<std::string, int>, RunResult> Cache;
  auto Key = std::make_pair(std::string(Program.Name),
                            static_cast<int>(Source));
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  RunResult R = runProgram(Program, Source, /*Optimize=*/false,
                           PlacementScheme::NI, ImplicationMode::All);
  return Cache.emplace(Key, std::move(R)).first->second;
}

double nascent::bench::percentEliminated(const RunResult &Naive,
                                         const RunResult &Optimized) {
  if (Naive.Exec.DynChecks == 0)
    return 0.0;
  return 100.0 *
         static_cast<double>(Naive.Exec.DynChecks -
                             Optimized.Exec.DynChecks) /
         static_cast<double>(Naive.Exec.DynChecks);
}
