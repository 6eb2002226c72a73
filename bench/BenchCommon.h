//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the table harnesses: compile + run a suite program
/// under a configuration — repeated `--reps` times with warmup, timing
/// summarised by median/MAD/bootstrap-CI on both clocks, and every rep's
/// StatRegistry delta captured as deterministic work-proxy counters — with
/// caching of the naive baseline runs, and the versioned JSON envelope
/// (schemaVersion + environment + config) every harness document opens
/// with. `examples/benchdiff` consumes these documents; docs/benchmarking.md
/// describes the schema.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_BENCH_BENCHCOMMON_H
#define NASCENT_BENCH_BENCHCOMMON_H

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/Json.h"
#include "obs/Sampling.h"
#include "obs/StatRegistry.h"
#include "suite/Suite.h"

#include <string>
#include <vector>

namespace nascent {
namespace bench {

/// One measured configuration run. Both the optimize phase and the whole
/// pipeline are timed on both clocks (the old single-clock fields mixed
/// CPU and wall time).
struct RunResult {
  ExecResult Exec;
  StaticCounts Static;
  OptimizerStats Opt;
  double OptimizeWallSeconds = 0;
  double OptimizeCpuSeconds = 0;
  double TotalWallSeconds = 0;
  double TotalCpuSeconds = 0;
};

/// A configuration run repeated `--reps` times (after `--warmup` unmeasured
/// runs): the last rep's counts, the timing sample summaries, and the
/// per-rep StatRegistry delta. The counts and the work map are
/// deterministic — identical for every rep (tests/obs/DeterminismTest
/// holds the compiler to that) — so keeping the last rep loses nothing;
/// only the clocks need statistics.
struct MeasuredRun {
  RunResult Run;
  obs::SampleStats OptimizeWall;
  obs::SampleStats OptimizeCpu;
  obs::SampleStats TotalWall;
  obs::SampleStats TotalCpu;
  /// Work-proxy counters: the global StatRegistry delta over one rep
  /// (compile + interpret), e.g. bit-vector word ops, dataflow iterations
  /// to fixpoint, CIG edges. Immune to machine noise.
  obs::StatSnapshot::FlatMap Work;
};

/// Common harness flags: `--json` switches the harness from the printed
/// table to one machine-readable JSON document on stdout; `--tiny` caps
/// interpreter work for smoke runs (bench-smoke CTest label); `--reps N`
/// measures each configuration N times (after `--warmup M` discarded
/// runs) so the JSON carries confidence intervals worth gating on;
/// `--jobs N` fans the configuration sweep across N worker threads
/// (0 = one per hardware thread). Work-proxy counters are identical for
/// every job count; only the clocks move, which is why the perf gate
/// pins its timing comparisons to serial runs.
struct BenchFlags {
  bool Json = false;
  bool Tiny = false;
  unsigned Reps = 1;
  unsigned Warmup = 0;
  unsigned Jobs = 1;
};

/// Parses argv for the common flags; returns false (after printing a
/// usage message to stderr) on an unknown argument.
bool parseBenchFlags(int Argc, char **Argv, BenchFlags &Out);

/// The google-benchmark harnesses' command line (bench_micro,
/// bench_optimizer_time): the common --json/--tiny/--reps/--warmup flags,
/// parsed as strictly as parseBenchFlags, rewritten onto google-benchmark's
/// own. --tiny caps the measured time per benchmark and appends
/// \p TinyArgs; --reps N becomes N repetitions reporting aggregates only
/// (benchdiff reads the medians); --warmup N becomes a minimum warmup time.
/// --json only sets Flags.Json: the caller captures the run and wraps it in
/// the bench envelope. Every other argument passes through. Fills \p Args
/// (argv[0] first) for benchmark::Initialize; returns false, after printing
/// a usage message to stderr, on a malformed or missing count.
bool translateGoogleBenchmarkFlags(int Argc, char **Argv, BenchFlags &Flags,
                                   std::vector<std::string> &Args,
                                   const std::vector<std::string> &TinyArgs);

/// The suite to iterate under \p Flags: the full ten programs normally,
/// a three-program subset under --tiny.
std::vector<SuiteProgram> benchSuite(const BenchFlags &Flags);

/// Opens the versioned document envelope every harness's --json mode
/// emits: schemaVersion, harness name, environment capture, and the
/// repetition config. Leaves the top-level object open; the harness adds
/// its "runs" array and calls endBenchDocument.
void beginBenchDocument(obs::JsonWriter &W, const char *Harness,
                        const BenchFlags &Flags);
void endBenchDocument(obs::JsonWriter &W);

/// Appends one JSON object for a measured run: the dynamic/static counts,
/// the optimizer stats, the timing sample summaries (both clocks), and
/// the work-proxy counter deltas. Used by every table harness's --json
/// mode.
void writeRunJson(obs::JsonWriter &W, const char *Program,
                  const RunResult &Naive, const MeasuredRun &Run);

/// Compiles and runs \p Program once. When \p Optimize is false the naive
/// baseline is produced. Terminates with a message on compile failure
/// (the suite must always compile).
RunResult runProgram(const SuiteProgram &Program, CheckSource Source,
                     bool Optimize, PlacementScheme Scheme,
                     ImplicationMode Mode);

/// The repetition driver: runs \p Program Flags.Warmup unmeasured times,
/// then Flags.Reps measured times, summarising the clocks and snapshotting
/// the StatRegistry around each rep so the work map holds per-rep (not
/// accumulated) values.
MeasuredRun measureProgram(const SuiteProgram &Program, CheckSource Source,
                           bool Optimize, PlacementScheme Scheme,
                           ImplicationMode Mode, const BenchFlags &Flags);

/// One cell of a configuration sweep, ready to hand to sweepMeasure.
struct SweepConfig {
  SuiteProgram Program;
  CheckSource Source = CheckSource::PRX;
  PlacementScheme Scheme = PlacementScheme::NI;
  ImplicationMode Mode = ImplicationMode::All;
};

/// Runs measureProgram for every config, fanned across Flags.Jobs worker
/// threads (<= 1 runs serially on the calling thread), and returns the
/// results in submission order. Every worker is joined before this
/// returns, so a subsequent StatRegistry read sees all sweep work, and
/// each result's work map is exactly what a serial run would report.
std::vector<MeasuredRun> sweepMeasure(const std::vector<SweepConfig> &Configs,
                                      const BenchFlags &Flags);

/// Naive baseline (checks inserted, no optimization) for \p Source kind.
/// Cached per (program, source); safe to call from sweep workers.
const RunResult &naiveBaseline(const SuiteProgram &Program,
                               CheckSource Source);

/// Percentage of dynamic checks eliminated relative to the naive run.
double percentEliminated(const RunResult &Naive, const RunResult &Optimized);

/// "PRX" / "INX".
const char *checkSourceName(CheckSource S);

} // namespace bench
} // namespace nascent

#endif // NASCENT_BENCH_BENCHCOMMON_H
