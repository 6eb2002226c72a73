//===----------------------------------------------------------------------===//
///
/// \file
/// Batch compilation: fan a vector of (source, PipelineOptions) jobs
/// across a ThreadPool and return the results in submission order. This
/// is the engine behind `sweep --jobs N` (and its `--audit` gate) and the
/// bench suite sweeps. buildSweepGrid defines the experimental grid they
/// walk: every program under every placement scheme and implication mode.
///
/// Determinism contract (docs/parallelism.md): each job is a pure
/// function of its (source, options) pair — compileSource shares no
/// mutable state between jobs except the monotone StatRegistry — so the
/// per-job results are identical for every job count. Each job's stat
/// delta is captured with a snapshot pair on the executing thread, which
/// sees exactly the merged base (stable while the pool runs) plus its own
/// work; the pool is joined before run() returns, so both the per-job
/// "work" maps and any post-run registry read are bit-identical to a
/// serial run of the same jobs.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_DRIVER_BATCHCOMPILER_H
#define NASCENT_DRIVER_BATCHCOMPILER_H

#include "driver/Pipeline.h"
#include "obs/StatRegistry.h"

#include <memory>
#include <string>
#include <vector>

namespace nascent {

/// One compilation job: a source program plus its pipeline configuration.
/// The source is held by shared pointer so a sweep submitting hundreds of
/// cells over a handful of programs shares one buffer per program instead
/// of copying the text into every job.
struct BatchJob {
  BatchJob() = default;
  BatchJob(std::string Source, PipelineOptions Opts)
      : Source(std::make_shared<const std::string>(std::move(Source))),
        Opts(std::move(Opts)) {}
  BatchJob(std::shared_ptr<const std::string> Source, PipelineOptions Opts)
      : Source(std::move(Source)), Opts(std::move(Opts)) {}

  std::shared_ptr<const std::string> Source;
  PipelineOptions Opts;
};

/// The outcome of one job.
struct BatchJobResult {
  CompileResult Result;
  /// The job's exact StatRegistry growth (work-proxy counters, histogram
  /// count/sum pairs, bit-vector ops), captured on the executing thread.
  obs::StatSnapshot::FlatMap Work;
};

/// Runs batches of compilation jobs over \p Jobs worker threads.
class BatchCompiler {
public:
  /// \p Jobs <= 1 compiles serially on the calling thread (no pool);
  /// otherwise a fresh ThreadPool of \p Jobs workers is created per run()
  /// and joined before it returns.
  explicit BatchCompiler(unsigned Jobs = 1) : NumJobs(Jobs ? Jobs : 1) {}

  unsigned jobs() const { return NumJobs; }

  /// Compiles every job and returns the results in submission order. A
  /// job that throws (out-of-memory and the like — compile *errors* are
  /// reported via CompileResult::Diags, not exceptions) rethrows here,
  /// after every worker has been joined.
  std::vector<BatchJobResult> run(const std::vector<BatchJob> &Batch) const;

private:
  unsigned NumJobs;
};

/// A program to sweep: its display name and its text, shared by every
/// cell over it.
struct NamedSource {
  std::string Name;
  std::shared_ptr<const std::string> Text;
};

/// One cell of the (program, scheme, implication mode) grid.
struct GridCell {
  std::string Program;
  PlacementScheme Scheme = PlacementScheme::NI;
  ImplicationMode Mode = ImplicationMode::All;
};

/// The grid as a batch: Jobs[I] compiles the cell Cells[I].
struct SweepGrid {
  std::vector<BatchJob> Jobs;
  std::vector<GridCell> Cells;
};

/// Builds the canonical program-major batch over \p Programs ×
/// AllPlacementSchemes × AllImplicationModes. Every job is \p Base with
/// the cell's scheme and implication mode set.
SweepGrid buildSweepGrid(const std::vector<NamedSource> &Programs,
                         const PipelineOptions &Base);

/// Maps a --jobs flag value to a worker count: 0 means "auto" (the
/// hardware concurrency), anything else is taken literally.
unsigned resolveJobCount(unsigned Requested);

/// Strictly parses a count flag value (--top, --reps, ...): a string of
/// decimal digits whose value is at most \p Max. Returns false — leaving
/// \p Out untouched — for empty, negative, non-numeric, trailing-garbage,
/// or too-large text, so drivers can diagnose "--jobs -3" and
/// "--jobs fast" instead of silently taking whatever strtoul salvages.
bool parseCountFlag(const std::string &Text, unsigned Max, unsigned &Out);

/// Strictly parses a --jobs flag value with parseCountFlag, capped at
/// 4096 workers; 0 means "auto-detect hardware concurrency".
bool parseJobCount(const std::string &Text, unsigned &Out);

} // namespace nascent

#endif // NASCENT_DRIVER_BATCHCOMPILER_H
