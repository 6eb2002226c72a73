//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's cells and the passes that run them. A compile cell is
/// one (program, scheme, implication mode, check source) compilation; an
/// execution cell is one interpret() call on a module compiled at set-up.
/// A pass runs every cell of a workload once, in an order drawn from the
/// seed, and returns what it measured and what it checked.
///
//===----------------------------------------------------------------------===//

#ifndef RCBENCH_WORKLOADS_H
#define RCBENCH_WORKLOADS_H

#include "Spans.h"

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/StatRegistry.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rcbench {

struct Program {
  std::string Name;
  std::string Source;
  /// One of the ten suite programs (false: the trap corpus).
  bool Suite = true;
};

/// The ten suite programs, followed by the trap corpus read from
/// \p CorpusDir when \p WithCorpus. Returns false with \p Err on I/O errors.
bool loadPrograms(const std::string &CorpusDir, bool WithCorpus,
                  std::vector<Program> &Out, std::string &Err);

/// The exact work counters every pass reports (StatRegistry names).
extern const char *const WorkCounters[5];

/// Sums a pass accumulates over its cells. Every field is exact: the
/// determinism self-check compares them across passes, runs and seeds.
struct PassTotals {
  uint64_t ChecksBefore = 0;
  uint64_t ChecksAfter = 0;
  uint64_t ChecksDeleted = 0;
  uint64_t ChecksInserted = 0;
  uint64_t ProvenanceEvents = 0;
  uint64_t Remarks = 0;
  uint64_t Findings = 0;
  uint64_t ParsedBytes = 0;   ///< traced passes only
  uint64_t LoweredInstrs = 0; ///< traced passes only
  uint64_t DynInstrs = 0;
  uint64_t DynChecks = 0;
  uint64_t FrontendHits = 0, FrontendMisses = 0;
  uint64_t AnalysisHits = 0, AnalysisMisses = 0;
  uint64_t CacheBytes = 0, CacheEvictions = 0;
};

/// What one pass measured. Cell-indexed vectors follow the workload's cell
/// table; run-ordered ones follow the pass's order.
struct PassResult {
  std::vector<double> CellMs;       ///< run order
  std::vector<uint32_t> CellIdx;    ///< run order: the cell of each CellMs
  std::vector<uint8_t> FrontendHit; ///< run order, traced passes only
  double WallSeconds = 0;           ///< cells plus per-pass fixed cost
  uint64_t Failed = 0;
  std::vector<std::string> Failures;  ///< "cell: reason", every one
  std::vector<uint64_t> Fingerprint;  ///< cell-indexed exact outputs
  std::vector<uint64_t> DynChecks;    ///< cell-indexed, execution passes
  PassTotals Totals;
  nascent::obs::StatSnapshot::FlatMap Work;
  size_t SpanFrom = 0, SpanTo = 0; ///< traced passes: this pass's spans
};

// ---- Compile sweeps --------------------------------------------------------

struct CompileCell {
  std::string Name;
  const std::string *Source;
  nascent::PipelineOptions Opts;
};

/// Every program x 9 schemes x 3 implication modes x {PRX, INX}. With
/// \p Audited the cells run the auditor, provenance, remarks and the
/// artifact cache.
std::vector<CompileCell> sweepCells(const std::vector<Program> &Programs,
                                    bool Audited);

/// Runs every cell once in \p Order. Audited sweeps get a fresh
/// ArtifactCache for the pass. With a non-null \p Spans the cells go
/// through the traced composition instead of compileSource.
PassResult runSweepPass(std::vector<CompileCell> &Cells,
                        const std::vector<size_t> &Order, bool Audited,
                        SpanRecorder *Spans);

/// Compiles each cell through compileSource and through the traced
/// composition and returns one "cell: part" line per cell that differs.
std::vector<std::string> checkSweepIdentity(std::vector<CompileCell> &Cells,
                                            const std::vector<size_t> &Order,
                                            bool Audited);

// ---- Execution -------------------------------------------------------------

enum class BuildKind { Unchecked, Naive, Optimized };

struct ExecCell {
  std::string Name;
  size_t Prog;
  BuildKind Kind;
  nascent::PipelineOptions Opts;
  std::unique_ptr<nascent::Module> M;
  nascent::OptimizerStats Stats;
  std::string CompileError; ///< non-empty when the build failed
};

/// Reference behaviour of one program: the naive build's status, and the
/// unchecked build's printed output (suite programs only; an unchecked
/// build of a trapping program is itself out of bounds).
struct Reference {
  nascent::ExecResult::Status NaiveStatus = nascent::ExecResult::Status::Ok;
  bool HaveOutput = false;
  std::vector<std::string> Output;
};

/// Suite programs: unchecked, naive and 9 schemes x {PRX, INX}; corpus
/// programs: the same without the unchecked build. Modules are compiled.
std::vector<ExecCell> executeCells(const std::vector<Program> &Programs);

/// Runs each program's reference builds once.
std::vector<Reference> computeReferences(const std::vector<Program> &Programs,
                                         const std::vector<ExecCell> &Cells);

PassResult runExecutePass(const std::vector<ExecCell> &Cells,
                          const std::vector<Reference> &Refs,
                          const std::vector<size_t> &Order,
                          SpanRecorder *Spans);

/// Recompiles every execution build through the traced composition and
/// returns one "cell: part" line per build that differs from compileSource.
std::vector<std::string>
checkExecuteIdentity(const std::vector<Program> &Programs,
                     const std::vector<ExecCell> &Cells);

} // namespace rcbench

#endif // RCBENCH_WORKLOADS_H
