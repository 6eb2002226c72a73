//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-compiler pipeline: source text -> AST -> IR with naive range
/// checks -> (optional INX synthesis) -> range-check optimization. This
/// mirrors the Nascent pipeline used for the paper's experiments and is
/// what the benchmark harnesses and examples drive.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_DRIVER_PIPELINE_H
#define NASCENT_DRIVER_PIPELINE_H

#include "audit/AuditReport.h"
#include "frontend/Lowering.h"
#include "obs/Profile.h"
#include "obs/Provenance.h"
#include "obs/Remarks.h"
#include "obs/Trace.h"
#include "opt/RangeCheckOptimizer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>

namespace nascent {

/// Which kind of checks the optimizer works on (paper section 2.3):
/// program-expression checks or induction-expression checks.
enum class CheckSource {
  PRX,
  INX,
};

/// Pipeline configuration.
struct PipelineOptions {
  LoweringOptions Lowering;
  CheckSource Source = CheckSource::PRX;
  /// When false the pipeline stops after lowering (the naive baseline).
  bool Optimize = true;
  RangeCheckOptions Opt;
  /// Snapshot the pre-optimization IR and run the trap-safety auditor
  /// over the (original, optimized) pair; findings land in
  /// CompileResult::Audit and, as errors, in Diags.
  bool Audit = false;

  /// Content-addressed artifact caching (docs/caching.md). When enabled,
  /// the pipeline reuses a verified post-lowering module snapshot for a
  /// previously seen (source, lowering options, check source) key —
  /// skipping parse/sema/lower/verify, none of which records a stat.
  /// All outputs (stats, remarks, provenance, profile, audit findings)
  /// are byte-identical with the cache on or off.
  struct CacheOptions {
    bool Enabled = false;
    /// The cache instance to share; null means the process-global one.
    cache::ArtifactCache *Cache = nullptr;
  } Cache;

  /// Telemetry switches. Phase timings (CompileResult::Phases) are always
  /// measured; these control the heavier trace/remark streams.
  struct TelemetryOptions {
    /// Record Chrome trace_event spans (pipeline phases plus optimizer
    /// sub-phases) into CompileResult::Trace.
    bool Trace = false;
    /// When non-empty, additionally write the trace JSON to this file at
    /// the end of compilation (implies Trace).
    std::string TracePath;
    /// Collect one structured remark per per-check optimizer decision
    /// into CompileResult::Remarks.
    bool Remarks = false;
    /// Optional ECMAScript regex restricting remarks to matching check
    /// families / array names (like LLVM's -Rpass=<regex>).
    std::string RemarkFilter;
    /// Record the full check-lifecycle provenance (one event stream per
    /// compilation, keyed by check tag) into CompileResult::Provenance.
    bool Provenance = false;
    /// Attach an execution profile (CompileResult::Profile) to the
    /// optimized module, ready for the interpreter to stream dynamic
    /// block/loop/access/check-site counts into.
    bool Profile = false;
  } Telemetry;
};

/// Result of one compilation.
struct CompileResult {
  bool Success = false;
  std::unique_ptr<Module> M;
  DiagnosticEngine Diags;
  OptimizerStats Stats;
  /// Trap-safety audit result; empty unless PipelineOptions::Audit.
  AuditReport Audit;

  /// Per-phase timing breakdown (parse, sema, lower, verify, optimize,
  /// ..., total), each phase measured on both the wall clock and the
  /// process CPU clock. Always populated, even on failed compiles.
  obs::PhaseTimings Phases;
  /// Trace spans; empty unless PipelineOptions::Telemetry enables them.
  obs::TraceCollector Trace;
  /// Optimization remarks; empty unless Telemetry.Remarks.
  obs::RemarkCollector Remarks;
  /// Check-lifecycle provenance; empty unless Telemetry.Provenance. Every
  /// check's event chain starts Inserted (lowering or an optimizer
  /// insertion) and ends in a terminal state; reconcileCheckProvenance
  /// cross-checks the record against Stats.
  obs::ProvenanceRecorder Provenance;
  /// Execution profile attached to the optimized module (zeroed skeleton
  /// of every residual block/loop/array/check site); empty unless
  /// Telemetry.Profile. Pass as InterpOptions::Profile when interpreting
  /// CompileResult::M to populate the dynamic counts.
  obs::ExecutionProfile Profile;

  /// Wall-clock seconds spent in the range-check optimization phase (the
  /// paper's "Range" column was measured on this clock).
  double optimizeWallSeconds() const { return Phases.wallOf("optimize"); }
  /// CPU seconds of the same phase.
  double optimizeCpuSeconds() const { return Phases.cpuOf("optimize"); }
  /// Wall-clock seconds for the whole pipeline (the "Nascent" column).
  double totalWallSeconds() const { return Phases.wallOf("total"); }
  /// CPU seconds for the whole pipeline.
  double totalCpuSeconds() const { return Phases.cpuOf("total"); }
};

/// Compiles \p Source with \p Opts. On front-end errors, Success is false
/// and Diags carries the messages.
CompileResult compileSource(const std::string &Source,
                            const PipelineOptions &Opts = {});

} // namespace nascent

#endif // NASCENT_DRIVER_PIPELINE_H
