//===----------------------------------------------------------------------===//
///
/// \file
/// The traced compile path: the same sequence of public layer calls that
/// compileSource (src/driver/Pipeline.cpp) makes, composed here so that a
/// span can be recorded around each call. checkIdentity() proves, cell by
/// cell, that the composition produces byte-identical statistics, IR and
/// provenance to compileSource, so the per-layer numbers describe the same
/// program the end-to-end run measures.
///
//===----------------------------------------------------------------------===//

#ifndef RCBENCH_COMPOSED_H
#define RCBENCH_COMPOSED_H

#include "Spans.h"

#include "driver/Pipeline.h"

#include <memory>
#include <string>

namespace rcbench {

/// What the composed path produces: the CompileResult fields the identity
/// check compares, plus facts only the composition can see.
struct ComposedResult {
  bool Success = false;
  std::unique_ptr<nascent::Module> M;
  nascent::DiagnosticEngine Diags;
  nascent::OptimizerStats Stats;
  nascent::AuditReport Audit;
  nascent::obs::RemarkCollector Remarks;
  nascent::obs::ProvenanceRecorder Provenance;
  /// The frontend snapshot came from the artifact cache.
  bool FrontendHit = false;
  /// Source bytes handed to the parser (0 on a frontend hit).
  uint64_t ParsedBytes = 0;
  /// Non-check IR instructions right after lowering (0 on a frontend hit).
  uint64_t LoweredInstrs = 0;
};

/// Compiles \p Source with \p Opts through the public layer calls,
/// recording one span per call into \p Spans (when enabled).
ComposedResult composedCompile(const std::string &Source,
                               const nascent::PipelineOptions &Opts,
                               SpanRecorder &Spans);

/// Empty when \p Ref (from compileSource) and \p Got agree byte for byte on
/// success, printed OptimizerStats, printed IR and provenance JSON;
/// otherwise names the first part that differs.
std::string checkIdentity(const nascent::CompileResult &Ref,
                          const ComposedResult &Got);

} // namespace rcbench

#endif // RCBENCH_COMPOSED_H
