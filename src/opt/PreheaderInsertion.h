//===----------------------------------------------------------------------===//
///
/// \file
/// Preheader insertion of conditional checks (paper section 3.3): checks
/// anticipatable at the beginning of a loop body whose range-expression is
/// loop-invariant (LI) or linear in the loop's index / basic variable
/// (LLS, via loop-limit substitution) are hoisted into the preheader as
/// conditional checks guarded by "the loop executes at least once".
///
/// Loops are processed inner to outer; conditional checks parked in inner
/// preheaders are re-hoisted outward (re-substituting linear expressions)
/// when that is provably safe, so checks land in the outermost loop
/// possible.
///
/// Soundness notes (each has a matching regression test):
///  - invariant hoisting relies only on anticipatability at the body entry
///    plus the entry guard, so it tolerates early returns in the body;
///  - loop-limit substitution additionally requires that every started
///    iteration finishes (no `return` and no while-loop inside the loop),
///    because the substituted check speaks for the extreme iteration;
///  - facts recorded for the elimination stage say "this check has been
///    performed at the loop body entry", never anything about the loop
///    exit, which keeps zero-trip loops sound.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_PREHEADERINSERTION_H
#define NASCENT_OPT_PREHEADERINSERTION_H

#include "obs/Provenance.h"
#include "opt/CheckContext.h"

namespace nascent {

/// Statistics of one preheader-insertion run.
struct PreheaderStats {
  unsigned CondChecksInserted = 0;
  unsigned Rehoisted = 0;
  unsigned Substituted = 0; ///< checks that used loop-limit substitution
};

/// Configuration of the preheader-insertion schemes.
struct PreheaderOptions {
  /// Apply loop-limit substitution to linear checks (LLS); otherwise only
  /// invariant checks hoist (LI).
  bool EnableLLS = true;

  /// Restrict candidates the way Markstein, Cocke, and Markstein's 1982
  /// algorithm does (the comparison the paper proposes as future work):
  /// only checks in articulation blocks of the loop body (blocks every
  /// completed iteration passes through) with *simple* range expressions
  /// (a single symbol with coefficient +-1) are considered.
  bool MarksteinRestriction = false;
};

/// Runs LI/LLS (or the restricted Markstein variant) over every do loop
/// of \p F. Facts for the later elimination stage are appended to
/// \p FactsOut, each carrying the lifecycle tag of the conditional check
/// that establishes it. Lifecycle events into \p Prov when given:
/// Inserted per fresh conditional check (read as a `cond-inserted`
/// remark), Moved per re-hoist (the check keeps its tag; read as
/// `rehoisted`), and a terminal SubsumedBy, which has no remark, when a
/// re-hoisted check merges into an identical conditional already in the
/// target preheader.
PreheaderStats runPreheaderInsertion(Function &F, const CheckContext &Ctx,
                                     const PreheaderOptions &Opts,
                                     std::vector<PreheaderFact> &FactsOut,
                                     obs::ProvenanceRecorder *Prov = nullptr);

} // namespace nascent

#endif // NASCENT_OPT_PREHEADERINSERTION_H
