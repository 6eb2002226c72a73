//===----------------------------------------------------------------------===//
///
/// \file
/// The range-check optimizer: the paper's five-step algorithm with its
/// seven check-placement schemes (section 3.3 / 4.2) and the implication
/// ablation modes (section 4.4). This is the primary public entry point
/// of the library.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_RANGECHECKOPTIMIZER_H
#define NASCENT_OPT_RANGECHECKOPTIMIZER_H

#include "ir/Function.h"
#include "checks/CheckImplicationGraph.h"
#include "obs/Provenance.h"
#include "obs/Remarks.h"
#include "obs/Trace.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"

#include <ostream>
#include <string>

namespace nascent {

namespace cache {
class ArtifactCache;
}

/// Check placement schemes, exactly the paper's seven.
enum class PlacementScheme {
  NI,  ///< redundancy elimination, no insertion
  CS,  ///< check strengthening only
  LNI, ///< latest-not-isolated PRE placement
  SE,  ///< safe-earliest PRE placement
  LI,  ///< preheader insertion of loop-invariant checks
  LLS, ///< preheader insertion with loop-limit substitution
  ALL, ///< LLS followed by SE
  /// Extension (not one of the paper's seven): the restricted preheader
  /// scheme of Markstein, Cocke, and Markstein (1982), which the paper
  /// proposes comparing against as future work -- only simple checks in
  /// articulation blocks of loop bodies are hoisted.
  MCM,
  /// Extension: compile-time-only elimination via value-range (interval)
  /// analysis, standing in for the abstract-interpretation school the
  /// paper contrasts with in section 5 (Cousot/Harrison/Ada compilers).
  /// No checks are moved or inserted; only statically discharged.
  AI,
};

/// Every placement scheme, in enum order: the scheme axis of the
/// (program, scheme, implication mode) grid behind Tables 2 and 3. Scheme
/// parsing and the valid-name list are derived from it.
inline constexpr PlacementScheme AllPlacementSchemes[] = {
    PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
    PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
    PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};

/// Parses/prints scheme names ("NI", "CS", ...). Parsing is
/// case-insensitive; returns false on unknown names.
bool parsePlacementScheme(const std::string &Name, PlacementScheme &Out);
const char *placementSchemeName(PlacementScheme S);

/// Comma-separated list of every valid scheme name, for error messages.
const char *placementSchemeNames();

/// Optimizer configuration.
struct RangeCheckOptions {
  PlacementScheme Scheme = PlacementScheme::LLS;
  /// Which implications between checks may be exploited; None gives the
  /// paper's primed variants (NI', SE'), CrossFamilyOnly gives LLS'.
  ImplicationMode Implications = ImplicationMode::All;

  /// When set (and enabled), receives one structured remark per per-check
  /// decision, derived from the function's lifecycle events when it is
  /// done (obs/Remarks.h has the mapping); remark totals reconcile with
  /// OptimizerStats. The events come from Provenance when that is enabled,
  /// otherwise from a recorder local to the function.
  obs::RemarkCollector *Remarks = nullptr;
  /// When set (and enabled), optimizer stages record trace spans.
  obs::TraceCollector *Trace = nullptr;
  /// When set (and enabled), every transformation site appends lifecycle
  /// events keyed by check tag; terminal totals reconcile with the stats
  /// (see reconcileCheckProvenance).
  obs::ProvenanceRecorder *Provenance = nullptr;

  /// No src/ code reads this; it goes with rcbench's next change (ROADMAP 4/5).
  cache::ArtifactCache *Cache = nullptr;
  /// No src/ code reads this; it goes with rcbench's next change (ROADMAP 4/5).
  support::Hash128 ModuleKey;
};

/// X-macro over every field of OptimizerStats, in declaration order.
/// operator+=, print(), and toJson() are generated from this list, and a
/// static_assert in RangeCheckOptimizer.cpp pins the struct size so a new
/// field cannot be added without extending the list.
#define NASCENT_OPTIMIZER_STATS_FIELDS(X)                                      \
  X(ChecksBefore)                                                              \
  X(ChecksAfter)                                                               \
  X(ChecksDeleted)                                                             \
  X(ChecksInserted)                                                            \
  X(CondChecksInserted)                                                        \
  X(ChecksStrengthened)                                                        \
  X(Rehoisted)                                                                 \
  X(CompileTimeDeleted)                                                        \
  X(CompileTimeTraps)                                                          \
  X(IntervalDeleted)                                                           \
  X(UniverseSize)                                                              \
  X(NumFamilies)

/// Aggregate statistics of one optimizer run.
struct OptimizerStats {
  unsigned ChecksBefore = 0;
  unsigned ChecksAfter = 0; ///< static checks remaining (incl. cond checks)
  unsigned ChecksDeleted = 0;
  unsigned ChecksInserted = 0; ///< LCM-inserted plain checks
  unsigned CondChecksInserted = 0;
  unsigned ChecksStrengthened = 0;
  unsigned Rehoisted = 0;
  unsigned CompileTimeDeleted = 0;
  unsigned CompileTimeTraps = 0;
  unsigned IntervalDeleted = 0; ///< AI scheme: proved redundant by ranges
  size_t UniverseSize = 0;
  size_t NumFamilies = 0;

  OptimizerStats &operator+=(const OptimizerStats &R);

  /// One "<field>: <value>" line per field (all fields, zero or not).
  void print(std::ostream &OS) const;

  /// One flat JSON object with every field ({"ChecksBefore":N,...}).
  void writeJson(obs::JsonWriter &W) const;
  std::string toJson() const;
};

/// Optimizes the range checks of one function in place.
OptimizerStats optimizeFunction(Function &F, const RangeCheckOptions &Opts,
                                DiagnosticEngine &Diags);

/// Optimizes every function of \p M.
OptimizerStats optimizeModule(Module &M, const RangeCheckOptions &Opts,
                              DiagnosticEngine &Diags);

/// Cross-checks a provenance record against the optimizer statistics of
/// the same compilation: per-pass lifecycle-event totals must equal the
/// corresponding stats fields (LazyCodeMotion insertions == ChecksInserted,
/// Elimination subsumptions == ChecksDeleted, Residualized == ChecksAfter,
/// and so on), and the record itself must validate (every lifecycle closed
/// in a terminal state, no dangling witness tags). Returns one diagnostic
/// string per violation; empty means the record reconciles exactly.
std::vector<std::string>
reconcileCheckProvenance(const obs::ProvenanceRecorder &PR,
                         const OptimizerStats &Stats);

} // namespace nascent

#endif // NASCENT_OPT_RANGECHECKOPTIMIZER_H
