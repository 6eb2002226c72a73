//===----------------------------------------------------------------------===//
///
/// \file
/// Check-lifecycle provenance: a structured, replayable record of every
/// decision the pipeline makes about every range check, keyed by the
/// check's stable CheckTag (ir/Instruction.h). It is the optimizer's only
/// record of its decisions: the passes write lifecycle events here and
/// nowhere else, and the remark stream (obs/Remarks.h) is a view of these
/// events. Provenance answers "what happened to *this* check, end to end":
///
///   Inserted      the check was materialised (Lowering, LazyCodeMotion,
///                 PreheaderInsertion)
///   Strengthened  the payload was replaced in place by a stronger or
///                 rewritten form (CheckStrengthening, INXSynthesis)
///   Moved         the check changed blocks keeping its identity
///                 (PreheaderInsertion re-hoisting)
///   SubsumedBy    deleted because an as-strong check covers it; carries
///                 the witness tag and the justifying implication edge
///                 when determinable (Elimination, PreheaderInsertion
///                 merge)
///   Eliminated    deleted by a static proof (constant folding, interval
///                 analysis), with the proving reason
///   Trapped       proved to always fail; replaced by a Trap that keeps
///                 the tag
///   Residualized  survived the whole pipeline; the interpreter's dynamic
///                 per-site counts attach to this state
///
/// Remarks are derived from these events by one mapping, tabled in
/// obs/Remarks.h: e.g. SubsumedBy by Elimination reads as `eliminated`;
/// merges, "Unreachable" closures and Residualized read as no remark.
///
/// The last event of every check is terminal (SubsumedBy / Eliminated /
/// Trapped / Residualized), and terminal totals reconcile exactly with
/// OptimizerStats (see reconcileCheckProvenance in the opt layer); tests
/// enforce both invariants for all nine placement schemes.
///
/// Events carry no timestamps and are recorded in deterministic pass
/// order, so the serialised form is byte-identical across repeated runs
/// and across BatchCompiler job counts.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_PROVENANCE_H
#define NASCENT_OBS_PROVENANCE_H

#include "ir/Instruction.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nascent {

class BasicBlock;
class Function;
class Module;

namespace obs {

class JsonWriter;
struct JsonValue;

/// What happened to a check at one point of its lifecycle.
enum class LifecycleKind {
  Inserted,
  Strengthened,
  Moved,
  SubsumedBy,
  Eliminated,
  Trapped,
  Residualized,
};

const char *lifecycleKindName(LifecycleKind K);

/// True for the four states a lifecycle may end in.
bool isTerminalLifecycleKind(LifecycleKind K);

/// One lifecycle event of one check.
struct LifecycleEvent {
  uint32_t Seq = 0; ///< recorder-wide sequence number (recording order)
  CheckTag Tag = NoCheckTag;
  LifecycleKind Kind = LifecycleKind::Inserted;
  std::string Pass;     ///< deciding pass, e.g. "Elimination"
  std::string Function; ///< enclosing function name
  std::string Block;    ///< block holding (or receiving) the check
  std::string CheckStr; ///< rendered check *after* the event
  /// The check after the event. Serialised as its bound only; a remark
  /// derived from the event renders its family expression.
  CheckExpr Check;
  CheckOrigin Origin;   ///< source provenance (array, dim, side, loc)
  std::string Justification; ///< the fact justifying the decision
  /// SubsumedBy: the covering check's tag (0 when the cover is a merge
  /// over all incoming paths and no single witness exists).
  CheckTag OtherTag = NoCheckTag;
  /// The justifying edge/fact rendered as text: the witness check for
  /// subsumption, the pre-rewrite check for strengthening, the bound
  /// expression for loop-limit substitution.
  std::string Edge;
};

/// Collects lifecycle events for one compilation. Disabled recorders cost
/// one branch per record call.
class ProvenanceRecorder {
public:
  void enable() { Enabled = true; }
  bool enabled() const { return Enabled; }

  /// Appends \p E, assigning its sequence number. No-op when disabled.
  void record(LifecycleEvent E);

  const std::vector<LifecycleEvent> &events() const { return All; }

  /// Number of events of \p K emitted by \p Pass (any pass when empty).
  size_t count(LifecycleKind K, const std::string &Pass = "") const;

  /// Distinct tags seen, in first-appearance (i.e. insertion) order.
  std::vector<CheckTag> tags() const;

  /// The last (terminal, once the pipeline finished) event of \p Tag;
  /// null when the tag was never recorded.
  const LifecycleEvent *lastEventOf(CheckTag Tag) const;

  /// Event indices of \p Tag's lifecycle, in order.
  std::vector<size_t> timelineOf(CheckTag Tag) const;

  /// The full provenance object: {"events": [...], "checks": [...]} where
  /// "checks" groups event indices per tag with the terminal state.
  void writeJson(JsonWriter &W) const;
  std::string toJson() const;

  /// DOT rendering of the subsumption/justification graph: one node per
  /// check (tag, final form, terminal state), one edge per witnessed
  /// subsumption, labelled with the deciding pass.
  std::string toDot() const;

  /// Human-readable decision chains for every check whose origin matches
  /// \p Line (and \p Column, when non-zero). Empty when no check at that
  /// site was recorded.
  std::string explainSite(unsigned Line, unsigned Column = 0) const;

  /// The decision chain of one check by lifecycle tag (the form profdiff
  /// reports hot sites in; `mfc -explain=tag:<N>` queries it directly).
  /// Empty when \p Tag was never recorded.
  std::string explainTag(CheckTag Tag) const;

  /// Referenced-but-never-recorded tags (dangling OtherTag references)
  /// and non-terminal final states, as diagnostics. Empty means the
  /// record is closed and internally consistent.
  std::vector<std::string> validate() const;

private:
  bool Enabled = false;
  std::vector<LifecycleEvent> All;
};

/// Builds the common fields of an event; \p BB is the block holding (or
/// receiving) the check, rendered strings use \p F's symbol table.
LifecycleEvent makeLifecycleEvent(LifecycleKind Kind, std::string Pass,
                                  const Function &F, const BasicBlock &BB,
                                  const Instruction &I,
                                  std::string Justification);

/// Records one Inserted event per tagged range check currently in \p M,
/// attributed to \p Pass. The pipeline calls this right after lowering
/// (and optimizer passes record their own insertions as they happen).
void recordInsertedChecks(const Module &M, const std::string &Pass,
                          ProvenanceRecorder &PR);

/// Records the terminal Residualized event for every tagged range check
/// that survived in \p M. The pipeline calls this once optimization (and
/// post-verification) is done.
void recordResidualChecks(const Module &M, ProvenanceRecorder &PR);

/// Schema validation of a provenance envelope document: an object with a
/// numeric "schemaVersion" equal to BenchSchemaVersion and a
/// "provenance" object holding "events"/"checks" arrays whose entries
/// carry the required fields, whose every OtherTag reference resolves to
/// a recorded tag, and whose per-check lifecycles end in a terminal
/// state. json_check dispatches here for provenance documents.
bool validateProvenanceDocument(const JsonValue &Doc, std::string *Err);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_PROVENANCE_H
