//===----------------------------------------------------------------------===//
///
/// \file
/// Optimization remarks: a per-decision view of the optimizer in the
/// spirit of LLVM's -Rpass stream. Remarks are not recorded by the passes;
/// they are a view of the check-lifecycle events (obs/Provenance.h), the
/// optimizer's only record of its decisions. optimizeFunction converts each
/// function's new events with one mapping (remarkKindOf):
///
///   lifecycle event                      remark
///   SubsumedBy   / Elimination           eliminated
///   Strengthened / CheckStrengthening    strengthened
///   Inserted     / LazyCodeMotion        lcm-inserted
///   Inserted     / PreheaderInsertion    cond-inserted
///   Moved        / PreheaderInsertion    rehoisted
///   Eliminated   / Elimination           compile-time-deleted
///   Trapped      / any pass              compile-time-trap
///   Eliminated   / IntervalAnalysis      interval-eliminated
///
/// Other events (PreheaderInsertion merges, "Unreachable" tail closures,
/// lowering/INX events, Residualized) produce no remark. A remark carries
/// the event's check, block, origin and justification plus the check's
/// family expression. Remark totals reconcile exactly with OptimizerStats,
/// which tests assert.
///
/// The interpreter can additionally report per-site dynamic execution
/// counts for the *residual* checks, which are joined back into the
/// remark stream so a remark can say "this surviving check executed N
/// times" (the paper's table-1 metric, per check instead of per program).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_REMARKS_H
#define NASCENT_OBS_REMARKS_H

#include "ir/Instruction.h"
#include "obs/Provenance.h"

#include <cstdint>
#include <ostream>
#include <regex>
#include <string>
#include <vector>

namespace nascent {

class BasicBlock;
class Function;
class Module;

namespace obs {

class JsonWriter;

/// What happened to a check. The first eight kinds map one-to-one onto
/// OptimizerStats fields; Residual marks a check that survived
/// optimization (emitted only when joining interpreter counts).
enum class RemarkKind {
  Eliminated,         ///< deleted as redundant (availability)
  Strengthened,       ///< replaced by a stronger family member
  LcmInserted,        ///< inserted by lazy code motion placement
  CondInserted,       ///< conditional check hoisted to a preheader
  Rehoisted,          ///< preheader check re-hoisted to an outer loop
  CompileTimeDeleted, ///< constant check proved to pass, deleted
  CompileTimeTrap,    ///< constant check proved to fail, turned into Trap
  IntervalEliminated, ///< proved redundant by interval analysis
  Residual            ///< survived; carries a dynamic execution count
};

const char *remarkKindName(RemarkKind K);

/// One structured optimization remark.
struct Remark {
  RemarkKind Kind = RemarkKind::Eliminated;
  std::string Pass;     ///< emitting pass, e.g. "Elimination"
  std::string Function; ///< enclosing function name
  std::string Block;    ///< basic-block name at the decision point
  std::string CheckStr; ///< rendered check, e.g. "Check(i - n <= -1)"
  std::string FamilyStr;///< rendered family range-expression, e.g. "i - n"
  int64_t Bound = 0;    ///< range constant of the (new) check
  CheckOrigin Origin;   ///< source provenance (array, dim, bound side)
  std::string Justification; ///< the fact justifying the verdict
  uint64_t DynCount = 0;     ///< dynamic executions (Residual remarks)
  bool HasDynCount = false;
};

/// Collects remarks, optionally filtered by a family regex (matched
/// against the family expression and the originating array name, like
/// -Rpass's pass-name filter but over check families).
class RemarkCollector {
public:
  /// Enables collection; a non-empty \p FilterRegex drops remarks whose
  /// family string and array name both fail to match.
  void enable(const std::string &FilterRegex = "");
  bool enabled() const { return Enabled; }

  void emit(Remark R);

  const std::vector<Remark> &remarks() const { return All; }
  size_t count(RemarkKind K) const;

  /// Renders each remark as a human-readable line ("remark: ...").
  void renderText(std::ostream &OS) const;

  /// JSON array of remark objects.
  void writeJson(JsonWriter &W) const;
  std::string toJson() const;

private:
  bool Enabled = false;
  bool HasFilter = false;
  std::regex Filter;
  std::vector<Remark> All;
};

/// The remark kind \p E reads as (the table above); false when the event
/// has no remark.
bool remarkKindOf(const LifecycleEvent &E, RemarkKind &Out);

/// Appends to \p RC, through its family filter, the remark of every event
/// in \p Events from index \p First on that has one. The events must all
/// have been recorded in \p F, whose symbol table renders the family.
void emitEventRemarks(const Function &F,
                      const std::vector<LifecycleEvent> &Events, size_t First,
                      RemarkCollector &RC);

/// Dynamic execution count of one surviving check site, reported by the
/// interpreter when InterpOptions::CountCheckSites is set. The site is
/// addressed structurally (function, block, instruction index) against
/// the optimized module the interpreter ran.
struct CheckSiteCount {
  std::string Func;
  BlockID Block = 0;
  uint32_t Index = 0; ///< instruction index within the block
  uint64_t Count = 0;
  CheckTag Tag = NoCheckTag; ///< lifecycle tag of the check at the site
};

/// Joins interpreter check-site counts back into the remark stream: one
/// Residual remark per surviving check site in \p M, with DynCount taken
/// from \p Sites (0 for sites the run never reached).
void emitResidualCheckRemarks(const Module &M,
                              const std::vector<CheckSiteCount> &Sites,
                              RemarkCollector &RC);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_REMARKS_H
