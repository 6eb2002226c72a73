//===----------------------------------------------------------------------===//
///
/// \file
/// Shared analysis context for the range-check optimizer: the check
/// universe of one function, the implication graph, per-instruction check
/// ids, kill/gen transfer functions, and the availability /
/// anticipatability data-flow problems (paper section 3.2).
///
/// Conditional checks hoisted into preheaders contribute *entry facts*
/// (PreheaderFact): the guarded check is recorded as available at the
/// entry of the loop's body block — the flow-sensitive, sound realisation
/// of the paper's preheader-to-body implications (see DESIGN.md §5.3).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_CHECKCONTEXT_H
#define NASCENT_OPT_CHECKCONTEXT_H

#include "analysis/Dataflow.h"
#include "checks/CheckImplicationGraph.h"
#include "checks/CheckUniverse.h"
#include "ir/Function.h"
#include "obs/Trace.h"

#include <vector>

namespace nascent {

/// A fact established by a conditional check in a loop preheader: at the
/// entry of BodyEntry, Fact has always been performed. Source is the
/// lifecycle tag of the conditional check that established the fact, so
/// eliminations justified by it can cite their witness.
struct PreheaderFact {
  BlockID BodyEntry = InvalidBlock;
  CheckExpr Fact;
  CheckTag Source = NoCheckTag;
};

/// Per-function analysis context over the current IR. Invalidated by any
/// IR mutation; the optimizer rebuilds it between its insertion and
/// elimination stages.
class CheckContext {
public:
  /// Builds the universe, CIG, and block transfer sets for the current IR
  /// of \p F. When \p Trace is given (and enabled) the dataflow solves
  /// record spans into it.
  CheckContext(const Function &F, ImplicationMode Mode,
               const std::vector<PreheaderFact> &Facts = {},
               obs::TraceCollector *Trace = nullptr);
  // The implication graph refers to the universe member.
  CheckContext(const CheckContext &) = delete;
  CheckContext &operator=(const CheckContext &) = delete;

  const Function &function() const { return F; }
  const CheckUniverse &universe() const { return U; }
  CheckImplicationGraph &cig() { return CIG; }
  const CheckImplicationGraph &cig() const { return CIG; }
  ImplicationMode mode() const { return Mode; }

  /// CheckID of the plain Check instruction at (B, Idx); InvalidCheck for
  /// every other instruction (including CondCheck) and for instructions
  /// inserted after this context was built.
  CheckID idOf(BlockID B, size_t Idx) const {
    if (B >= InstCheck.size() || Idx >= InstCheck[B].size())
      return InvalidCheck;
    return InstCheck[B][Idx];
  }

  /// A representative origin for diagnostics on inserted copies of \p C.
  const CheckOrigin &representativeOrigin(CheckID C) const {
    return RepOrigin[C];
  }

  /// Entry facts per block (universe-sized bit vectors).
  const DenseBitVector &genInBits(BlockID B) const { return GenIn[B]; }

  /// The lifecycle tag of a preheader conditional check whose fact covers
  /// \p C at the entry of \p B; NoCheckTag when no fact does (or the
  /// covering fact carries no tag). Provenance uses this to name the
  /// witness of fact-justified eliminations.
  CheckTag preheaderWitness(BlockID B, CheckID C) const;

  /// Clears from \p Bits every check killed by \p I (a definition of any
  /// symbol in the range-expression kills the check).
  void applyKill(const Instruction &I, DenseBitVector &Bits) const;

  /// Applies the availability gen of \p I: a performed check generates
  /// itself and every weaker check (via the CIG, honouring the mode).
  void applyAvailGen(BlockID B, size_t Idx, const Instruction &I,
                     DenseBitVector &Bits) const;

  /// Applies the anticipatability gen of \p I: a check generates itself
  /// and the weaker checks of its own family only (the paper's stronger
  /// branch-side condition).
  void applyAnticGen(BlockID B, size_t Idx, const Instruction &I,
                     DenseBitVector &Bits) const;

  /// Availability: forward, intersect. In/Out per block; remember that a
  /// block's effective entry set is In | genInBits.
  DataflowResult solveAvailability() const;

  /// Anticipatability: backward, intersect. In = block entry, Out = exit.
  DataflowResult solveAnticipatability() const;

  /// Cached weaker-closures (availability flavour). The first query
  /// batch-builds the closures of *every* check in one pass (see
  /// ensureClosures), so per-check calls are lookups.
  const DenseBitVector &weakerClosure(CheckID C) const;

  /// Cached weaker-closures restricted to the family (antic flavour).
  const DenseBitVector &weakerClosureSameFamily(CheckID C) const;

  /// Per-block kill sets (union over instructions).
  const DenseBitVector &blockKill(BlockID B) const { return Kill[B]; }

  /// Per-block local anticipatability (LCM's ANTLOC): checks generated in
  /// the block with no kill before them.
  const DenseBitVector &blockAnticGen(BlockID B) const {
    return AnticGen[B];
  }

  /// True when block \p B contains a plain check generating \p C's
  /// availability before any kill of \p C (LCM's "locally anticipatable").
  bool locallyAnticipates(BlockID B, CheckID C) const;

private:
  void buildUniverse(const std::vector<PreheaderFact> &Facts);
  void buildBlockSets();

  /// One-shot batch fill of both closure caches. Groups the work by
  /// family: the per-family bound-suffix masks and the per-family
  /// reachability scan are shared by all members, so each closure is a
  /// few word-parallel ORs instead of a per-member CIG walk. Safe to
  /// build eagerly because production code never mutates the CIG after
  /// the context is constructed.
  void ensureClosures() const;

  const Function &F;
  ImplicationMode Mode;
  obs::TraceCollector *Trace = nullptr;
  CheckUniverse U;
  CheckImplicationGraph CIG;

  /// (body entry, interned fact, source tag) per preheader fact, kept for
  /// witness lookups.
  struct FactInfo {
    BlockID Block;
    CheckID Id;
    CheckTag Source;
  };
  std::vector<FactInfo> StoredFacts;

  /// Per-instruction check ids, representative origins, entry facts and
  /// block transfer sets, built by the constructor.
  std::vector<std::vector<CheckID>> InstCheck;
  std::vector<CheckOrigin> RepOrigin;
  std::vector<DenseBitVector> GenIn;
  std::vector<DenseBitVector> Kill;
  std::vector<DenseBitVector> AvailGen; // includes GenIn survivors
  std::vector<DenseBitVector> AnticGen;

  /// Weaker-closure caches, filled in one batch by ensureClosures
  /// (mutable: the first const query may build them).
  mutable bool ClosuresBuilt = false;
  mutable std::vector<DenseBitVector> ClosureCache;
  mutable std::vector<DenseBitVector> FamClosureCache;
};

} // namespace nascent

#endif // NASCENT_OPT_CHECKCONTEXT_H
