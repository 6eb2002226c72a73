//===----------------------------------------------------------------------===//
///
/// \file
/// Semi-pruned SSA construction (Cytron et al. placement, restricted as in
/// Briggs et al. to names with an upward-exposed use) as a side-table
/// overlay: the IR itself stays in non-SSA three-address form (the check
/// data-flow problems of the paper operate on that form), while
/// induction-variable analysis reads this overlay to reason about value
/// flow. Each scalar symbol use in each instruction is resolved to an SSA
/// value; phi nodes live in per-block side lists.
///
/// A name whose every use follows a definition in the same block (a
/// block-local temporary) gets no phi: no use could read one. Every other
/// name gets the phis of minimal SSA.
///
/// All tables are flat arrays indexed by value, by symbol, or by a
/// function-wide instruction number; construction allocates a fixed number
/// of them regardless of the function's size.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_SSA_H
#define NASCENT_ANALYSIS_SSA_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <span>
#include <vector>

namespace nascent {

using SSAValueID = uint32_t;
constexpr SSAValueID InvalidSSAValue = ~SSAValueID(0);

/// Where an SSA value is defined.
struct SSADef {
  enum class Kind {
    Entry, ///< value of the symbol on function entry (param or undefined)
    Inst,  ///< destination of the instruction at (Block, InstIdx)
    Phi,   ///< phi number PhiIdx of Block
  };
  Kind K = Kind::Entry;
  SymbolID Sym = InvalidSymbol;
  BlockID Block = InvalidBlock;
  uint32_t InstIdx = 0; ///< instruction index (Inst) or phi index (Phi)
};

/// One phi node in the overlay.
struct SSAPhi {
  SymbolID Sym = InvalidSymbol;
  SSAValueID Result = InvalidSSAValue;
  /// Incoming values aligned with the block's predecessor list (a view
  /// into the owning SSA's storage).
  std::span<const SSAValueID> Incoming;
};

/// The SSA overlay for one function. Construction requires current
/// predecessor lists and a dominator tree. The overlay is invalidated by
/// any IR mutation.
class SSA {
public:
  SSA(const Function &F, const DominatorTree &DT);
  SSA(const SSA &) = delete; ///< phis view the overlay's own storage
  SSA &operator=(const SSA &) = delete;

  /// SSA values of the scalar-symbol uses of instruction (B, InstIdx), in
  /// the canonical order produced by forEachSymbolUse.
  std::span<const SSAValueID> usesOf(BlockID B, size_t InstIdx) const {
    size_t G = instNumber(B, InstIdx);
    return {UseVals.data() + UseBegin[G], UseBegin[G + 1] - UseBegin[G]};
  }

  /// The SSA value defined by instruction (B, InstIdx); InvalidSSAValue
  /// when the instruction has no scalar destination.
  SSAValueID defOf(BlockID B, size_t InstIdx) const {
    return InstDefs[instNumber(B, InstIdx)];
  }

  const SSADef &def(SSAValueID V) const { return Defs[V]; }

  std::span<const SSAPhi> phisIn(BlockID B) const {
    return {Phis.data() + PhiBegin[B], PhiBegin[B + 1] - PhiBegin[B]};
  }

  size_t numValues() const { return Defs.size(); }

  /// The function the overlay was built for.
  const Function &function() const { return F; }

  /// Reachable blocks holding an instruction that writes \p Sym, in
  /// ascending order. The entry block's implicit definition of every
  /// symbol is not listed.
  std::span<const BlockID> defBlocks(SymbolID Sym) const {
    return {DefBlockList.data() + DefBlockBegin[Sym],
            DefBlockBegin[Sym + 1] - DefBlockBegin[Sym]};
  }

  /// Enumerates the scalar-symbol uses of \p I in the canonical order:
  /// operands, then subscripts, then check-expression terms, then guard
  /// terms. Array symbols (e.g. whole-array call arguments) are skipped.
  template <typename Fn>
  static void forEachSymbolUse(const Instruction &I, const SymbolTable &Syms,
                               Fn &&Visit) {
    for (const Value &V : I.Operands)
      if (V.isSym() && !Syms.get(V.symbol()).isArray())
        Visit(V.symbol());
    for (const Value &V : I.Indices)
      if (V.isSym() && !Syms.get(V.symbol()).isArray())
        Visit(V.symbol());
    for (const auto &Term : I.Check.expr().terms())
      Visit(Term.first);
    for (const CheckExpr &G : I.Guards)
      for (const auto &Term : G.expr().terms())
        Visit(Term.first);
  }

  /// Resolves the SSA value of symbol \p Sym at the *use position* of
  /// instruction (B, InstIdx). Returns InvalidSSAValue when \p Sym is not
  /// used by the instruction.
  SSAValueID useOfSymbol(BlockID B, size_t InstIdx, SymbolID Sym) const;

private:
  size_t instNumber(BlockID B, size_t InstIdx) const {
    return BlockInstBegin[B] + InstIdx;
  }

  void scanBlocks(const DominatorTree &DT, std::vector<bool> &Global);
  void placePhis(const DominatorTree &DT, const std::vector<bool> &Global);
  void rename(const DominatorTree &DT);

  const Function &F;
  std::vector<SSADef> Defs;

  /// Function-wide instruction numbering: block B's instructions are
  /// BlockInstBegin[B] .. BlockInstBegin[B + 1).
  std::vector<uint32_t> BlockInstBegin;
  /// Uses of instruction G are UseVals/UseSyms[UseBegin[G] .. UseBegin[G+1]).
  std::vector<uint32_t> UseBegin;
  std::vector<SSAValueID> UseVals;
  std::vector<SymbolID> UseSyms;
  std::vector<SSAValueID> InstDefs; ///< per instruction number

  /// Explicit definition blocks of symbol S:
  /// DefBlockList[DefBlockBegin[S] .. DefBlockBegin[S + 1]).
  std::vector<uint32_t> DefBlockBegin;
  std::vector<BlockID> DefBlockList;

  /// Phis of block B: Phis[PhiBegin[B] .. PhiBegin[B + 1]); their incoming
  /// values live in PhiIncoming.
  std::vector<uint32_t> PhiBegin;
  std::vector<SSAPhi> Phis;
  std::vector<SSAValueID> PhiIncoming;

  std::vector<SSAValueID> EntryValues; ///< per-symbol entry value
};

} // namespace nascent

#endif // NASCENT_ANALYSIS_SSA_H
