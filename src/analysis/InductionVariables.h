//===----------------------------------------------------------------------===//
///
/// \file
/// SSA-based induction-variable analysis in the style the paper inherits
/// from Gerlek, Stoltz, and Wolfe: every value is classified relative to a
/// loop as invariant, linear (c*h + base, with h the basic loop variable
/// 0,1,2,...), polynomial (e.g. sums of linear sequences), or unknown.
/// The INX check synthesis uses the linear/invariant classifications to
/// re-express range checks over induction expressions.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_INDUCTIONVARIABLES_H
#define NASCENT_ANALYSIS_INDUCTIONVARIABLES_H

#include "analysis/LoopInfo.h"
#include "analysis/SSA.h"

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace nascent {

/// Classification of one SSA value relative to a loop.
struct IVExpr {
  enum class Kind {
    Unknown,
    Invariant,  ///< constant within the loop:   Base + BaseConst
    Linear,     ///< Coeff * h + Base + BaseConst, Coeff a nonzero constant
    Polynomial, ///< e.g. running sums of linear values (h*(h+1)/2 shapes)
  };

  Kind K = Kind::Unknown;
  const Loop *L = nullptr; ///< loop of classification (null for Unknown)
  int64_t Coeff = 0;       ///< coefficient of the basic loop variable h

  /// Affine symbolic part: region-constant SSA values (defined outside L)
  /// with integer coefficients, plus a constant.
  std::map<SSAValueID, int64_t> Base;
  int64_t BaseConst = 0;

  bool isInvariant() const { return K == Kind::Invariant; }
  bool isLinear() const { return K == Kind::Linear; }

  /// True when the value is a compile-time constant.
  bool isConstant() const { return K == Kind::Invariant && Base.empty(); }

  static IVExpr unknown() { return IVExpr(); }
  static IVExpr constant(int64_t C, const Loop *L) {
    IVExpr E;
    E.K = Kind::Invariant;
    E.L = L;
    E.BaseConst = C;
    return E;
  }

  /// Printable classification name matching the paper's Figure 2 table.
  const char *kindName() const;
};

/// Memoized induction-variable classifier over one SSA overlay. The memo
/// tables are dense arrays indexed by SSA value (and, for classify, by
/// Loop::Index).
class InductionAnalysis {
public:
  InductionAnalysis(const SSA &S, const LoopInfo &LI,
                    const DominatorTree &DT)
      : S(S), LI(LI), DT(DT), MemoSlots(LI.numLoops()),
        ConstState(S.numValues(), ConstUnvisited),
        ConstValues(S.numValues(), 0) {}

  /// Classifies SSA value \p V relative to loop \p L (which must be
  /// non-null). Results are memoized.
  IVExpr classify(SSAValueID V, const Loop *L);

  /// Classifies the use of symbol \p Sym by the instruction at
  /// (B, InstIdx) relative to loop \p L.
  IVExpr classifyUse(BlockID B, size_t InstIdx, SymbolID Sym, const Loop *L);

  /// Transitive compile-time constant value of \p V, when resolvable
  /// through copies and arithmetic on constants.
  std::optional<int64_t> constantValue(SSAValueID V);

  /// True when phi \p PhiValue (a header phi of \p L) is a basic induction
  /// variable with a constant step; fills \p Step when so.
  bool isBasicIV(SSAValueID PhiValue, const Loop *L, int64_t &Step);

private:
  /// Result of expressing a value as  CoeffPhi * phi + Rest  while walking
  /// the strongly connected region around a candidate basic IV phi.
  struct AroundPhi {
    enum class Status { Affine, Polynomial, Unknown };
    Status St = Status::Unknown;
    int64_t CoeffPhi = 0;
    IVExpr Rest; ///< Invariant-kinded accumulation
  };

  AroundPhi affineAroundPhi(SSAValueID V, SSAValueID PhiV, const Loop *L,
                            unsigned Depth);
  AroundPhi affineAroundPhiOperand(const Value &Op, BlockID B, size_t InstIdx,
                                   SSAValueID PhiV, const Loop *L,
                                   unsigned Depth);

  IVExpr classifyImpl(SSAValueID V, const Loop *L);
  IVExpr classifyOperand(const Value &Op, BlockID B, size_t InstIdx,
                         const Loop *L);

  /// True when the definition of \p V lies outside loop \p L.
  bool definedOutside(SSAValueID V, const Loop *L) const;

  static IVExpr add(const IVExpr &A, const IVExpr &B);
  static IVExpr scale(const IVExpr &A, int64_t Factor);
  static IVExpr normalize(IVExpr E);

  const SSA &S;
  const LoopInfo &LI;
  const DominatorTree &DT;

  /// Memo of classify: MemoSlots[L->Index][V] is SlotUnvisited,
  /// SlotInProgress, or SlotFirstResult + the result's index in Results.
  /// A loop's row is allocated when it is first asked about.
  static constexpr uint32_t SlotUnvisited = 0;
  static constexpr uint32_t SlotInProgress = 1;
  static constexpr uint32_t SlotFirstResult = 2;
  std::vector<std::vector<uint32_t>> MemoSlots;
  std::vector<IVExpr> Results;

  /// Memo of constantValue, per SSA value.
  enum : uint8_t { ConstUnvisited, ConstUnknown, ConstKnown };
  std::vector<uint8_t> ConstState;
  std::vector<int64_t> ConstValues;
};

} // namespace nascent

#endif // NASCENT_ANALYSIS_INDUCTIONVARIABLES_H
