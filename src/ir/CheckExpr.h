//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical form of range checks (paper section 2.2):
///
///   Check(range-expression <= range-constant)
///
/// where the range-expression carries all symbolic terms (canonically
/// ordered, constant part folded into the range-constant) and the check
/// traps when the inequality is violated. Lower-bound checks are negated
/// into the same form, e.g. "i+1 >= 4" becomes "-i <= -3".
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_CHECKEXPR_H
#define NASCENT_IR_CHECKEXPR_H

#include "ir/LinearExpr.h"
#include "support/SourceLocation.h"

#include <functional>
#include <string>

namespace nascent {

class SymbolTable;

/// Why a check exists, kept for diagnostics and reporting. The optimizer
/// never consults the origin; equivalence is purely structural.
struct CheckOrigin {
  std::string ArrayName; ///< array whose access introduced the check
  int Dim = 0;           ///< zero-based dimension index
  bool IsUpper = true;   ///< true for upper-bound, false for lower-bound
  SourceLocation Loc;    ///< location of the array access
};

/// A canonical range check:  trap unless  Expr <= Bound.
///
/// Invariant: Expr.constantPart() == 0 (the constructor folds any constant
/// into Bound). Two checks are in the same *family* iff their Exprs are
/// structurally equal; within a family a smaller Bound is *stronger*.
class CheckExpr {
public:
  CheckExpr() = default;

  /// Builds the canonical check "E <= B": the constant part of \p E is
  /// folded into the bound, so (i + 1 <= 4*n) with E = i+1-4n, B = -1 ...
  /// callers simply pass the raw affine inequality.
  CheckExpr(LinearExpr E, int64_t B) {
    Bound = B - E.constantPart();
    Expr = E.symbolicPart();
  }

  /// Canonicalises "E >= B" (a lower-bound check) by negation: -E <= -B.
  static CheckExpr fromLowerBound(const LinearExpr &E, int64_t B) {
    return CheckExpr(E.negated(), -B);
  }

  const LinearExpr &expr() const { return Expr; }
  int64_t bound() const { return Bound; }

  /// True when the check contains only compile-time constants and can be
  /// evaluated by the compiler (paper's step 5).
  bool isCompileTimeConstant() const { return Expr.isConstant(); }

  /// For a compile-time-constant check: true when the check passes.
  bool evaluatesToTrue() const {
    assert(isCompileTimeConstant() && "check is not compile-time constant");
    return 0 <= Bound;
  }

  /// Renders e.g. "Check(2*n <= 10)".
  std::string str(const SymbolTable &Syms) const;

  friend bool operator==(const CheckExpr &A, const CheckExpr &B) {
    return A.Bound == B.Bound && A.Expr == B.Expr;
  }
  friend bool operator!=(const CheckExpr &A, const CheckExpr &B) {
    return !(A == B);
  }

  size_t hash() const {
    return Expr.hash() * 31 + std::hash<int64_t>()(Bound);
  }

private:
  LinearExpr Expr; ///< symbolic part only (constant folded into Bound)
  int64_t Bound = 0;
};

/// Hash functor for unordered containers of checks.
struct CheckExprHash {
  size_t operator()(const CheckExpr &C) const { return C.hash(); }
};

} // namespace nascent

#endif // NASCENT_IR_CHECKEXPR_H
