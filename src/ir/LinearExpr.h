//===----------------------------------------------------------------------===//
///
/// \file
/// Linear (affine) integer expressions over symbols: sum of coeff*symbol
/// terms plus a constant. This is the normal form behind the paper's
/// canonical range checks (section 2.2): terms are kept in a canonical
/// order (by symbol id) so that semantically equivalent but syntactically
/// different expressions compare equal, which maximises family sizes.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_LINEAREXPR_H
#define NASCENT_IR_LINEAREXPR_H

#include "ir/Symbol.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace nascent {

class SymbolTable;

/// An affine expression  sum_i Coeff_i * Sym_i + Const  with terms sorted by
/// symbol id and no zero coefficients.
class LinearExpr {
public:
  LinearExpr() = default;

  /// The constant expression \p C.
  static LinearExpr constant(int64_t C) {
    LinearExpr E;
    E.Const = C;
    return E;
  }

  /// The single-symbol expression  Coeff * Sym.
  static LinearExpr term(SymbolID Sym, int64_t Coeff = 1) {
    LinearExpr E;
    if (Coeff != 0)
      E.Terms.push_back({Sym, Coeff});
    return E;
  }

  /// Adds \p Coeff * \p Sym into this expression.
  void addTerm(SymbolID Sym, int64_t Coeff);

  /// Adds \p C into the constant part.
  void addConstant(int64_t C) { Const += C; }

  LinearExpr &operator+=(const LinearExpr &RHS);
  LinearExpr &operator-=(const LinearExpr &RHS);

  friend LinearExpr operator+(LinearExpr A, const LinearExpr &B) {
    A += B;
    return A;
  }
  friend LinearExpr operator-(LinearExpr A, const LinearExpr &B) {
    A -= B;
    return A;
  }

  /// Returns this expression multiplied by the constant \p Factor.
  LinearExpr scaled(int64_t Factor) const;

  /// Returns the negation of this expression.
  LinearExpr negated() const { return scaled(-1); }

  /// True when there are no symbolic terms.
  bool isConstant() const { return Terms.empty(); }

  /// The constant part.
  int64_t constantPart() const { return Const; }

  /// Returns a copy with the constant part zeroed; this is the
  /// "range-expression" of a canonical check.
  LinearExpr symbolicPart() const {
    LinearExpr E = *this;
    E.Const = 0;
    return E;
  }

  /// Coefficient of \p Sym (0 when absent).
  int64_t coeff(SymbolID Sym) const;

  /// Removes the \p Sym term and returns its former coefficient.
  int64_t removeTerm(SymbolID Sym);

  /// Replaces the \p Sym term (coefficient c) by c * Replacement.
  /// No-op when the term is absent.
  void substitute(SymbolID Sym, const LinearExpr &Replacement);

  /// True if \p Sym appears with a nonzero coefficient.
  bool references(SymbolID Sym) const { return coeff(Sym) != 0; }

  const std::vector<std::pair<SymbolID, int64_t>> &terms() const {
    return Terms;
  }

  /// Renders e.g. "2*n - i + 3" using names from \p Syms; "0" when empty.
  std::string str(const SymbolTable &Syms) const;

  /// Structural equality (terms and constant).
  friend bool operator==(const LinearExpr &A, const LinearExpr &B) {
    return A.Const == B.Const && A.Terms == B.Terms;
  }
  friend bool operator!=(const LinearExpr &A, const LinearExpr &B) {
    return !(A == B);
  }

  /// Hash of the full expression, suitable for unordered_map keys.
  size_t hash() const;

private:
  /// Sorted by symbol id; invariant: no zero coefficients.
  std::vector<std::pair<SymbolID, int64_t>> Terms;
  int64_t Const = 0;
};

/// Hash functor so LinearExpr can key unordered containers.
struct LinearExprHash {
  size_t operator()(const LinearExpr &E) const { return E.hash(); }
};

} // namespace nascent

#endif // NASCENT_IR_LINEAREXPR_H
