#include "ir/LinearExpr.h"

#include "ir/Symbol.h"

#include <algorithm>
#include <functional>

using namespace nascent;

void LinearExpr::addTerm(SymbolID Sym, int64_t Coeff) {
  if (Coeff == 0)
    return;
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), Sym,
      [](const std::pair<SymbolID, int64_t> &T, SymbolID S) {
        return T.first < S;
      });
  if (It != Terms.end() && It->first == Sym) {
    It->second += Coeff;
    if (It->second == 0)
      Terms.erase(It);
    return;
  }
  Terms.insert(It, {Sym, Coeff});
}

LinearExpr &LinearExpr::operator+=(const LinearExpr &RHS) {
  for (const auto &[Sym, Coeff] : RHS.Terms)
    addTerm(Sym, Coeff);
  Const += RHS.Const;
  return *this;
}

LinearExpr &LinearExpr::operator-=(const LinearExpr &RHS) {
  for (const auto &[Sym, Coeff] : RHS.Terms)
    addTerm(Sym, -Coeff);
  Const -= RHS.Const;
  return *this;
}

LinearExpr LinearExpr::scaled(int64_t Factor) const {
  LinearExpr E;
  if (Factor == 0)
    return E;
  E.Const = Const * Factor;
  E.Terms.reserve(Terms.size());
  for (const auto &[Sym, Coeff] : Terms)
    E.Terms.push_back({Sym, Coeff * Factor});
  return E;
}

int64_t LinearExpr::coeff(SymbolID Sym) const {
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), Sym,
      [](const std::pair<SymbolID, int64_t> &T, SymbolID S) {
        return T.first < S;
      });
  if (It != Terms.end() && It->first == Sym)
    return It->second;
  return 0;
}

int64_t LinearExpr::removeTerm(SymbolID Sym) {
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), Sym,
      [](const std::pair<SymbolID, int64_t> &T, SymbolID S) {
        return T.first < S;
      });
  if (It == Terms.end() || It->first != Sym)
    return 0;
  int64_t C = It->second;
  Terms.erase(It);
  return C;
}

void LinearExpr::substitute(SymbolID Sym, const LinearExpr &Replacement) {
  int64_t C = removeTerm(Sym);
  if (C != 0)
    *this += Replacement.scaled(C);
}

std::string LinearExpr::str(const SymbolTable &Syms) const {
  if (Terms.empty())
    return std::to_string(Const);
  std::string Out;
  bool First = true;
  for (const auto &[Sym, Coeff] : Terms) {
    int64_t C = Coeff;
    if (First) {
      if (C < 0) {
        Out += "-";
        C = -C;
      }
    } else {
      Out += (C < 0) ? " - " : " + ";
      if (C < 0)
        C = -C;
    }
    if (C != 1)
      Out += std::to_string(C) + "*";
    Out += Syms.name(Sym);
    First = false;
  }
  if (Const > 0)
    Out += " + " + std::to_string(Const);
  else if (Const < 0)
    Out += " - " + std::to_string(-Const);
  return Out;
}

size_t LinearExpr::hash() const {
  size_t H = std::hash<int64_t>()(Const);
  for (const auto &[Sym, Coeff] : Terms) {
    H ^= std::hash<uint64_t>()((uint64_t(Sym) << 32) ^ uint64_t(Coeff)) +
         0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  }
  return H;
}
