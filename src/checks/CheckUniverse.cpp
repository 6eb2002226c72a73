#include "checks/CheckUniverse.h"

#include "obs/StatRegistry.h"

#include <algorithm>

using namespace nascent;

NASCENT_STAT(NumInterned, "checks.universe.interned",
             "distinct checks interned into universes");

CheckID CheckUniverse::intern(const CheckExpr &C) {
  auto It = Interned.find(C);
  if (It != Interned.end())
    return It->second;

  CheckID ID = static_cast<CheckID>(Checks.size());
  Checks.push_back(C);
  Interned.emplace(C, ID);
  ++Generation;
  ++NumInterned;

  FamilyID F;
  if (FamilyPerCheck) {
    F = static_cast<FamilyID>(Families.size());
    Families.push_back({C.expr(), {}});
  } else {
    auto FIt = FamilyByExpr.find(C.expr());
    if (FIt == FamilyByExpr.end()) {
      F = static_cast<FamilyID>(Families.size());
      Families.push_back({C.expr(), {}});
      FamilyByExpr.emplace(C.expr(), F);
    } else {
      F = FIt->second;
    }
  }
  CheckFamily.push_back(F);

  // Keep family members ordered by ascending bound (strongest first).
  auto &Members = Families[F].Members;
  auto Pos = std::lower_bound(Members.begin(), Members.end(), ID,
                              [&](CheckID A, CheckID B) {
                                return Checks[A].bound() < Checks[B].bound();
                              });
  Members.insert(Pos, ID);

  for (const auto &[Sym, Coeff] : C.expr().terms()) {
    (void)Coeff;
    BySymbol[Sym].push_back(ID);
  }
  return ID;
}

CheckID CheckUniverse::find(const CheckExpr &C) const {
  auto It = Interned.find(C);
  return It == Interned.end() ? InvalidCheck : It->second;
}

const std::vector<CheckID> &
CheckUniverse::checksUsingSymbol(SymbolID Sym) const {
  static const std::vector<CheckID> Empty;
  auto It = BySymbol.find(Sym);
  return It == BySymbol.end() ? Empty : It->second;
}
