#include "checks/INXSynthesis.h"

#include "analysis/Dominators.h"
#include "analysis/InductionVariables.h"
#include "analysis/LoopInfo.h"
#include "analysis/SSA.h"
#include "obs/StatRegistry.h"

#include <map>

using namespace nascent;

NASCENT_STAT(NumInxSeen, "checks.inx.seen",
             "checks examined by INX synthesis");
NASCENT_STAT(NumInxLinear, "checks.inx.rewritten_linear",
             "checks rewritten to linear induction form");
NASCENT_STAT(NumInxInvariant, "checks.inx.rewritten_invariant",
             "checks rewritten over loop-entry snapshots");
NASCENT_STAT(NumInxSnapshots, "checks.inx.snapshots",
             "loop-entry snapshot copies inserted");
NASCENT_STAT(NumInxBasicVars, "checks.inx.basic_vars",
             "basic loop variables materialised");

namespace {

/// Planned replacement of a check payload.
struct CheckRewrite {
  BlockID Block;
  size_t InstIdx;
  CheckExpr NewCheck;
};

/// Planned snapshot copy t = src at the end of a loop preheader.
struct Snapshot {
  BlockID Preheader;
  SymbolID Temp;
  SymbolID Source;
};

} // namespace

INXStats nascent::synthesizeINXChecks(Function &F,
                                      obs::ProvenanceRecorder *Prov) {
  INXStats Stats;
  F.recomputePreds();

  // Materialise basic loop variables before building SSA so their phis
  // participate in the induction analysis.
  for (DoLoopInfo &L : F.doLoops()) {
    if (L.BasicVar != InvalidSymbol)
      continue;
    SymbolID H = F.symbols().createTemp(ScalarType::Int, "h");
    L.BasicVar = H;
    Instruction Init;
    Init.Op = Opcode::Copy;
    Init.Dest = H;
    Init.Operands = {Value::intConst(0)};
    F.block(L.Preheader)->insertBeforeTerminator(std::move(Init));
    Instruction Step;
    Step.Op = Opcode::Add;
    Step.Dest = H;
    Step.Operands = {Value::sym(H), Value::intConst(1)};
    F.block(L.Latch)->insertAt(0, std::move(Step));
    ++Stats.BasicVarsMaterialized;
  }

  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  SSA S(F, DT);
  InductionAnalysis IV(S, LI, DT);

  // Whether a symbol is written inside a loop decides whether a
  // region-constant SSA value can be named by its symbol directly or needs
  // a loop-entry snapshot. SSA lists each symbol's definition blocks.
  auto DefinedIn = [&](SymbolID Sym, const Loop *L) {
    for (BlockID B : S.defBlocks(Sym))
      if (L->contains(B))
        return true;
    return false;
  };

  std::vector<CheckRewrite> Rewrites;
  std::vector<Snapshot> Snapshots;
  std::map<std::pair<const Loop *, SSAValueID>, SymbolID> SnapshotTemps;

  auto ResolveBaseValue = [&](SSAValueID V, const Loop *L,
                              SymbolID &OutSym) -> bool {
    const SSADef &D = S.def(V);
    if (D.Sym == InvalidSymbol)
      return false;
    if (!DefinedIn(D.Sym, L)) {
      // The symbol is never written inside the loop: its value anywhere in
      // the loop equals the region-constant value; use it directly.
      OutSym = D.Sym;
      return true;
    }
    if (L->Preheader == InvalidBlock)
      return false;
    auto Key = std::make_pair(L, V);
    auto It = SnapshotTemps.find(Key);
    if (It != SnapshotTemps.end()) {
      OutSym = It->second;
      return true;
    }
    SymbolID T = F.symbols().createTemp(ScalarType::Int, "snap");
    SnapshotTemps.emplace(Key, T);
    Snapshots.push_back({L->Preheader, T, D.Sym});
    OutSym = T;
    return true;
  };

  for (BlockID B = 0; B != F.numBlocks(); ++B) {
    if (!DT.isReachable(B))
      continue;
    const Loop *L = LI.loopFor(B);
    if (!L)
      continue;
    auto &Insts = F.block(B)->instructions();
    for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
      const Instruction &I = Insts[Idx];
      if (I.Op != Opcode::Check)
        continue;
      ++Stats.ChecksSeen;

      // Combine the induction expressions of every term.
      IVExpr Total = IVExpr::constant(0, L);
      bool Failed = false;
      for (const auto &[Sym, Coeff] : I.Check.expr().terms()) {
        IVExpr Part = IV.classifyUse(B, Idx, Sym, L);
        if (Part.K != IVExpr::Kind::Invariant &&
            Part.K != IVExpr::Kind::Linear) {
          Failed = true;
          break;
        }
        // Scale and accumulate.
        IVExpr Scaled = Part;
        Scaled.Coeff *= Coeff;
        Scaled.BaseConst *= Coeff;
        for (auto &[BV, BC] : Scaled.Base)
          BC *= Coeff;
        if (Scaled.Coeff != 0)
          Scaled.K = IVExpr::Kind::Linear;
        IVExpr NewTotal;
        NewTotal.K = (Total.K == IVExpr::Kind::Linear ||
                      Scaled.K == IVExpr::Kind::Linear)
                         ? IVExpr::Kind::Linear
                         : IVExpr::Kind::Invariant;
        NewTotal.L = L;
        NewTotal.Coeff = Total.Coeff + Scaled.Coeff;
        NewTotal.Base = Total.Base;
        for (const auto &[BV, BC] : Scaled.Base)
          NewTotal.Base[BV] += BC;
        NewTotal.BaseConst = Total.BaseConst + Scaled.BaseConst;
        if (NewTotal.Coeff == 0)
          NewTotal.K = IVExpr::Kind::Invariant;
        Total = NewTotal;
      }
      if (Failed)
        continue;

      // Build the induction-expression form of the check.
      LinearExpr NewExpr;
      if (Total.Coeff != 0) {
        const Loop *LL = L;
        if (LL->DoLoopIndex < 0)
          continue; // linear in a while loop: no basic variable
        SymbolID H = F.doLoops()[static_cast<size_t>(LL->DoLoopIndex)]
                         .BasicVar;
        NewExpr.addTerm(H, Total.Coeff);
      }
      bool BaseOK = true;
      for (const auto &[BV, BC] : Total.Base) {
        if (BC == 0)
          continue;
        SymbolID Sym = InvalidSymbol;
        if (!ResolveBaseValue(BV, L, Sym)) {
          BaseOK = false;
          break;
        }
        NewExpr.addTerm(Sym, BC);
      }
      if (!BaseOK)
        continue;
      NewExpr.addConstant(Total.BaseConst);

      CheckExpr NewCheck(NewExpr, I.Check.bound());
      if (NewCheck == I.Check)
        continue;
      Rewrites.push_back({B, Idx, NewCheck});
      if (Total.Coeff != 0)
        ++Stats.RewrittenLinear;
      else
        ++Stats.RewrittenInvariant;
    }
  }

  // Apply payload rewrites first (no instruction indices shift), then the
  // snapshot copies (which only touch preheaders).
  for (const CheckRewrite &R : Rewrites) {
    Instruction &I = F.block(R.Block)->instructions()[R.InstIdx];
    std::string OldStr;
    if (Prov && Prov->enabled())
      OldStr = I.Check.str(F.symbols());
    I.Check = R.NewCheck;
    if (Prov && Prov->enabled()) {
      obs::LifecycleEvent E = obs::makeLifecycleEvent(
          obs::LifecycleKind::Strengthened, "INXSynthesis", F,
          *F.block(R.Block), I,
          "range expression rewritten into induction-expression (INX) "
          "form over the loop's basic variable and entry snapshots");
      E.Edge = std::move(OldStr);
      Prov->record(std::move(E));
    }
  }
  for (const Snapshot &SN : Snapshots) {
    Instruction Copy;
    Copy.Op = Opcode::Copy;
    Copy.Dest = SN.Temp;
    Copy.Operands = {Value::sym(SN.Source)};
    F.block(SN.Preheader)->insertBeforeTerminator(std::move(Copy));
    ++Stats.SnapshotsInserted;
  }
  NumInxSeen += Stats.ChecksSeen;
  NumInxLinear += Stats.RewrittenLinear;
  NumInxInvariant += Stats.RewrittenInvariant;
  NumInxSnapshots += Stats.SnapshotsInserted;
  NumInxBasicVars += Stats.BasicVarsMaterialized;
  return Stats;
}
