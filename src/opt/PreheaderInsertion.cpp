#include "opt/PreheaderInsertion.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "obs/StatRegistry.h"

#include <unordered_map>

using namespace nascent;

NASCENT_STAT(NumCondInserted, "opt.preheader.cond_inserted",
             "conditional checks hoisted into loop preheaders");
NASCENT_STAT(NumRehoisted, "opt.preheader.rehoisted",
             "conditional checks re-hoisted to an outer preheader");
NASCENT_STAT(NumSubstituted, "opt.preheader.substituted",
             "hoisted checks using loop-limit substitution");

namespace {

/// One conditional check planned for a preheader.
struct PlannedCheck {
  std::vector<CheckExpr> Guards;
  CheckExpr Check;
  CheckOrigin Origin;
};

/// Returns the set of symbols defined (as instruction destinations) inside
/// the loop, as a bit set over the function's symbol space — the
/// invariance tests below probe it once per expression term.
DenseBitVector definedSymbols(const Function &F, const Loop &L) {
  DenseBitVector Out(F.symbols().size());
  for (BlockID B : L.Blocks)
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Dest != InvalidSymbol)
        Out.set(I.Dest);
  return Out;
}

bool exprInvariant(const LinearExpr &E, const DenseBitVector &Defined) {
  for (const auto &[Sym, Coeff] : E.terms()) {
    (void)Coeff;
    if (Defined.test(Sym))
      return false;
  }
  return true;
}

/// True when every started iteration of \p L runs to the latch unless it
/// traps: no Ret terminators and no while-loop (unbounded) sub-loop inside.
/// Required before loop-limit substitution may speak for the extreme
/// iteration.
bool everyIterationCompletes(const Function &F, const LoopInfo &LI,
                             const Loop &L) {
  for (BlockID B : L.Blocks) {
    const Instruction &T = F.block(B)->terminator();
    if (T.Op == Opcode::Ret)
      return false;
  }
  for (const Loop *Sub : LI.loopsInnermostFirst()) {
    if (Sub == &L || !L.contains(Sub->Header))
      continue;
    if (Sub->DoLoopIndex < 0)
      return false; // nested while loop: may not terminate
  }
  return true;
}

/// True when no path from \p From reaches \p Avoid... specifically: DFS
/// from \p From that never enters \p Avoid; returns true when it reaches
/// \p Target or a Ret-terminated block.
bool reachesWithout(const Function &F, BlockID From, BlockID Avoid,
                    BlockID Target) {
  std::vector<bool> Seen(F.numBlocks(), false);
  std::vector<BlockID> Work{From};
  Seen[From] = true;
  if (From == Avoid)
    return false;
  while (!Work.empty()) {
    BlockID B = Work.back();
    Work.pop_back();
    if (B == Target)
      return true;
    const Instruction &T = F.block(B)->terminator();
    if (T.Op == Opcode::Ret)
      return true; // early function exit counts as "escaped"
    for (BlockID S : F.block(B)->successors()) {
      if (S == Avoid || Seen[S])
        continue;
      Seen[S] = true;
      Work.push_back(S);
    }
  }
  return false;
}

/// Substitutes the extreme value of \p Var into \p Expr (which contains
/// Var with coefficient \p Coeff): the maximum value when Coeff > 0, else
/// the minimum.
LinearExpr substituteExtreme(const LinearExpr &Expr, SymbolID Var,
                             int64_t Coeff, const LinearExpr &MinVal,
                             const LinearExpr &MaxVal) {
  LinearExpr Out = Expr;
  Out.substitute(Var, Coeff > 0 ? MaxVal : MinVal);
  return Out;
}

} // namespace

PreheaderStats
nascent::runPreheaderInsertion(Function &F, const CheckContext &Ctx,
                               const PreheaderOptions &Opts,
                               std::vector<PreheaderFact> &FactsOut,
                               obs::ProvenanceRecorder *Prov) {
  PreheaderStats Stats;
  const CheckUniverse &U = Ctx.universe();
  if (U.size() == 0)
    return Stats;

  F.recomputePreds();
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  DataflowResult Antic = Ctx.solveAnticipatability();

  // Checks that occur as plain Check instructions inside each loop; a
  // candidate is only worth hoisting when it covers at least one of them.
  // Indexed parallel to loopsInnermostFirst().
  const std::vector<Loop *> &Loops = LI.loopsInnermostFirst();
  std::vector<DenseBitVector> OccursIn;
  OccursIn.reserve(Loops.size());
  for (const Loop *L : Loops) {
    DenseBitVector Bits(U.size());
    for (BlockID B : L->Blocks)
      for (size_t Idx = 0; Idx != F.block(B)->size(); ++Idx) {
        CheckID C = Ctx.idOf(B, Idx);
        if (C != InvalidCheck)
          Bits.set(C);
      }
    OccursIn.push_back(std::move(Bits));
  }

  for (size_t LIdx = 0; LIdx != Loops.size(); ++LIdx) {
    const Loop *L = Loops[LIdx];
    if (L->DoLoopIndex < 0)
      continue; // while loops: no affine entry guard (paper section 3.3)
    const DoLoopInfo &DL = F.doLoops()[static_cast<size_t>(L->DoLoopIndex)];
    DenseBitVector Defined = definedSymbols(F, *L);

    CheckExpr Guard = DL.entryGuard();
    if (Guard.isCompileTimeConstant() && !Guard.evaluatesToTrue())
      continue; // the loop never executes

    bool CanSubstitute =
        Opts.EnableLLS && (DL.Step == 1 || DL.Step == -1) &&
        everyIterationCompletes(F, LI, *L);
    LinearExpr IdxMin = DL.Step > 0 ? DL.LowerBound : DL.UpperBound;
    LinearExpr IdxMax = DL.Step > 0 ? DL.UpperBound : DL.LowerBound;
    LinearExpr HMin = LinearExpr::constant(0);
    LinearExpr HMax; // valid only when CanSubstitute
    if (DL.Step == 1 || DL.Step == -1)
      HMax = DL.lastIterationIndexOffset();

    // Markstein restriction (extension; see PreheaderOptions): checks are
    // candidates only when they occur in an articulation block of the
    // body -- a block without which the body entry can reach neither the
    // latch nor an early exit -- and have a single +-1-coefficient term.
    DenseBitVector MarksteinOK(U.size());
    if (Opts.MarksteinRestriction) {
      for (BlockID B : L->Blocks) {
        if (B == DL.Preheader)
          continue;
        bool Articulation =
            B == DL.BodyEntry ||
            !reachesWithout(F, DL.BodyEntry, B, DL.Latch);
        if (!Articulation)
          continue;
        for (size_t Idx = 0; Idx != F.block(B)->size(); ++Idx) {
          CheckID C = Ctx.idOf(B, Idx);
          if (C == InvalidCheck)
            continue;
          const auto &Terms = U.check(C).expr().terms();
          bool Simple = Terms.size() == 1 &&
                        (Terms[0].second == 1 || Terms[0].second == -1);
          if (Simple)
            MarksteinOK.set(C);
        }
      }
    }

    // --- first-level candidates from anticipatability -------------------
    // Group candidates by the family of the check that will actually be
    // inserted; the strongest member of each group covers the rest.
    struct Group {
      CheckExpr Inserted; ///< strongest substituted/invariant check so far
      bool Substituted = false;
      CheckOrigin Origin;
      std::vector<CheckExpr> Facts; ///< original checks covered
    };
    std::unordered_map<LinearExpr, Group, LinearExprHash> Groups;

    const DenseBitVector &AntIn = Antic.In[DL.BodyEntry];
    const DenseBitVector &Occurs = OccursIn[LIdx];
    AntIn.forEachSetBit([&](size_t Bit) {
      CheckID C = static_cast<CheckID>(Bit);
      if (Opts.MarksteinRestriction && !MarksteinOK.test(C))
        return;
      // Profitability: hoisting must cover a check inside the loop.
      DenseBitVector Covered = Ctx.weakerClosure(C);
      Covered &= Occurs;
      if (Covered.none())
        return;

      const CheckExpr &CE = U.check(C);
      CheckExpr Inserted;
      bool DidSubstitute = false;
      if (exprInvariant(CE.expr(), Defined)) {
        Inserted = CE;
      } else if (CanSubstitute) {
        // Linear in the index or the basic loop variable, rest invariant.
        int64_t CoeffI = CE.expr().coeff(DL.IndexVar);
        int64_t CoeffH = DL.BasicVar != InvalidSymbol
                             ? CE.expr().coeff(DL.BasicVar)
                             : 0;
        SymbolID Var = InvalidSymbol;
        int64_t Coeff = 0;
        const LinearExpr *MinV = nullptr, *MaxV = nullptr;
        if (CoeffI != 0 && CoeffH == 0) {
          Var = DL.IndexVar;
          Coeff = CoeffI;
          MinV = &IdxMin;
          MaxV = &IdxMax;
        } else if (CoeffH != 0 && CoeffI == 0) {
          Var = DL.BasicVar;
          Coeff = CoeffH;
          MinV = &HMin;
          MaxV = &HMax;
        } else {
          return; // neither, or both: not substitutable
        }
        LinearExpr Rest = CE.expr();
        Rest.removeTerm(Var);
        if (!exprInvariant(Rest, Defined))
          return;
        // The bound expressions themselves must not use symbols defined in
        // the loop body other than being evaluated at the preheader; they
        // are snapshots by construction (see Lowering), so any symbol is
        // acceptable for the *inserted* check, but for re-hoisting later
        // the invariance test will consult the actual symbols.
        LinearExpr SubstExpr =
            substituteExtreme(CE.expr(), Var, Coeff, *MinV, *MaxV);
        Inserted = CheckExpr(SubstExpr, CE.bound());
        DidSubstitute = true;
      } else {
        return;
      }

      auto &G = Groups[Inserted.expr()];
      if (G.Facts.empty() || Inserted.bound() < G.Inserted.bound()) {
        G.Inserted = Inserted;
        G.Origin = Ctx.representativeOrigin(C);
        G.Substituted = DidSubstitute;
      }
      G.Facts.push_back(CE);
    });

    // --- materialise this loop's insertions ------------------------------
    BasicBlock *PH = F.block(DL.Preheader);
    auto FindPresent = [&](const PlannedCheck &P) -> const Instruction * {
      for (const Instruction &I : PH->instructions()) {
        if (I.Op != Opcode::CondCheck || I.Check != P.Check)
          continue;
        // An existing copy whose guards are a subset of the new guards
        // fires at least as often: the new copy is redundant.
        bool Subset = true;
        for (const CheckExpr &G : I.Guards) {
          bool Found = false;
          for (const CheckExpr &NG : P.Guards)
            if (G == NG)
              Found = true;
          if (!Found) {
            Subset = false;
            break;
          }
        }
        if (Subset)
          return &I;
      }
      return nullptr;
    };

    for (auto &[FamExpr, G] : Groups) {
      (void)FamExpr;
      PlannedCheck P;
      P.Guards = {Guard};
      P.Check = G.Inserted;
      P.Origin = G.Origin;
      CheckTag SourceTag = NoCheckTag;
      if (const Instruction *Existing = FindPresent(P)) {
        SourceTag = Existing->Tag;
      } else {
        Instruction I;
        I.Op = Opcode::CondCheck;
        I.Guards = P.Guards;
        I.Check = P.Check;
        I.Origin = P.Origin;
        I.Tag = F.allocateCheckTag();
        SourceTag = I.Tag;
        if (Prov && Prov->enabled())
          Prov->record(obs::makeLifecycleEvent(
              obs::LifecycleKind::Inserted, "PreheaderInsertion", F, *PH, I,
              G.Substituted
                  ? "linear check hoisted via loop-limit substitution, "
                    "guarded by loop entry"
                  : "loop-invariant check hoisted to the preheader, "
                    "guarded by loop entry"));
        PH->insertBeforeTerminator(std::move(I));
        ++Stats.CondChecksInserted;
        ++NumCondInserted;
        if (G.Substituted) {
          ++Stats.Substituted;
          ++NumSubstituted;
        }
      }
      for (const CheckExpr &Fact : G.Facts)
        FactsOut.push_back({DL.BodyEntry, Fact, SourceTag});
    }

    // --- re-hoist conditional checks parked in inner preheaders ---------
    // A conditional check in block P inside L moves to L's preheader when
    //  (a) P is executed on every completed iteration of L: the latch is
    //      unreachable from the body entry without passing P, and no early
    //      function exit escapes P;
    //  (b) its guards are invariant in L; and
    //  (c) its check is invariant in L, or (LLS) linear in L's index /
    //      basic variable with invariant rest and substitution is safe.
    for (BlockID B : L->Blocks) {
      if (B == DL.Preheader)
        continue;
      BasicBlock *BB = F.block(B);
      for (size_t Idx = 0; Idx < BB->size();) {
        Instruction &I = BB->instructions()[Idx];
        if (I.Op != Opcode::CondCheck) {
          ++Idx;
          continue;
        }
        // (a) execution guarantee.
        if (reachesWithout(F, DL.BodyEntry, B, DL.Latch)) {
          ++Idx;
          continue;
        }
        // (b) guard invariance.
        bool GuardsInv = true;
        for (const CheckExpr &G : I.Guards)
          if (!exprInvariant(G.expr(), Defined)) {
            GuardsInv = false;
            break;
          }
        if (!GuardsInv) {
          ++Idx;
          continue;
        }
        // (c) check invariance or substitutability.
        CheckExpr Moved = I.Check;
        bool DidSubstitute = false;
        if (!exprInvariant(Moved.expr(), Defined)) {
          if (!CanSubstitute) {
            ++Idx;
            continue;
          }
          int64_t CoeffI = Moved.expr().coeff(DL.IndexVar);
          int64_t CoeffH = DL.BasicVar != InvalidSymbol
                               ? Moved.expr().coeff(DL.BasicVar)
                               : 0;
          SymbolID Var = InvalidSymbol;
          int64_t Coeff = 0;
          const LinearExpr *MinV = nullptr, *MaxV = nullptr;
          if (CoeffI != 0 && CoeffH == 0) {
            Var = DL.IndexVar;
            Coeff = CoeffI;
            MinV = &IdxMin;
            MaxV = &IdxMax;
          } else if (CoeffH != 0 && CoeffI == 0) {
            Var = DL.BasicVar;
            Coeff = CoeffH;
            MinV = &HMin;
            MaxV = &HMax;
          } else {
            ++Idx;
            continue;
          }
          LinearExpr Rest = Moved.expr();
          Rest.removeTerm(Var);
          if (!exprInvariant(Rest, Defined)) {
            ++Idx;
            continue;
          }
          Moved = CheckExpr(
              substituteExtreme(Moved.expr(), Var, Coeff, *MinV, *MaxV),
              Moved.bound());
          DidSubstitute = true;
        }

        PlannedCheck P;
        P.Guards = I.Guards;
        P.Guards.insert(P.Guards.begin(), Guard);
        P.Check = Moved;
        P.Origin = I.Origin;
        CheckTag MovedTag = I.Tag;
        std::string OldStr;
        if (Prov && Prov->enabled())
          OldStr = I.Check.str(F.symbols());

        // Remove from the inner preheader and add to ours.
        BB->instructions().erase(BB->instructions().begin() +
                                 static_cast<ptrdiff_t>(Idx));
        const Instruction *MergedInto = FindPresent(P);
        if (!MergedInto) {
          Instruction NI;
          NI.Op = Opcode::CondCheck;
          NI.Guards = P.Guards;
          NI.Check = P.Check;
          NI.Origin = P.Origin;
          NI.Tag = MovedTag;
          PH->insertBeforeTerminator(std::move(NI));
        }
        ++Stats.Rehoisted;
        ++NumRehoisted;
        if (DidSubstitute) {
          ++Stats.Substituted;
          ++NumSubstituted;
        }
        if (Prov && Prov->enabled()) {
          Instruction Shim;
          Shim.Op = Opcode::CondCheck;
          Shim.Check = P.Check;
          Shim.Origin = P.Origin;
          Shim.Tag = MovedTag;
          obs::LifecycleEvent E = obs::makeLifecycleEvent(
              obs::LifecycleKind::Moved, "PreheaderInsertion", F, *PH, Shim,
              DidSubstitute
                  ? "conditional check re-hoisted from an inner preheader "
                    "with loop-limit re-substitution"
                  : "conditional check re-hoisted from an inner preheader "
                    "(guards and check invariant in the outer loop)");
          E.Edge = OldStr;
          Prov->record(std::move(E));
          if (MergedInto) {
            obs::LifecycleEvent S = obs::makeLifecycleEvent(
                obs::LifecycleKind::SubsumedBy, "PreheaderInsertion", F,
                *PH, Shim,
                "merged into an identical conditional check already in the "
                "target preheader");
            S.OtherTag = MergedInto->Tag;
            Prov->record(std::move(S));
          }
        }
        // Note: facts recorded when the check was first inserted remain
        // valid -- the moved check still executes before the inner loop's
        // body on every path, with at-least-as-often guards.
      }
    }
  }
  return Stats;
}
