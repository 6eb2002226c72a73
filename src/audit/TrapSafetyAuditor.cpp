#include "audit/TrapSafetyAuditor.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "audit/CigConsistencyLint.h"
#include "opt/CheckContext.h"
#include "opt/IntervalAnalysis.h"

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace nascent;

namespace {

bool constTrue(const CheckExpr &C) {
  return C.isCompileTimeConstant() && C.evaluatesToTrue();
}
bool constFalse(const CheckExpr &C) {
  return C.isCompileTimeConstant() && !C.evaluatesToTrue();
}

/// A fails whenever B fails: same range-expression, tighter-or-equal bound.
bool asStrongAs(const CheckExpr &A, const CheckExpr &B) {
  return A.expr() == B.expr() && A.bound() <= B.bound();
}

bool valueEq(const Value &A, const Value &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case Value::Kind::None:
    return true;
  case Value::Kind::Sym:
    return A.symbol() == B.symbol();
  case Value::Kind::IntConst:
  case Value::Kind::BoolConst:
    return A.intValue() == B.intValue();
  case Value::Kind::RealConst:
    return A.realValue() == B.realValue();
  }
  return false;
}

bool valuesEq(const std::vector<Value> &A, const std::vector<Value> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (!valueEq(A[I], B[I]))
      return false;
  return true;
}

// The helpers below mirror the (file-static) ones in PreheaderInsertion.cpp;
// the auditor re-derives every side condition rather than trusting the
// optimizer's own bookkeeping.

/// Per-symbol flags over \p F's symbol table: true for each symbol some
/// instruction of \p L defines.
std::vector<bool> definedSymbols(const Function &F, const Loop &L) {
  std::vector<bool> Out(F.symbols().size(), false);
  for (BlockID B : L.Blocks)
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Dest != InvalidSymbol)
        Out[I.Dest] = true;
  return Out;
}

/// True when no symbol of \p E is in \p Defined. Symbols past its end
/// (optimized-side temporaries newer than the original's table) are not
/// defined in the original loop.
bool exprInvariant(const LinearExpr &E, const std::vector<bool> &Defined) {
  for (const auto &[Sym, Coeff] : E.terms()) {
    (void)Coeff;
    if (Sym < Defined.size() && Defined[Sym])
      return false;
  }
  return true;
}

bool everyIterationCompletes(const Function &F, const LoopInfo &LI,
                             const Loop &L) {
  for (BlockID B : L.Blocks)
    if (F.block(B)->terminator().Op == Opcode::Ret)
      return false;
  for (const Loop *Sub : LI.loopsInnermostFirst()) {
    if (Sub == &L || !L.contains(Sub->Header))
      continue;
    if (Sub->DoLoopIndex < 0)
      return false; // nested while loop: may not terminate
  }
  return true;
}

/// DFS from \p From that never enters \p Avoid; true when it reaches
/// \p Target or any Ret-terminated block.
bool reachesWithout(const Function &F, BlockID From, BlockID Avoid,
                    BlockID Target) {
  if (From == Avoid)
    return false;
  std::vector<bool> Seen(F.numBlocks(), false);
  std::vector<BlockID> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    BlockID B = Work.back();
    Work.pop_back();
    if (B == Target)
      return true;
    if (F.block(B)->terminator().Op == Opcode::Ret)
      return true;
    for (BlockID S : F.block(B)->successors()) {
      if (S == Avoid || Seen[S])
        continue;
      Seen[S] = true;
      Work.push_back(S);
    }
  }
  return false;
}

LinearExpr substituteExtreme(const LinearExpr &Expr, SymbolID Var,
                             int64_t Coeff, const LinearExpr &MinVal,
                             const LinearExpr &MaxVal) {
  LinearExpr Out = Expr;
  Out.substitute(Var, Coeff > 0 ? MaxVal : MinVal);
  return Out;
}

/// Everything the auditor needs to reason about one do-loop: its metadata,
/// natural loop, the symbols defined inside it, and whether every started
/// iteration completes (required for direction-A limit substitution).
struct LoopEnv {
  const DoLoopInfo *DL = nullptr;
  const Loop *L = nullptr;
  std::vector<bool> Defined; ///< indexed by SymbolID (definedSymbols)
  bool EveryIterCompletes = false;
};

/// "Control at the preheader's end + Req all hold there + J fails there
/// implies the original traps" — the auditor's reconstructed meaning of a
/// guarded preheader check.
struct Justification {
  CheckExpr J;
  std::vector<CheckExpr> Req;
};

/// Per-block map from gap index to the program points of the original.
/// Gap g is the run of check instructions before the g-th non-check
/// instruction (the last gap precedes the terminator).
struct GapInfo {
  std::vector<size_t> NcPos;     ///< indices of non-range-check insts
  std::vector<size_t> GapStart;  ///< first inst index of each gap
};

GapInfo computeGaps(const BasicBlock &BB) {
  GapInfo G;
  const auto &Insts = BB.instructions();
  for (size_t I = 0; I != Insts.size(); ++I)
    if (!Insts[I].isRangeCheck())
      G.NcPos.push_back(I);
  G.GapStart.resize(G.NcPos.size() + 1);
  for (size_t I = 0; I != G.NcPos.size() + 1; ++I)
    G.GapStart[I] = I == 0 ? 0 : G.NcPos[I - 1] + 1;
  return G;
}

class PairAuditor {
public:
  PairAuditor(Function &Orig, Function &Opt, const AuditOptions &Opts,
              AuditReport &Report)
      : Orig(Orig), Opt(Opt), Opts(Opts), Report(Report),
        OrigCtx(Orig, ImplicationMode::All), DTOrig(Orig), LIOrig(Orig, DTOrig),
        DTOpt(Opt) {
    Antic = OrigCtx.solveAnticipatability();
    Avail = OrigCtx.solveAvailability();
    buildLoopEnvs(Orig, DTOrig, LIOrig, EnvOrig, PreheaderLoopOrig);
    buildJustifiedAt();
  }

  void run() {
    BlockOk.assign(Orig.numBlocks(), true);
    TrapGap.assign(Orig.numBlocks(), NoTrap);
    for (BlockID B = 0; B != Orig.numBlocks(); ++B)
      auditBlockPair(B);
    for (BlockID B = Orig.numBlocks(); B < Opt.numBlocks(); ++B)
      auditNewBlock(B);
    auditCoverage();
  }

private:
  Function &Orig;
  Function &Opt;
  const AuditOptions &Opts;
  AuditReport &Report;

  CheckContext OrigCtx;
  DominatorTree DTOrig;
  LoopInfo LIOrig;
  DominatorTree DTOpt;
  DataflowResult Antic; ///< anticipatability over the original
  DataflowResult Avail; ///< availability over the original

  /// Per do-loop index of the original (the optimized CFG may have lost
  /// loops to trap truncation; all loop reasoning uses these).
  std::vector<LoopEnv> EnvOrig;
  /// Preheader block id -> do-loop index.
  std::unordered_map<BlockID, int> PreheaderLoopOrig;
  /// Per do-loop index of the original: justifications at its preheader.
  std::vector<std::vector<Justification>> JustifiedAt;

  std::vector<bool> BlockOk;
  /// For direction B: per original block, the gap index (count of matched
  /// non-checks) at which the optimized block was truncated by a Trap, or
  /// npos when it was not.
  std::vector<size_t> TrapGap;

  std::optional<IntervalCheckClassification> Intervals;

  /// Scratch reused across blocks: the running set of a block walk, and
  /// the per-gap sets of the block being audited (anticAtGaps,
  /// availAtGaps, and auditCoverage's availability at each optimized gap
  /// end).
  DenseBitVector Running;
  std::vector<DenseBitVector> AnticAtGap;
  std::vector<DenseBitVector> AvailAtGap;
  std::vector<DenseBitVector> AvailEnd;

  const IntervalCheckClassification &intervals() {
    if (!Intervals)
      Intervals = classifyChecksByIntervals(Orig);
    return *Intervals;
  }

  static void buildLoopEnvs(const Function &F, const DominatorTree &DT,
                            const LoopInfo &LI, std::vector<LoopEnv> &Envs,
                            std::unordered_map<BlockID, int> &PreheaderLoop) {
    (void)DT;
    Envs.assign(F.doLoops().size(), LoopEnv{});
    for (size_t I = 0; I != F.doLoops().size(); ++I)
      Envs[I].DL = &F.doLoops()[I];
    for (const Loop *L : LI.loopsInnermostFirst()) {
      if (L->DoLoopIndex < 0)
        continue;
      LoopEnv &E = Envs[static_cast<size_t>(L->DoLoopIndex)];
      E.L = L;
      E.Defined = definedSymbols(F, *L);
      E.EveryIterCompletes = everyIterationCompletes(F, LI, *L);
      PreheaderLoop[E.DL->Preheader] = L->DoLoopIndex;
    }
  }

  AuditFinding finding(AuditRule Rule, BlockID B, size_t Idx,
                       const Instruction &I, std::string Message) const {
    AuditFinding F;
    F.Rule = Rule;
    F.Severity = AuditSeverity::Error;
    F.FunctionName = Opt.name();
    F.Block = B;
    F.InstIndex = Idx;
    F.Loc = I.Origin.Loc.isValid() ? I.Origin.Loc : I.Loc;
    F.Scheme = placementSchemeName(Opts.Scheme);
    F.Message = std::move(Message);
    return F;
  }

  std::string checkStr(const CheckExpr &C) const {
    return C.str(Opt.symbols());
  }

  /// Transports \p CE out of do-loop \p Env by substituting the extreme
  /// value of the loop's index (or basic) variable, exactly as loop-limit
  /// substitution does — but re-deriving every side condition. Returns
  /// nullopt when the check cannot be spoken for at the preheader.
  ///
  /// \p RequireCompletion: direction A transports an anticipated body
  /// check to the preheader, which is only sound when every started
  /// iteration reaches the extreme one. Direction B transports a
  /// *performed* preheader check into the body, where the do-loop header
  /// test already bounds the index, so completion is not needed.
  std::optional<CheckExpr> transportOut(const CheckExpr &CE,
                                        const LoopEnv &Env,
                                        bool RequireCompletion) const {
    if (exprInvariant(CE.expr(), Env.Defined))
      return CE;
    const DoLoopInfo &DL = *Env.DL;
    if (DL.Step != 1 && DL.Step != -1)
      return std::nullopt;
    if (RequireCompletion && !Env.EveryIterCompletes)
      return std::nullopt;
    int64_t CI = CE.expr().coeff(DL.IndexVar);
    int64_t CB = DL.BasicVar != InvalidSymbol ? CE.expr().coeff(DL.BasicVar)
                                              : 0;
    SymbolID Var;
    int64_t Coeff;
    LinearExpr MinV, MaxV;
    LinearExpr IdxMin = DL.Step > 0 ? DL.LowerBound : DL.UpperBound;
    LinearExpr IdxMax = DL.Step > 0 ? DL.UpperBound : DL.LowerBound;
    if (CI != 0 && CB == 0) {
      Var = DL.IndexVar;
      Coeff = CI;
      MinV = IdxMin;
      MaxV = IdxMax;
    } else if (CB != 0 && CI == 0) {
      Var = DL.BasicVar;
      Coeff = CB;
      MinV = LinearExpr::constant(0);
      MaxV = DL.lastIterationIndexOffset();
    } else {
      return std::nullopt; // both or neither loop variable involved
    }
    LinearExpr Rest = CE.expr();
    Rest.removeTerm(Var);
    if (!exprInvariant(Rest, Env.Defined))
      return std::nullopt;
    LinearExpr Subst = substituteExtreme(CE.expr(), Var, Coeff, MinV, MaxV);
    if (!exprInvariant(Subst, Env.Defined))
      return std::nullopt; // bound expression redefined inside the loop
    return CheckExpr(Subst, CE.bound());
  }

  /// Builds, for every do-loop of the *original*, the set of checks whose
  /// failure at the preheader (under stated conditions) implies the
  /// original traps. Loops are visited innermost-first so inner loops'
  /// entries are ready when outer loops lift them.
  void buildJustifiedAt() {
    JustifiedAt.assign(Orig.doLoops().size(), {});
    for (const Loop *L : LIOrig.loopsInnermostFirst()) {
      if (L->DoLoopIndex < 0)
        continue;
      size_t LIdx = static_cast<size_t>(L->DoLoopIndex);
      const LoopEnv &Env = EnvOrig[LIdx];
      if (!Env.L)
        continue;
      const DoLoopInfo &DL = *Env.DL;
      CheckExpr Guard = DL.entryGuard();
      std::vector<Justification> &Out = JustifiedAt[LIdx];
      auto addEntry = [&](CheckExpr J, std::vector<CheckExpr> Req) {
        for (const Justification &E : Out)
          if (E.J == J && E.Req == Req)
            return;
        Out.push_back({std::move(J), std::move(Req)});
      };
      // Base: checks anticipated at the body entry. If the guard holds,
      // the first iteration runs the body; an anticipated check failing
      // there traps on every body path.
      if (DL.BodyEntry < Antic.In.size()) {
        const DenseBitVector &In = Antic.In[DL.BodyEntry];
        In.forEachSetBit([&](size_t Bit) {
          const CheckExpr &A = OrigCtx.universe().check(
              static_cast<CheckID>(Bit));
          // Invariant w.r.t. the header's definitions is enough: the
          // header redefines nothing (index updates live in the latch),
          // but be conservative and require full loop-invariance or a
          // valid limit substitution.
          if (exprInvariant(A.expr(), Env.Defined))
            addEntry(A, {Guard});
          if (std::optional<CheckExpr> T = transportOut(A, Env, true))
            if (!(*T == A))
              addEntry(*T, {Guard});
        });
      }
      // Lift: an inner do-loop M whose preheader is an articulation point
      // of L's body (every completing iteration passes through it)
      // forwards its own justifications, transported across L.
      for (const Loop *M : LIOrig.loopsInnermostFirst()) {
        if (M == L || M->DoLoopIndex < 0 || !L->contains(M->Header))
          continue;
        size_t MIdx = static_cast<size_t>(M->DoLoopIndex);
        const DoLoopInfo &MDL = *EnvOrig[MIdx].DL;
        if (reachesWithout(Orig, DL.BodyEntry, MDL.Preheader, DL.Latch))
          continue; // not an articulation point of L's body
        if (!Env.EveryIterCompletes)
          continue; // the first iteration might not reach M's preheader...
        for (const Justification &J2 : JustifiedAt[MIdx]) {
          bool ReqOk = true;
          for (const CheckExpr &R : J2.Req)
            if (!exprInvariant(R.expr(), Env.Defined))
              ReqOk = false;
          if (!ReqOk)
            continue;
          std::optional<CheckExpr> T = transportOut(J2.J, Env, true);
          if (!T)
            continue;
          std::vector<CheckExpr> Req = J2.Req;
          Req.push_back(Guard);
          addEntry(*T, std::move(Req));
        }
      }
    }
  }

  /// Anticipatability at each gap start of original block \p B: fills
  /// AnticAtGap[g] with the set anticipated immediately before instruction
  /// Gaps.GapStart[g] (the block's exit set when that is the block end).
  void anticAtGaps(BlockID B, const GapInfo &Gaps) {
    const auto &Insts = Orig.block(B)->instructions();
    AnticAtGap.resize(Gaps.GapStart.size());
    if (B < Antic.Out.size())
      Running = Antic.Out[B];
    else
      Running = DenseBitVector(OrigCtx.universe().size());
    size_t G = Gaps.GapStart.size();
    for (size_t I = Insts.size();; --I) {
      if (G > 0 && Gaps.GapStart[G - 1] == I)
        AnticAtGap[--G] = Running;
      if (I == 0)
        break;
      OrigCtx.applyKill(Insts[I - 1], Running);
      OrigCtx.applyAnticGen(B, I - 1, Insts[I - 1], Running);
    }
  }

  /// Availability at each gap start of original block \p B: fills
  /// AvailAtGap[g] with the set available immediately before instruction
  /// Gaps.GapStart[g].
  void availAtGaps(BlockID B, const GapInfo &Gaps) {
    const auto &Insts = Orig.block(B)->instructions();
    AvailAtGap.resize(Gaps.GapStart.size());
    if (B < Avail.In.size())
      Running = Avail.In[B];
    else
      Running = DenseBitVector(OrigCtx.universe().size());
    Running |= OrigCtx.genInBits(B);
    size_t G = 0;
    for (size_t I = 0;; ++I) {
      if (G < Gaps.GapStart.size() && Gaps.GapStart[G] == I)
        AvailAtGap[G++] = Running;
      if (I == Insts.size())
        break;
      OrigCtx.applyKill(Insts[I], Running);
      OrigCtx.applyAvailGen(B, I, Insts[I], Running);
    }
  }

  /// True when some symbol of \p E is (re)defined at or after position
  /// \p From in optimized block \p B, excluding the terminator.
  bool tailDefines(BlockID B, size_t From, const LinearExpr &E) const {
    const auto &Insts = Opt.block(B)->instructions();
    for (size_t I = From; I != Insts.size(); ++I)
      if (Insts[I].Dest != InvalidSymbol && E.references(Insts[I].Dest))
        return true;
    return false;
  }

  /// Follows split-block forwarding in the optimized CFG: a target >= the
  /// original block count that is a pure Jump block stands for its (
  /// original-id) destination. A split block truncated into a Trap keeps
  /// standing for whatever the matching original edge targeted.
  BlockID resolveOptTarget(BlockID T) const {
    size_t Guard = 0;
    while (T != InvalidBlock && T >= Orig.numBlocks() &&
           Guard++ < Opt.numBlocks()) {
      const BasicBlock *BB = Opt.block(T);
      if (BB->hasTerminator() && BB->terminator().Op == Opcode::Jump)
        T = BB->terminator().TrueTarget;
      else
        break;
    }
    return T;
  }

  /// Structural equality of two non-check instructions across the pair.
  /// Branch targets are compared modulo split-block forwarding.
  bool sameNonCheck(const Instruction &A, const Instruction &B) const {
    if (A.Op != B.Op)
      return false;
    if (A.Dest != B.Dest || A.Array != B.Array || A.Callee != B.Callee)
      return false;
    if (!valuesEq(A.Operands, B.Operands) || !valuesEq(A.Indices, B.Indices))
      return false;
    if (A.Op == Opcode::Br || A.Op == Opcode::Jump) {
      BlockID BT = resolveOptTarget(B.TrueTarget);
      // A Trap-truncated split block cannot be resolved; accept it, the
      // truncation itself was audited where the Trap sits.
      if (BT < Orig.numBlocks() && BT != A.TrueTarget)
        return false;
      if (A.Op == Opcode::Br) {
        BlockID BF = resolveOptTarget(B.FalseTarget);
        if (BF < Orig.numBlocks() && BF != A.FalseTarget)
          return false;
      }
    }
    return true;
  }

  /// Rule (a): some check anticipated at this gap's start in the original
  /// is as strong as \p C — executing C here can only trap where the
  /// original was already doomed to trap.
  bool justifiedAnticipated(const DenseBitVector &AnticGap,
                            const CheckExpr &C) const {
    bool Found = false;
    AnticGap.forEachSetBit([&](size_t Bit) {
      if (!Found &&
          asStrongAs(OrigCtx.universe().check(static_cast<CheckID>(Bit)), C))
        Found = true;
    });
    return Found;
  }

  /// Rule (c): some check the original performs on every path to this gap
  /// is as strong as \p C — C can never fire first.
  bool justifiedAvailable(const DenseBitVector &AvailGap,
                          const CheckExpr &C) const {
    bool Found = false;
    AvailGap.forEachSetBit([&](size_t Bit) {
      if (!Found &&
          asStrongAs(OrigCtx.universe().check(static_cast<CheckID>(Bit)), C))
        Found = true;
    });
    return Found;
  }

  /// Rule (b): \p Payload sits in the preheader of original do-loop
  /// \p LIdx guarded by \p Guards; check the guard chain against the
  /// reconstructed justifications. Extra guards only weaken the check.
  bool justifiedPreheader(size_t LIdx, const CheckExpr &Payload,
                          const std::vector<CheckExpr> &Guards) const {
    for (const Justification &J : JustifiedAt[LIdx]) {
      if (!asStrongAs(J.J, Payload))
        continue;
      bool ReqOk = true;
      for (const CheckExpr &R : J.Req) {
        if (constTrue(R))
          continue;
        bool Present = false;
        for (const CheckExpr &G : Guards)
          if (G == R)
            Present = true;
        if (!Present) {
          ReqOk = false;
          break;
        }
      }
      if (ReqOk)
        return true;
    }
    return false;
  }

  void auditPlainCheck(BlockID B, size_t OI, const Instruction &I,
                       const DenseBitVector &AnticGap,
                       const DenseBitVector &AvailGap) {
    ++Report.stats().ChecksAudited;
    const CheckExpr &C = I.Check;
    if (constTrue(C))
      return; // can never trap
    if (justifiedAnticipated(AnticGap, C)) {
      ++Report.stats().JustifiedAnticipated;
      return;
    }
    if (justifiedAvailable(AvailGap, C)) {
      ++Report.stats().JustifiedAvailable;
      return;
    }
    // Demoted preheader check (a CondCheck whose guards all folded to
    // true): justify it the way the CondCheck would have been. The
    // justification chain is a property of the ORIGINAL loop structure;
    // the optimized CFG may have lost the loop (a hoisted compile-time
    // false check folded into a Trap truncates the preheader), so only
    // the original's preheader map gates this path.
    if (PreheaderLoopOrig.count(B) &&
        !tailDefines(B, OI + 1, C.expr()) &&
        justifiedPreheader(static_cast<size_t>(
                               PreheaderLoopOrig.find(B)->second),
                           C, {})) {
      ++Report.stats().JustifiedPreheader;
      return;
    }
    AuditFinding F = finding(
        AuditRule::CheckNotJustified, B, OI, I,
        "residual check is neither anticipated in the original nor "
        "implied by a check the original always performs first");
    F.Witness.push_back("check: " + checkStr(C));
    F.Witness.push_back("tried: anticipated-at-gap, available-at-gap, "
                        "preheader-justification");
    Report.add(std::move(F));
  }

  void auditCondCheck(BlockID B, size_t OI, const Instruction &I,
                      const DenseBitVector &AnticGap,
                      const DenseBitVector &AvailGap) {
    ++Report.stats().CondChecksAudited;
    const CheckExpr &C = I.Check;
    if (constTrue(C))
      return;
    // A conditional check is weaker than its payload; payload-level
    // justification carries over.
    if (justifiedAnticipated(AnticGap, C)) {
      ++Report.stats().JustifiedAnticipated;
      return;
    }
    if (justifiedAvailable(AvailGap, C)) {
      ++Report.stats().JustifiedAvailable;
      return;
    }
    auto It = PreheaderLoopOrig.find(B);
    if (It == PreheaderLoopOrig.end()) {
      AuditFinding F = finding(
          AuditRule::CondCheckNotJustified, B, OI, I,
          "conditional check outside any do-loop preheader");
      F.Witness.push_back("check: " + checkStr(C));
      Report.add(std::move(F));
      return;
    }
    bool Tail = tailDefines(B, OI + 1, C.expr());
    for (const CheckExpr &G : I.Guards)
      Tail = Tail || tailDefines(B, OI + 1, G.expr());
    if (!Tail &&
        justifiedPreheader(static_cast<size_t>(It->second), C, I.Guards)) {
      ++Report.stats().JustifiedPreheader;
      return;
    }
    AuditFinding F = finding(
        AuditRule::CondCheckNotJustified, B, OI, I,
        "guarded preheader check has no reconstructible justification "
        "chain from the original's anticipated body checks");
    F.Witness.push_back("check: " + checkStr(C));
    for (const CheckExpr &G : I.Guards)
      F.Witness.push_back("guard: " + checkStr(G));
    Report.add(std::move(F));
  }

  /// \p G is the gap the trap sits in; \p NcEnd the original inst index of
  /// the non-check ending the gap (or block size for the last gap).
  void auditTrap(BlockID B, size_t OI, const Instruction &I, size_t G,
                 const GapInfo &Gaps, const DenseBitVector &AnticGap) {
    ++Report.stats().TrapsAudited;
    // (i) a check anticipated here is statically false: every original
    // continuation trips it.
    bool Found = false;
    AnticGap.forEachSetBit([&](size_t Bit) {
      if (constFalse(OrigCtx.universe().check(static_cast<CheckID>(Bit))))
        Found = true;
    });
    if (Found)
      return;
    // (ii) the interval classifier proves an original check of this gap
    // always fails.
    size_t End = G < Gaps.NcPos.size() ? Gaps.NcPos[G]
                                       : Orig.block(B)->size();
    for (size_t Idx = Gaps.GapStart[G]; Idx < End; ++Idx) {
      const Instruction &OInst = Orig.block(B)->instructions()[Idx];
      if (OInst.Op == Opcode::Check &&
          intervals().at(B, Idx) == IntervalVerdict::AlwaysFails) {
        ++Report.stats().IntervalDischarged;
        return;
      }
    }
    // (iv) preheader: a justification with statically-false check and
    // statically-true conditions proves the loop always traps.
    auto It = PreheaderLoopOrig.find(B);
    if (It != PreheaderLoopOrig.end()) {
      for (const Justification &J :
           JustifiedAt[static_cast<size_t>(It->second)]) {
        bool ReqOk = constFalse(J.J);
        for (const CheckExpr &R : J.Req)
          ReqOk = ReqOk && constTrue(R);
        if (ReqOk)
          return;
      }
    }
    AuditFinding F = finding(
        AuditRule::TrapNotJustified, B, OI, I,
        "trap instruction without a provably-failing original check at "
        "this point");
    Report.add(std::move(F));
  }

  /// Walks the optimized version of original block \p B against the
  /// original, matching non-check instructions one-to-one and auditing
  /// every check/trap in between against the gap it occupies.
  void auditBlockPair(BlockID B) {
    const BasicBlock &OB = *Orig.block(B);
    const BasicBlock &PB = *Opt.block(B);
    GapInfo Gaps = computeGaps(OB);
    anticAtGaps(B, Gaps);
    availAtGaps(B, Gaps);
    size_t RNc = 0; // non-checks matched so far == current gap index
    bool Truncated = false;
    for (size_t OI = 0; OI != PB.size(); ++OI) {
      const Instruction &I = PB.instructions()[OI];
      if (I.isRangeCheck()) {
        if (I.Op == Opcode::Check)
          auditPlainCheck(B, OI, I, AnticAtGap[RNc], AvailAtGap[RNc]);
        else
          auditCondCheck(B, OI, I, AnticAtGap[RNc], AvailAtGap[RNc]);
        continue;
      }
      if (RNc < Gaps.NcPos.size() &&
          sameNonCheck(OB.instructions()[Gaps.NcPos[RNc]], I)) {
        ++RNc;
        continue;
      }
      if (I.Op == Opcode::Trap) {
        // Compile-time-false check folded into a trap, truncating the
        // block; everything after it in the original is unreachable.
        auditTrap(B, OI, I, RNc, Gaps, AnticAtGap[RNc]);
        TrapGap[B] = RNc;
        Truncated = true;
        break;
      }
      AuditFinding F = finding(
          AuditRule::IrCorrespondence, B, OI, I,
          "optimized instruction does not correspond to the original "
          "block's instruction sequence");
      Report.add(std::move(F));
      BlockOk[B] = false;
      return;
    }
    if (!Truncated && RNc != Gaps.NcPos.size()) {
      AuditFinding F = finding(
          AuditRule::IrCorrespondence, B, PB.size(), PB.instructions().back(),
          "optimized block dropped non-check instructions of the original");
      Report.add(std::move(F));
      BlockOk[B] = false;
    }
  }

  /// Audits a block the optimizer appended (critical-edge split). Checks
  /// placed here by PRE must be anticipated at the edge's target or
  /// available out of its source, both in the original.
  void auditNewBlock(BlockID NB) {
    const BasicBlock &BB = *Opt.block(NB);
    const auto &Preds = BB.preds();
    if (Preds.empty())
      return; // unreachable (e.g. its predecessor got trap-truncated)
    BlockID From = InvalidBlock;
    if (Preds.size() == 1 && Preds[0] < Orig.numBlocks())
      From = Preds[0];
    BlockID T = InvalidBlock;
    if (From != InvalidBlock) {
      const Instruction &OT = Orig.block(From)->terminator();
      const Instruction &PT = Opt.block(From)->terminator();
      if (PT.TrueTarget == NB)
        T = OT.TrueTarget;
      else if (PT.FalseTarget == NB)
        T = OT.FalseTarget;
    }
    if (T == InvalidBlock) {
      AuditFinding F = finding(
          AuditRule::IrCorrespondence, NB, 0, BB.instructions().front(),
          "inserted block cannot be anchored to an edge of the original "
          "control-flow graph");
      Report.add(std::move(F));
      return;
    }
    const DenseBitVector &AnticT = Antic.In[T];
    const DenseBitVector &AvailFrom = Avail.Out[From];
    for (size_t OI = 0; OI != BB.size(); ++OI) {
      const Instruction &I = BB.instructions()[OI];
      switch (I.Op) {
      case Opcode::Check: {
        ++Report.stats().ChecksAudited;
        if (constTrue(I.Check))
          break;
        if (justifiedAnticipated(AnticT, I.Check)) {
          ++Report.stats().JustifiedAnticipated;
          break;
        }
        if (justifiedAvailable(AvailFrom, I.Check)) {
          ++Report.stats().JustifiedAvailable;
          break;
        }
        AuditFinding F = finding(
            AuditRule::CheckNotJustified, NB, OI, I,
            "check inserted on a split edge is not anticipated at the "
            "edge's target in the original");
        F.Witness.push_back("check: " + checkStr(I.Check));
        Report.add(std::move(F));
        break;
      }
      case Opcode::CondCheck: {
        ++Report.stats().CondChecksAudited;
        AuditFinding F = finding(
            AuditRule::CondCheckNotJustified, NB, OI, I,
            "conditional check in a split block, outside any preheader");
        Report.add(std::move(F));
        break;
      }
      case Opcode::Trap: {
        ++Report.stats().TrapsAudited;
        bool Found = false;
        AnticT.forEachSetBit([&](size_t Bit) {
          if (constFalse(
                  OrigCtx.universe().check(static_cast<CheckID>(Bit))))
            Found = true;
        });
        if (!Found) {
          AuditFinding F = finding(
              AuditRule::TrapNotJustified, NB, OI, I,
              "trap in a split block without a statically-failing check "
              "anticipated at the edge's target");
          Report.add(std::move(F));
        }
        break;
      }
      case Opcode::Jump:
        break;
      default: {
        AuditFinding F = finding(
            AuditRule::IrCorrespondence, NB, OI, I,
            "inserted block contains a non-check computation");
        Report.add(std::move(F));
        break;
      }
      }
    }
  }

  // --- Direction B: no lost traps ----------------------------------------

  /// Enumerates nesting chains of do-loops: [L1..Lt] where each next
  /// loop's preheader lies inside the previous loop. The chains come from
  /// the ORIGINAL loop structure: a trap-truncated body leaves the
  /// optimized latch unreachable and dissolves the loop in the optimized
  /// LoopInfo, yet the surviving loop-control instructions still behave
  /// exactly as the original metadata describes. Nesting depth strictly
  /// increases along a chain, so enumeration terminates.
  void enumerateChains(std::vector<size_t> &Chain,
                       std::vector<std::vector<size_t>> &Out) const {
    Out.push_back(Chain);
    const LoopEnv &Last = EnvOrig[Chain.back()];
    for (size_t M = 0; M != EnvOrig.size(); ++M) {
      if (!EnvOrig[M].L || M == Chain.back())
        continue;
      if (Last.L->contains(EnvOrig[M].DL->Preheader)) {
        Chain.push_back(M);
        enumerateChains(Chain, Out);
        Chain.pop_back();
      }
    }
  }

  /// Transports \p D from the innermost chain loop's body entry out to
  /// the head loop's preheader, substituting index extremes loop by loop.
  /// Completion is not required: at body entry the do-loop header test
  /// already confines each index to its range.
  std::optional<CheckExpr>
  chainTransport(const CheckExpr &D, const std::vector<size_t> &Chain) const {
    CheckExpr Cur = D;
    for (size_t K = Chain.size(); K-- > 0;) {
      std::optional<CheckExpr> T = transportOut(Cur, EnvOrig[Chain[K]], false);
      if (!T)
        return std::nullopt;
      Cur = *T;
    }
    return Cur;
  }

  /// Validates preheader facts over the *optimized* IR from scratch: the
  /// guarded checks actually present, plus checks the loop-entry tests
  /// themselves guarantee. These seed the direction-B availability.
  std::vector<PreheaderFact> collectFacts() {
    std::vector<PreheaderFact> Facts;
    std::unordered_map<BlockID, std::unordered_set<CheckExpr, CheckExprHash>>
        Seen;
    auto addFact = [&](BlockID Body, const CheckExpr &D) {
      if (Seen[Body].insert(D).second) {
        Facts.push_back({Body, D});
        ++Report.stats().FactsValidated;
      }
    };
    std::vector<CheckExpr> Targets;
    for (CheckID C = 0; C != OrigCtx.universe().size(); ++C)
      Targets.push_back(OrigCtx.universe().check(C));

    std::vector<std::vector<size_t>> Chains;
    for (size_t I = 0; I != EnvOrig.size(); ++I)
      if (EnvOrig[I].L) {
        std::vector<size_t> Chain{I};
        enumerateChains(Chain, Chains);
      }

    // Targets[i] transported out through the current chain.
    std::vector<std::optional<CheckExpr>> Transported(Targets.size());
    for (const std::vector<size_t> &Chain : Chains) {
      BlockID Body = EnvOrig[Chain.back()].DL->BodyEntry;
      for (size_t I = 0; I != Targets.size(); ++I)
        Transported[I] = chainTransport(Targets[I], Chain);
      // Loop-semantics facts: substituting every chained index's extreme
      // leaves a statically-true check, so the header tests alone
      // guarantee D at the innermost body entry.
      for (size_t I = 0; I != Targets.size(); ++I)
        if (Transported[I] && constTrue(*Transported[I]))
          addFact(Body, Targets[I]);
      // Instruction facts: a (guarded) check physically in the head
      // preheader covers D when its payload is as strong as D's
      // transported form and each guard is an entry guard the chain's
      // execution implies.
      BlockID P = EnvOrig[Chain.front()].DL->Preheader;
      if (!DTOpt.dominates(P, Body))
        continue;
      const BasicBlock &PB = *Opt.block(P);
      for (size_t I = 0; I != PB.size(); ++I) {
        const Instruction &Inst = PB.instructions()[I];
        if (!Inst.isRangeCheck())
          continue;
        if (tailDefines(P, I + 1, Inst.Check.expr()))
          continue;
        bool GuardsOk = true;
        for (const CheckExpr &G : Inst.Guards) {
          if (constTrue(G))
            continue;
          if (tailDefines(P, I + 1, G.expr())) {
            GuardsOk = false;
            break;
          }
          bool Match = false;
          for (size_t K = 0; K != Chain.size() && !Match; ++K) {
            if (!(G == EnvOrig[Chain[K]].DL->entryGuard()))
              continue;
            bool Inv = true;
            for (size_t J = 0; J != K; ++J)
              Inv = Inv && exprInvariant(G.expr(), EnvOrig[Chain[J]].Defined);
            Match = Inv;
          }
          if (!Match) {
            GuardsOk = false;
            break;
          }
        }
        if (!GuardsOk)
          continue;
        for (size_t T = 0; T != Targets.size(); ++T)
          if (Transported[T] && asStrongAs(Inst.Check, *Transported[T]))
            addFact(Body, Targets[T]);
      }
    }
    return Facts;
  }

  /// Direction B waiver for induction-variable elimination (Markstein):
  /// an original check inside a do-loop nest whose loop-limit substitution
  /// is compile-time true can never fire, so deleting it loses no trap.
  /// Re-derived purely from the original's loop metadata, independent of
  /// whatever reasoning the optimizer used. Header and latch blocks are
  /// excluded per loop: there the loop variables are outside the [first,
  /// last] iteration range the substitution speaks for.
  bool loopLimitAlwaysPasses(BlockID B, const CheckExpr &C) const {
    CheckExpr Cur = C;
    for (const Loop *L : LIOrig.loopsInnermostFirst()) {
      if (L->DoLoopIndex < 0 || !L->contains(B))
        continue;
      const LoopEnv &Env = EnvOrig[static_cast<size_t>(L->DoLoopIndex)];
      if (!Env.L)
        continue;
      if (exprInvariant(Cur.expr(), Env.Defined))
        continue;
      if (B == Env.DL->Header || B == Env.DL->Latch)
        return false;
      std::optional<CheckExpr> T = transportOut(Cur, Env, false);
      if (!T)
        return false;
      Cur = *T;
      if (constTrue(Cur))
        return true;
    }
    return false;
  }

  /// Direction B proper: availability over the optimized IR (seeded with
  /// validated facts) must cover every original check at its gap.
  void auditCoverage() {
    std::vector<PreheaderFact> Facts = collectFacts();
    CheckContext BCtx(Opt, ImplicationMode::All, Facts);
    if (Opts.LintCig)
      lintCheckImplicationGraph(BCtx.universe(), BCtx.cig(), Opt.name(),
                                Report);
    DataflowResult BAvail = BCtx.solveAvailability();
    for (BlockID B = 0; B != Orig.numBlocks(); ++B) {
      if (!BlockOk[B])
        continue; // correspondence already broken; findings exist
      if (!DTOpt.isReachable(B)) {
        // Every optimized path towards this block traps first (folding a
        // compile-time-false check into a Trap truncates its block and can
        // sever whole regions): the original can only reach these checks
        // along paths on which the optimized program has already trapped,
        // so the obligation is vacuous. Direction A audits that trap.
        for (const Instruction &D : Orig.block(B)->instructions())
          if (D.Op == Opcode::Check)
            ++Report.stats().OriginalChecksCovered;
        continue;
      }
      // Availability at the end of each optimized gap: AvailEnd[g] for
      // g < NumGapEnds.
      size_t NumGapEnds = 0;
      Running = BAvail.In[B];
      Running |= BCtx.genInBits(B);
      const BasicBlock &PB = *Opt.block(B);
      for (size_t I = 0; I != PB.size(); ++I) {
        const Instruction &Inst = PB.instructions()[I];
        if (!Inst.isRangeCheck()) {
          if (NumGapEnds == AvailEnd.size())
            AvailEnd.push_back(Running);
          else
            AvailEnd[NumGapEnds] = Running;
          ++NumGapEnds;
        }
        BCtx.applyKill(Inst, Running);
        BCtx.applyAvailGen(B, I, Inst, Running);
      }
      const BasicBlock &OB = *Orig.block(B);
      size_t G = 0;
      for (size_t Idx = 0; Idx != OB.size(); ++Idx) {
        const Instruction &D = OB.instructions()[Idx];
        if (!D.isRangeCheck()) {
          ++G;
          continue;
        }
        if (D.Op != Opcode::Check)
          continue; // the original carries only plain checks
        if (constTrue(D.Check)) {
          ++Report.stats().OriginalChecksCovered;
          continue;
        }
        if (TrapGap[B] != NoTrap && G >= TrapGap[B]) {
          // The optimized program traps before this point on every path
          // that reaches it; the obligation is vacuous.
          ++Report.stats().OriginalChecksCovered;
          continue;
        }
        bool Found = false;
        if (G < NumGapEnds)
          AvailEnd[G].forEachSetBit([&](size_t Bit) {
            if (!Found && asStrongAs(BCtx.universe().check(
                                         static_cast<CheckID>(Bit)),
                                     D.Check))
              Found = true;
          });
        if (Found) {
          ++Report.stats().OriginalChecksCovered;
          continue;
        }
        if (intervals().at(B, Idx) == IntervalVerdict::AlwaysPasses) {
          // Interval analysis certifies, independently of the optimizer,
          // that the check could never fire in the first place.
          ++Report.stats().IntervalDischarged;
          ++Report.stats().OriginalChecksCovered;
          continue;
        }
        if (loopLimitAlwaysPasses(B, D.Check)) {
          ++Report.stats().LimitDischarged;
          ++Report.stats().OriginalChecksCovered;
          continue;
        }
        AuditFinding F = finding(
            AuditRule::LostCheck, B, Idx, D,
            "no as-strong-or-stronger optimized check is performed on "
            "every path to this original check");
        F.Witness.push_back("check: " + checkStr(D.Check));
        Report.add(std::move(F));
      }
    }
  }

  static constexpr size_t NoTrap = ~size_t(0);
};

} // namespace

void nascent::auditFunctionPair(Function &Original, Function &Optimized,
                                const AuditOptions &Opts,
                                AuditReport &Report) {
  Original.recomputePreds();
  Optimized.recomputePreds();
  PairAuditor A(Original, Optimized, Opts, Report);
  A.run();
}

AuditReport nascent::auditModulePair(Module &Original, Module &Optimized,
                                     const AuditOptions &Opts) {
  AuditReport Report;
  for (Function *F : Original.functions()) {
    Function *O = Optimized.function(F->name());
    if (!O) {
      AuditFinding Missing;
      Missing.Rule = AuditRule::IrCorrespondence;
      Missing.FunctionName = F->name();
      Missing.Scheme = placementSchemeName(Opts.Scheme);
      Missing.Message = "function missing from the optimized module";
      Report.add(std::move(Missing));
      continue;
    }
    auditFunctionPair(*F, *O, Opts, Report);
  }
  for (Function *F : Optimized.functions())
    if (!Original.function(F->name())) {
      AuditFinding Extra;
      Extra.Rule = AuditRule::IrCorrespondence;
      Extra.FunctionName = F->name();
      Extra.Scheme = placementSchemeName(Opts.Scheme);
      Extra.Message = "function absent from the original module";
      Report.add(std::move(Extra));
    }
  return Report;
}
