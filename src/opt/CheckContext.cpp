#include "opt/CheckContext.h"

#include "obs/StatRegistry.h"

using namespace nascent;

NASCENT_STAT(NumContexts, "opt.context.builds",
             "check-analysis contexts built");
NASCENT_STAT_HISTOGRAM(UniverseSizes, "opt.context.universe_size",
                       "check-universe size per context");
NASCENT_STAT_HISTOGRAM(FamilyCounts, "opt.context.families",
                       "check families per context");
NASCENT_STAT_HISTOGRAM(KillSetSizes, "opt.context.kill_set_size",
                       "per-block kill-set population");
NASCENT_STAT(NumCigEdges, "checks.cig.edges",
             "implication edges in built CIGs");

CheckContext::CheckContext(const Function &F, ImplicationMode Mode,
                           const std::vector<PreheaderFact> &Facts,
                           obs::TraceCollector *Trace)
    : F(F), Mode(Mode), Trace(Trace),
      U(/*FamilyPerCheck=*/Mode == ImplicationMode::None), CIG(U, Mode) {
  obs::TraceScope Scope(Trace, "cig-build");
  buildUniverse(Facts);
  buildBlockSets();
  ++NumContexts;
  UniverseSizes.record(U.size());
  FamilyCounts.record(U.numFamilies());
  NumCigEdges += CIG.numEdges();
  for (const DenseBitVector &K : Kill)
    KillSetSizes.record(K.count());
}

void CheckContext::buildUniverse(const std::vector<PreheaderFact> &Facts) {
  InstCheck.assign(F.numBlocks(), {});
  for (const auto &BB : F) {
    auto &Ids = InstCheck[BB->id()];
    Ids.assign(BB->size(), InvalidCheck);
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      if (I.Op != Opcode::Check)
        continue;
      CheckID C = U.intern(I.Check);
      Ids[Idx] = C;
      if (RepOrigin.size() <= C)
        RepOrigin.resize(C + 1);
      if (RepOrigin[C].ArrayName.empty())
        RepOrigin[C] = I.Origin;
    }
  }
  // Conditional checks participate through their facts; also intern their
  // main payloads so closures can reference them.
  for (const PreheaderFact &PF : Facts)
    StoredFacts.push_back(
      {PF.BodyEntry, U.intern(PF.Fact), PF.Source});
  RepOrigin.resize(U.size());

  GenIn.assign(F.numBlocks(), DenseBitVector(U.size()));
  for (const FactInfo &FI : StoredFacts)
    GenIn[FI.Block] |= weakerClosure(FI.Id);
}

CheckTag CheckContext::preheaderWitness(BlockID B, CheckID C) const {
  for (const FactInfo &FI : StoredFacts) {
    if (FI.Block != B || FI.Source == NoCheckTag)
      continue;
    if (FI.Id == C || weakerClosure(FI.Id).test(C))
      return FI.Source;
  }
  return NoCheckTag;
}

void CheckContext::applyKill(const Instruction &I,
                             DenseBitVector &Bits) const {
  if (I.Dest == InvalidSymbol)
    return;
  for (CheckID C : U.checksUsingSymbol(I.Dest))
    Bits.reset(C);
}

void CheckContext::applyAvailGen(BlockID B, size_t Idx, const Instruction &I,
                                 DenseBitVector &Bits) const {
  if (I.Op != Opcode::Check)
    return;
  CheckID C = InstCheck[B][Idx];
  if (C == InvalidCheck)
    return;
  Bits |= weakerClosure(C);
}

void CheckContext::applyAnticGen(BlockID B, size_t Idx, const Instruction &I,
                                 DenseBitVector &Bits) const {
  if (I.Op != Opcode::Check)
    return;
  CheckID C = InstCheck[B][Idx];
  if (C == InvalidCheck)
    return;
  Bits |= weakerClosureSameFamily(C);
}

const DenseBitVector &CheckContext::weakerClosure(CheckID C) const {
  ensureClosures();
  return ClosureCache[C];
}

const DenseBitVector &
CheckContext::weakerClosureSameFamily(CheckID C) const {
  ensureClosures();
  return FamClosureCache[C];
}

void CheckContext::ensureClosures() const {
  if (ClosuresBuilt)
    return;
  ClosuresBuilt = true;
  size_t N = U.size();
  ClosureCache.assign(N, DenseBitVector(N));
  FamClosureCache.assign(N, DenseBitVector(N));
  if (N == 0)
    return;

  if (Mode == ImplicationMode::None) {
    // Every check implies only itself; no graph walks needed.
    for (size_t C = 0; C != N; ++C) {
      ClosureCache[C].set(C);
      FamClosureCache[C].set(C);
    }
    return;
  }

  // Suffix masks over each family's bound-ascending member list:
  // Suffix[F][K] = {members K..}. "All members with bound >= T" is then a
  // binary search plus one word-parallel OR, for any threshold T.
  size_t NumFams = U.numFamilies();
  std::vector<std::vector<DenseBitVector>> Suffix(NumFams);
  for (size_t FI = 0; FI != NumFams; ++FI) {
    const std::vector<CheckID> &Members =
        U.familyMembers(static_cast<FamilyID>(FI));
    std::vector<DenseBitVector> S(Members.size() + 1, DenseBitVector(N));
    for (size_t K = Members.size(); K-- > 0;) {
      S[K] = S[K + 1];
      S[K].set(Members[K]);
    }
    Suffix[FI] = std::move(S);
  }

  auto FirstWithBoundAtLeast = [this](const std::vector<CheckID> &Members,
                                      int64_t T) {
    size_t Lo = 0, Hi = Members.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (U.check(Members[Mid]).bound() < T)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  };

  for (size_t FI = 0; FI != NumFams; ++FI) {
    const std::vector<CheckID> &Members =
        U.familyMembers(static_cast<FamilyID>(FI));
    for (size_t K = 0; K != Members.size(); ++K) {
      CheckID C = Members[K];
      int64_t BoundC = U.check(C).bound();
      if (Mode != ImplicationMode::CrossFamilyOnly) {
        // Same family: everything with a bound at least ours. (Binary
        // search instead of position K keeps duplicate bounds exact.)
        size_t Start = FirstWithBoundAtLeast(Members, BoundC);
        ClosureCache[C] |= Suffix[FI][Start];
        FamClosureCache[C] |= Suffix[FI][Start];
      }
      ClosureCache[C].set(C);
      FamClosureCache[C].set(C);
      // Cross family: members reachable with accumulated weight. The
      // reachability row is computed once per family (cached in the CIG)
      // and shared by all its members.
      CIG.forEachReachable(
          static_cast<FamilyID>(FI), [&](FamilyID FJ, int64_t Wt) {
            const std::vector<CheckID> &MJ = U.familyMembers(FJ);
            ClosureCache[C] |=
                Suffix[FJ][FirstWithBoundAtLeast(MJ, BoundC + Wt)];
          });
    }
  }
}

void CheckContext::buildBlockSets() {
  size_t N = U.size();
  Kill.assign(F.numBlocks(), DenseBitVector(N));
  AvailGen.assign(F.numBlocks(), DenseBitVector(N));
  AnticGen.assign(F.numBlocks(), DenseBitVector(N));

  for (const auto &BB : F) {
    BlockID B = BB->id();

    // Kill: union over definitions.
    for (const Instruction &I : BB->instructions()) {
      if (I.Dest == InvalidSymbol)
        continue;
      for (CheckID C : U.checksUsingSymbol(I.Dest))
        Kill[B].set(C);
    }

    // Availability gen: forward scan starting from the entry facts.
    DenseBitVector Running = GenIn[B];
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      applyKill(I, Running);
      applyAvailGen(B, Idx, I, Running);
    }
    AvailGen[B] = std::move(Running);

    // Anticipatability gen: backward scan from an empty exit set.
    DenseBitVector Back(N);
    for (size_t Idx = BB->size(); Idx-- > 0;) {
      const Instruction &I = BB->instructions()[Idx];
      applyKill(I, Back);
      applyAnticGen(B, Idx, I, Back);
    }
    AnticGen[B] = std::move(Back);
  }
}

DataflowResult CheckContext::solveAvailability() const {
  obs::TraceScope Scope(Trace, "solve-avail");
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Forward;
  P.MeetOp = DataflowProblem::Meet::Intersect;
  P.UniverseSize = U.size();
  P.Gen = AvailGen;
  P.Kill = Kill;
  return solveDataflow(F, P);
}

DataflowResult CheckContext::solveAnticipatability() const {
  obs::TraceScope Scope(Trace, "solve-antic");
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Backward;
  P.MeetOp = DataflowProblem::Meet::Intersect;
  P.UniverseSize = U.size();
  P.Gen = AnticGen;
  P.Kill = Kill;
  return solveDataflow(F, P);
}

bool CheckContext::locallyAnticipates(BlockID B, CheckID C) const {
  const BasicBlock *BB = F.block(B);
  const std::vector<CheckID> &Ids = InstCheck[B];
  for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
    const Instruction &I = BB->instructions()[Idx];
    if (I.Dest != InvalidSymbol) {
      bool Killed = false;
      for (CheckID K : U.checksUsingSymbol(I.Dest))
        if (K == C) {
          Killed = true;
          break;
        }
      if (Killed)
        return false;
    }
    if (I.Op == Opcode::Check && Ids[Idx] != InvalidCheck &&
        CIG.isAsStrongAs(Ids[Idx], C))
      return true;
  }
  return false;
}
