#include "opt/CheckStrengthening.h"

#include "obs/StatRegistry.h"

using namespace nascent;

NASCENT_STAT(NumStrengthened, "opt.cs.strengthened",
             "checks replaced by a stronger family member");

StrengtheningStats
nascent::runCheckStrengthening(Function &F, const CheckContext &Ctx,
                               obs::ProvenanceRecorder *Prov) {
  StrengtheningStats Stats;
  const CheckUniverse &U = Ctx.universe();
  if (U.size() == 0)
    return Stats;

  F.recomputePreds();
  DataflowResult Antic = Ctx.solveAnticipatability();

  for (auto &BB : F) {
    BlockID B = BB->id();
    // Backward in-block scan: at each point, the current anticipatable
    // set; a check is replaced by the strongest anticipatable member of
    // its family at the point just before it.
    DenseBitVector Cur = Antic.Out[B];
    // Collect per-instruction "antic before" sets by scanning backward.
    std::vector<DenseBitVector> Before(BB->size());
    for (size_t Idx = BB->size(); Idx-- > 0;) {
      const Instruction &I = BB->instructions()[Idx];
      Ctx.applyKill(I, Cur);
      Ctx.applyAnticGen(B, Idx, I, Cur);
      Before[Idx] = Cur;
    }

    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      Instruction &I = BB->instructions()[Idx];
      if (I.Op != Opcode::Check)
        continue;
      CheckID C = Ctx.idOf(B, Idx);
      if (C == InvalidCheck)
        continue;
      FamilyID Fam = U.familyOf(C);
      // Family members are in ascending bound order: the first
      // anticipatable member is the strongest.
      for (CheckID M : U.familyMembers(Fam)) {
        if (M == C)
          break; // reached the check itself: nothing stronger anticipated
        if (U.check(M).bound() >= U.check(C).bound())
          break;
        if (Before[Idx].test(M)) {
          int64_t OldBound = I.Check.bound();
          std::string OldStr;
          if (Prov && Prov->enabled())
            OldStr = I.Check.str(F.symbols());
          I.Check = U.check(M);
          ++Stats.ChecksStrengthened;
          ++NumStrengthened;
          if (Prov && Prov->enabled()) {
            obs::LifecycleEvent E = obs::makeLifecycleEvent(
                obs::LifecycleKind::Strengthened, "CheckStrengthening", F,
                *BB, I,
                "bound tightened from " + std::to_string(OldBound) + " to " +
                    std::to_string(I.Check.bound()) +
                    "; the stronger family member is anticipated here");
            E.Edge = std::move(OldStr);
            Prov->record(std::move(E));
          }
          break;
        }
      }
    }
  }
  return Stats;
}
