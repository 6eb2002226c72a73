#include "analysis/SSA.h"

#include "TestHelpers.h"
#include "analysis/Dominators.h"
#include "suite/Suite.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Finds the symbol named \p Name in \p F.
SymbolID sym(const Function &F, const char *Name) {
  SymbolID S = F.symbols().lookup(Name);
  EXPECT_NE(S, InvalidSymbol) << Name;
  return S;
}

TEST(SSA, StraightLineUsesResolveToDefs) {
  CompileResult R = compileNaive(R"(
program p
  integer x, y
  x = 1
  y = x + 2
  x = y + x
  print x
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);

  // Walk the entry block: find defs of x and the use sites.
  BlockID B = F->entryBlock();
  const auto &Insts = F->block(B)->instructions();
  SymbolID X = sym(*F, "x");

  std::vector<SSAValueID> DefsOfX;
  std::vector<SSAValueID> UsesOfX;
  for (size_t I = 0; I != Insts.size(); ++I) {
    if (Insts[I].Dest == X)
      DefsOfX.push_back(S.defOf(B, I));
    SSAValueID U = S.useOfSymbol(B, I, X);
    if (U != InvalidSSAValue)
      UsesOfX.push_back(U);
  }
  ASSERT_EQ(DefsOfX.size(), 2u);
  ASSERT_GE(UsesOfX.size(), 2u);
  // The first use of x (in y = x + 2) resolves to the first def; the
  // print resolves to the second def.
  EXPECT_EQ(UsesOfX.front(), DefsOfX[0]);
  EXPECT_EQ(UsesOfX.back(), DefsOfX[1]);
}

TEST(SSA, PhiAtJoin) {
  CompileResult R = compileNaive(R"(
program p
  integer x
  logical c
  c = true
  if (c) then
    x = 1
  else
    x = 2
  end if
  print x
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);

  SymbolID X = sym(*F, "x");
  // Exactly one phi for x at a join block, with two distinct incoming
  // instruction definitions.
  unsigned PhisForX = 0;
  for (BlockID B = 0; B != F->numBlocks(); ++B) {
    for (const SSAPhi &P : S.phisIn(B)) {
      if (P.Sym != X)
        continue;
      ++PhisForX;
      ASSERT_EQ(P.Incoming.size(), 2u);
      EXPECT_NE(P.Incoming[0], P.Incoming[1]);
      for (SSAValueID V : P.Incoming)
        EXPECT_EQ(S.def(V).K, SSADef::Kind::Inst);
    }
  }
  EXPECT_EQ(PhisForX, 1u);
}

TEST(SSA, LoopHeaderPhi) {
  CompileResult R = compileNaive(R"(
program p
  integer i, s
  s = 0
  do i = 1, 5
    s = s + i
  end do
  print s
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);

  const DoLoopInfo &DL = F->doLoops()[0];
  SymbolID I = DL.IndexVar;
  // The header merges the preheader init and the latch increment of i.
  bool FoundHeaderPhi = false;
  for (const SSAPhi &P : S.phisIn(DL.Header)) {
    if (P.Sym != I)
      continue;
    FoundHeaderPhi = true;
    ASSERT_EQ(P.Incoming.size(), 2u);
    // One incoming from the preheader copy, one from the latch add.
    std::vector<SSADef::Kind> Kinds;
    std::vector<BlockID> Blocks;
    for (SSAValueID V : P.Incoming) {
      Kinds.push_back(S.def(V).K);
      Blocks.push_back(S.def(V).Block);
    }
    EXPECT_TRUE((Blocks[0] == DL.Preheader && Blocks[1] == DL.Latch) ||
                (Blocks[0] == DL.Latch && Blocks[1] == DL.Preheader));
  }
  EXPECT_TRUE(FoundHeaderPhi);

  // Uses of i inside the body resolve to the header phi.
  const auto &BodyInsts = F->block(DL.BodyEntry)->instructions();
  bool CheckedUse = false;
  for (size_t Idx = 0; Idx != BodyInsts.size(); ++Idx) {
    SSAValueID U = S.useOfSymbol(DL.BodyEntry, Idx, I);
    if (U == InvalidSSAValue)
      continue;
    EXPECT_EQ(S.def(U).K, SSADef::Kind::Phi);
    EXPECT_EQ(S.def(U).Block, DL.Header);
    CheckedUse = true;
  }
  EXPECT_TRUE(CheckedUse);
}

TEST(SSA, ParamsAndUninitialisedGetEntryValues) {
  CompileResult R = compileNaive(R"(
program p
  integer u
  print u
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);
  SymbolID U = sym(*F, "u");
  const auto &Insts = F->block(0)->instructions();
  for (size_t I = 0; I != Insts.size(); ++I) {
    SSAValueID V = S.useOfSymbol(0, I, U);
    if (V == InvalidSSAValue)
      continue;
    EXPECT_EQ(S.def(V).K, SSADef::Kind::Entry);
    EXPECT_EQ(S.def(V).Sym, U);
  }
}

TEST(SSA, CheckOperandsAreUses) {
  CompileResult R = compileNaive(R"(
program p
  real a(10)
  integer i
  i = 3
  a(i) = 1.0
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);
  SymbolID I = sym(*F, "i");
  const auto &Insts = F->block(0)->instructions();
  bool SawCheckUse = false;
  for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
    if (Insts[Idx].Op != Opcode::Check)
      continue;
    SSAValueID V = S.useOfSymbol(0, Idx, I);
    ASSERT_NE(V, InvalidSSAValue);
    EXPECT_EQ(S.def(V).K, SSADef::Kind::Inst);
    SawCheckUse = true;
  }
  EXPECT_TRUE(SawCheckUse);
}

/// Mixes a structural description of \p V (its defining site, never its
/// number) into \p H, so the digest is independent of value numbering.
void mixValue(support::StableHasher &H, const SSA &S, SSAValueID V) {
  ASSERT_NE(V, InvalidSSAValue);
  const SSADef &D = S.def(V);
  H.u64(static_cast<uint64_t>(D.K));
  H.u32(D.Sym);
  if (D.K == SSADef::Kind::Inst) {
    H.u32(D.Block);
    H.u32(D.InstIdx);
  } else if (D.K == SSADef::Kind::Phi) {
    H.u32(D.Block);
  }
}

/// Names used before any definition in the same reachable block: the only
/// names whose phis a use can read.
std::vector<bool> upwardExposedNames(const Function &F,
                                     const DominatorTree &DT) {
  std::vector<bool> Global(F.symbols().size(), false);
  for (BlockID B = 0; B != F.numBlocks(); ++B) {
    if (!DT.isReachable(B))
      continue;
    std::vector<bool> Defined(F.symbols().size(), false);
    for (const Instruction &I : F.block(B)->instructions()) {
      SSA::forEachSymbolUse(I, F.symbols(), [&](SymbolID Sym) {
        if (!Defined[Sym])
          Global[Sym] = true;
      });
      if (I.Dest != InvalidSymbol)
        Defined[I.Dest] = true;
    }
  }
  return Global;
}

TEST(SSA, SuiteGlobalPhisAndUsesAreStable) {
  // Every phi on an upward-exposed name (block, symbol and the defining
  // site of each incoming value) and the defining site every use resolves
  // to, over the whole suite after INX synthesis. Recorded with the
  // original minimal-SSA construction; phi placement may only drop phis
  // that no use can read.
  support::StableHasher H;
  for (const SuiteProgram &P : benchmarkSuite()) {
    CompileResult R = compileNaive(P.Source, CheckSource::INX);
    for (Function *F : R.M->functions()) {
      F->recomputePreds();
      DominatorTree DT(*F);
      SSA S(*F, DT);
      std::vector<bool> Global = upwardExposedNames(*F, DT);
      for (BlockID B = 0; B != F->numBlocks(); ++B) {
        if (!DT.isReachable(B))
          continue;
        for (const SSAPhi &Phi : S.phisIn(B)) {
          if (!Global[Phi.Sym])
            continue;
          H.u32(B);
          H.u32(Phi.Sym);
          for (SSAValueID V : Phi.Incoming)
            mixValue(H, S, V);
        }
        for (size_t Idx = 0; Idx != F->block(B)->size(); ++Idx)
          for (SSAValueID V : S.usesOf(B, Idx))
            mixValue(H, S, V);
      }
    }
  }
  EXPECT_EQ(H.digest().hex(), "28beb3391c0e59911a314f9b8e8b83a3");
}

TEST(SSA, BlockLocalNameGetsNoPhi) {
  // t is written in the loop body before each of its uses there, so no use
  // can read a phi for it; s and i are read across the back edge and keep
  // their header phis.
  CompileResult R = compileNaive(R"(
program p
  integer i, s, t
  s = 0
  do i = 1, 5
    t = i * 2
    s = s + t
  end do
  print s
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);
  SymbolID T = sym(*F, "t");
  const DoLoopInfo &DL = F->doLoops()[0];
  std::vector<bool> Global = upwardExposedNames(*F, DT);
  EXPECT_FALSE(Global[T]);
  for (BlockID B = 0; B != F->numBlocks(); ++B)
    for (const SSAPhi &P : S.phisIn(B)) {
      EXPECT_NE(P.Sym, T) << "phi for a block-local name in bb" << B;
      EXPECT_TRUE(Global[P.Sym]) << F->symbols().get(P.Sym).Name;
    }
  // The header keeps the phis of the names live around the loop, each
  // merging the value from before the loop with the one from its body.
  for (SymbolID Live : {sym(*F, "s"), DL.IndexVar}) {
    unsigned Found = 0;
    for (const SSAPhi &P : S.phisIn(DL.Header)) {
      if (P.Sym != Live)
        continue;
      ++Found;
      ASSERT_EQ(P.Incoming.size(), 2u);
      EXPECT_NE(P.Incoming[0], P.Incoming[1]);
      for (SSAValueID V : P.Incoming)
        EXPECT_EQ(S.def(V).K, SSADef::Kind::Inst);
    }
    EXPECT_EQ(Found, 1u) << F->symbols().get(Live).Name;
  }
  // Every use of t resolves to the definition in its own block.
  const auto &Body = F->block(DL.BodyEntry)->instructions();
  bool Checked = false;
  for (size_t Idx = 0; Idx != Body.size(); ++Idx) {
    SSAValueID V = S.useOfSymbol(DL.BodyEntry, Idx, T);
    if (V == InvalidSSAValue)
      continue;
    EXPECT_EQ(S.def(V).K, SSADef::Kind::Inst);
    EXPECT_EQ(S.def(V).Block, DL.BodyEntry);
    Checked = true;
  }
  EXPECT_TRUE(Checked);
}

TEST(SSA, SuitePhisAreOnlyOnUpwardExposedNames) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    CompileResult R = compileNaive(P.Source, CheckSource::INX);
    for (Function *F : R.M->functions()) {
      F->recomputePreds();
      DominatorTree DT(*F);
      SSA S(*F, DT);
      std::vector<bool> Global = upwardExposedNames(*F, DT);
      for (BlockID B = 0; B != F->numBlocks(); ++B)
        for (const SSAPhi &Phi : S.phisIn(B))
          EXPECT_TRUE(Global[Phi.Sym])
              << P.Name << ": phi for block-local "
              << F->symbols().get(Phi.Sym).Name << " in bb" << B;
    }
  }
}

} // namespace
