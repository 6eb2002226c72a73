#include "analysis/SSA.h"

#include <cassert>

using namespace nascent;

SSA::SSA(const Function &F, const DominatorTree &DT) : F(F) {
  // Entry values for every scalar symbol.
  const SymbolTable &Syms = F.symbols();
  EntryValues.assign(Syms.size(), InvalidSSAValue);
  for (SymbolID S = 0; S != Syms.size(); ++S) {
    if (Syms.get(S).isArray())
      continue;
    SSADef D;
    D.K = SSADef::Kind::Entry;
    D.Sym = S;
    EntryValues[S] = static_cast<SSAValueID>(Defs.size());
    Defs.push_back(D);
  }

  std::vector<bool> Global;
  scanBlocks(DT, Global);
  placePhis(DT, Global);
  rename(DT);
}

/// One pass over every instruction: numbers the instructions, lays out the
/// use table, collects each symbol's definition blocks, and finds the
/// names with an upward-exposed use (\p Global).
void SSA::scanBlocks(const DominatorTree &DT, std::vector<bool> &Global) {
  const SymbolTable &Syms = F.symbols();
  size_t NumBlocks = F.numBlocks();
  size_t NumSyms = Syms.size();

  BlockInstBegin.resize(NumBlocks + 1);
  uint32_t NumInsts = 0;
  for (BlockID B = 0; B != NumBlocks; ++B) {
    BlockInstBegin[B] = NumInsts;
    NumInsts += static_cast<uint32_t>(F.block(B)->size());
  }
  BlockInstBegin[NumBlocks] = NumInsts;
  UseBegin.resize(NumInsts + 1);
  InstDefs.assign(NumInsts, InvalidSSAValue);

  Global.assign(NumSyms, false);
  // LocalDef[S] == B + 1 once S has been written earlier in block B.
  std::vector<uint32_t> LocalDef(NumSyms, 0);
  // (symbol, block) per first write of a symbol in a reachable block, in
  // ascending block order; counting-sorted by symbol below.
  std::vector<std::pair<SymbolID, BlockID>> DefSites;
  DefBlockBegin.assign(NumSyms + 1, 0);
  for (BlockID B = 0; B != NumBlocks; ++B) {
    uint32_t Stamp = B + 1;
    bool Reachable = DT.isReachable(B);
    uint32_t G = BlockInstBegin[B];
    for (const Instruction &I : F.block(B)->instructions()) {
      UseBegin[G++] = static_cast<uint32_t>(UseSyms.size());
      forEachSymbolUse(I, Syms, [&](SymbolID S) {
        UseSyms.push_back(S);
        if (LocalDef[S] != Stamp)
          Global[S] = true;
      });
      if (I.Dest == InvalidSymbol || Syms.get(I.Dest).isArray() ||
          LocalDef[I.Dest] == Stamp)
        continue;
      LocalDef[I.Dest] = Stamp;
      if (Reachable) {
        DefSites.push_back({I.Dest, B});
        ++DefBlockBegin[I.Dest + 1];
      }
    }
  }
  UseBegin[NumInsts] = static_cast<uint32_t>(UseSyms.size());
  UseVals.assign(UseSyms.size(), InvalidSSAValue);

  for (size_t S = 0; S != NumSyms; ++S)
    DefBlockBegin[S + 1] += DefBlockBegin[S];
  DefBlockList.resize(DefSites.size());
  std::vector<uint32_t> Cursor(DefBlockBegin.begin(), DefBlockBegin.end() - 1);
  for (const auto &[S, B] : DefSites)
    DefBlockList[Cursor[S]++] = B;
}

void SSA::placePhis(const DominatorTree &DT, const std::vector<bool> &Global) {
  const SymbolTable &Syms = F.symbols();
  size_t NumBlocks = F.numBlocks();
  BlockID Entry = F.entryBlock();

  // Per-block stamps (symbol + 1): block defines the symbol / has its phi.
  std::vector<uint32_t> InDefSet(NumBlocks, 0);
  std::vector<uint32_t> HasPhi(NumBlocks, 0);
  std::vector<BlockID> Work;
  // Counts phis per block first (PhiBegin[B + 1]); the running count is
  // each new phi's index within its block.
  PhiBegin.assign(NumBlocks + 1, 0);
  SSAValueID FirstPhi = static_cast<SSAValueID>(Defs.size());

  // Iterated dominance frontier per upward-exposed symbol, seeded with its
  // definition blocks and the entry (which implicitly defines everything)
  // in ascending order.
  for (SymbolID S = 0; S != Syms.size(); ++S) {
    if (Syms.get(S).isArray() || !Global[S])
      continue;
    uint32_t Stamp = S + 1;
    Work.clear();
    bool EntryListed = false;
    for (BlockID B : defBlocks(S)) {
      if (!EntryListed && Entry <= B) {
        EntryListed = true;
        if (Entry < B)
          Work.push_back(Entry);
      }
      Work.push_back(B);
    }
    if (!EntryListed)
      Work.push_back(Entry);
    for (BlockID B : Work)
      InDefSet[B] = Stamp;

    while (!Work.empty()) {
      BlockID B = Work.back();
      Work.pop_back();
      for (BlockID FB : DT.frontier(B)) {
        if (HasPhi[FB] == Stamp)
          continue;
        HasPhi[FB] = Stamp;
        SSADef D;
        D.K = SSADef::Kind::Phi;
        D.Sym = S;
        D.Block = FB;
        D.InstIdx = PhiBegin[FB + 1]++;
        Defs.push_back(D);
        if (InDefSet[FB] != Stamp)
          Work.push_back(FB);
      }
    }
  }

  // Bucket the phis by block, keeping creation order within a block, and
  // give each its predecessor-aligned slice of incoming values.
  for (size_t B = 0; B != NumBlocks; ++B)
    PhiBegin[B + 1] += PhiBegin[B];
  Phis.resize(Defs.size() - FirstPhi);
  size_t NumIncoming = 0;
  for (SSAValueID V = FirstPhi; V != Defs.size(); ++V)
    NumIncoming += F.block(Defs[V].Block)->preds().size();
  PhiIncoming.assign(NumIncoming, InvalidSSAValue);
  for (SSAValueID V = FirstPhi; V != Defs.size(); ++V) {
    SSAPhi &P = Phis[PhiBegin[Defs[V].Block] + Defs[V].InstIdx];
    P.Sym = Defs[V].Sym;
    P.Result = V;
  }
  size_t Next = 0;
  for (BlockID B = 0; B != NumBlocks; ++B) {
    size_t NumPreds = F.block(B)->preds().size();
    for (uint32_t K = PhiBegin[B]; K != PhiBegin[B + 1]; ++K) {
      Phis[K].Incoming = {PhiIncoming.data() + Next, NumPreds};
      Next += NumPreds;
    }
  }
}

void SSA::rename(const DominatorTree &DT) {
  const SymbolTable &Syms = F.symbols();
  // The reaching definition of each symbol at the current point of the
  // dominator-tree walk, and an undo log of (symbol, replaced value) that
  // restores it on the way back up.
  std::vector<SSAValueID> Current(EntryValues);
  std::vector<std::pair<SymbolID, SSAValueID>> Undo;
  auto Define = [&](SymbolID S, SSAValueID V) {
    Undo.push_back({S, Current[S]});
    Current[S] = V;
  };

  struct Frame {
    BlockID B;
    uint32_t NextChild;
    size_t UndoMark;
  };
  std::vector<Frame> Stack;

  auto Enter = [&](BlockID B) {
    Stack.push_back({B, 0, Undo.size()});
    // Phi results become current definitions.
    for (const SSAPhi &P : phisIn(B))
      Define(P.Sym, P.Result);
    // Instructions: record uses at the pre-def point, then define.
    const auto &Insts = F.block(B)->instructions();
    for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
      const Instruction &I = Insts[Idx];
      size_t G = instNumber(B, Idx);
      for (uint32_t K = UseBegin[G]; K != UseBegin[G + 1]; ++K) {
        assert(Current[UseSyms[K]] != InvalidSSAValue &&
               "symbol has no reaching definition");
        UseVals[K] = Current[UseSyms[K]];
      }
      if (I.Dest != InvalidSymbol && !Syms.get(I.Dest).isArray()) {
        SSADef D;
        D.K = SSADef::Kind::Inst;
        D.Sym = I.Dest;
        D.Block = B;
        D.InstIdx = static_cast<uint32_t>(Idx);
        SSAValueID V = static_cast<SSAValueID>(Defs.size());
        Defs.push_back(D);
        InstDefs[G] = V;
        Define(I.Dest, V);
      }
    }
    // Fill phi operands of CFG successors.
    for (BlockID S : F.block(B)->successors()) {
      const auto &Preds = F.block(S)->preds();
      size_t PI = 0;
      while (PI != Preds.size() && Preds[PI] != B)
        ++PI;
      if (PI == Preds.size())
        continue;
      for (const SSAPhi &P : phisIn(S)) {
        assert(Current[P.Sym] != InvalidSSAValue &&
               "phi operand has no definition");
        PhiIncoming[static_cast<size_t>(P.Incoming.data() -
                                        PhiIncoming.data()) +
                    PI] = Current[P.Sym];
      }
    }
  };

  Enter(F.entryBlock());
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const std::vector<BlockID> &Children = DT.children(Top.B);
    if (Top.NextChild < Children.size()) {
      Enter(Children[Top.NextChild++]);
      continue;
    }
    // Leaving: restore the definitions this block made.
    for (size_t K = Undo.size(); K != Top.UndoMark; --K)
      Current[Undo[K - 1].first] = Undo[K - 1].second;
    Undo.resize(Top.UndoMark);
    Stack.pop_back();
  }
}

SSAValueID SSA::useOfSymbol(BlockID B, size_t InstIdx, SymbolID Sym) const {
  size_t G = instNumber(B, InstIdx);
  for (uint32_t K = UseBegin[G]; K != UseBegin[G + 1]; ++K)
    if (UseSyms[K] == Sym)
      return UseVals[K];
  return InvalidSSAValue;
}
