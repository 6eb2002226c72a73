#include "ir/Function.h"

#include <algorithm>

using namespace nascent;

BasicBlock *Function::createBlock(const std::string &NameHint) {
  BlockID ID = static_cast<BlockID>(Blocks.size());
  Blocks.push_back(std::make_unique<BasicBlock>(
      ID, NameHint + "." + std::to_string(ID)));
  return Blocks.back().get();
}

void Function::recomputePreds() {
  for (auto &B : Blocks)
    B->Preds.clear();
  for (auto &B : Blocks) {
    if (!B->hasTerminator())
      continue;
    for (BlockID Succ : B->successors())
      Blocks[Succ]->Preds.push_back(B->id());
  }
}

unsigned Function::splitCriticalEdges() {
  recomputePreds();
  unsigned NumSplit = 0;
  // Collect critical edges first; splitting adds blocks and would otherwise
  // invalidate the iteration.
  struct Edge {
    BlockID From;
    BlockID To;
  };
  std::vector<Edge> Critical;
  for (auto &B : Blocks) {
    SuccessorList Succs = B->successors();
    if (Succs.size() < 2)
      continue;
    for (BlockID S : Succs)
      if (Blocks[S]->preds().size() >= 2)
        Critical.push_back({B->id(), S});
  }
  for (const Edge &E : Critical) {
    BasicBlock *Mid = createBlock("split");
    Instruction J;
    J.Op = Opcode::Jump;
    J.TrueTarget = E.To;
    Mid->append(std::move(J));
    Instruction &T = Blocks[E.From]->terminator();
    if (T.TrueTarget == E.To)
      T.TrueTarget = Mid->id();
    if (T.FalseTarget == E.To)
      T.FalseTarget = Mid->id();
    ++NumSplit;
  }
  recomputePreds();
  return NumSplit;
}

std::unique_ptr<Function> Function::clone() const {
  auto Copy = std::make_unique<Function>(Name);
  Copy->Syms = Syms;
  Copy->Params = Params;
  Copy->ResultType = ResultType;
  Copy->DoLoops = DoLoops;
  Copy->LastCheckTag = LastCheckTag;
  Copy->Blocks.reserve(Blocks.size());
  for (const auto &B : Blocks) {
    auto NB = std::make_unique<BasicBlock>(B->id(), B->name());
    NB->Insts = B->Insts;
    NB->Preds = B->Preds;
    Copy->Blocks.push_back(std::move(NB));
  }
  return Copy;
}

std::unique_ptr<Module> Module::clone() const {
  auto Copy = std::make_unique<Module>();
  Copy->EntryName = EntryName;
  Copy->LastCheckTag = LastCheckTag;
  Copy->Funcs.reserve(Funcs.size());
  for (const auto &F : Funcs) {
    Copy->Funcs.push_back(F->clone());
    Copy->Funcs.back()->Parent = Copy.get();
  }
  return Copy;
}

Function *Module::createFunction(const std::string &Name) {
  assert(function(Name) == nullptr && "duplicate function name");
  Funcs.push_back(std::make_unique<Function>(Name));
  Funcs.back()->Parent = this;
  return Funcs.back().get();
}

Function *Module::function(const std::string &Name) {
  for (auto &F : Funcs)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

const Function *Module::function(const std::string &Name) const {
  for (const auto &F : Funcs)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

std::vector<Function *> Module::functions() {
  std::vector<Function *> Out;
  Out.reserve(Funcs.size());
  for (auto &F : Funcs)
    Out.push_back(F.get());
  return Out;
}

std::vector<const Function *> Module::functions() const {
  std::vector<const Function *> Out;
  Out.reserve(Funcs.size());
  for (const auto &F : Funcs)
    Out.push_back(F.get());
  return Out;
}
