//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the IR structures: symbol tables, the builder, CFG edges,
/// critical-edge splitting, the printer, and the verifier.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace nascent;

namespace {

std::vector<BlockID> succIds(const BasicBlock &BB) {
  SuccessorList S = BB.successors();
  return std::vector<BlockID>(S.begin(), S.end());
}

} // namespace

TEST(SymbolTable, CreateAndLookup) {
  SymbolTable T;
  SymbolID N = T.createScalar("n", ScalarType::Int, /*IsParam=*/true);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{1, 10}, {0, 4}};
  SymbolID A = T.createArray("a", Shape);
  SymbolID Tmp = T.createTemp(ScalarType::Int);

  EXPECT_EQ(T.lookup("n"), N);
  EXPECT_EQ(T.lookup("a"), A);
  EXPECT_EQ(T.lookup("zzz"), InvalidSymbol);
  EXPECT_TRUE(T.get(N).IsParam);
  EXPECT_TRUE(T.get(A).isArray());
  EXPECT_EQ(T.get(A).Shape.rank(), 2u);
  EXPECT_EQ(T.get(A).Shape.elementCount(), 50);
  EXPECT_EQ(T.get(Tmp).Kind, SymbolKind::Temp);
  // Temps get unique printable names.
  SymbolID Tmp2 = T.createTemp(ScalarType::Int);
  EXPECT_NE(T.name(Tmp), T.name(Tmp2));
}

TEST(IRBuilder, BuildsDiamond) {
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  SymbolID X = F.symbols().createScalar("x", ScalarType::Int);

  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Else = B.createBlock("else");
  BasicBlock *Join = B.createBlock("join");

  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), Then->id(), Else->id());
  B.setInsertBlock(Then);
  B.emitCopy(X, Value::intConst(1));
  B.emitJump(Join->id());
  B.setInsertBlock(Else);
  B.emitCopy(X, Value::intConst(2));
  B.emitJump(Join->id());
  B.setInsertBlock(Join);
  B.emitRet();

  F.recomputePreds();
  EXPECT_EQ(succIds(*Entry), (std::vector<BlockID>{Then->id(),
                                                       Else->id()}));
  EXPECT_EQ(Join->preds().size(), 2u);
  EXPECT_TRUE(Join->terminator().Op == Opcode::Ret);

  DiagnosticEngine D;
  EXPECT_TRUE(verifyFunction(F, D)) << D.render();
}

TEST(BasicBlock, SuccessorsFollowTheTerminator) {
  // Order is part of the contract: RPO, the data-flow visit order and
  // every printed CFG walk follow it.
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Split = B.createBlock("split");
  BasicBlock *Same = B.createBlock("same");
  BasicBlock *Jump = B.createBlock("jump");
  BasicBlock *Ret = B.createBlock("ret");
  BasicBlock *Trap = B.createBlock("trap");
  BasicBlock *Empty = B.createBlock("empty");
  B.setInsertBlock(Split);
  B.emitBr(Value::sym(C), Trap->id(), Same->id());
  B.setInsertBlock(Same);
  B.emitBr(Value::sym(C), Jump->id(), Jump->id());
  B.setInsertBlock(Jump);
  B.emitJump(Ret->id());
  B.setInsertBlock(Ret);
  B.emitRet();
  B.setInsertBlock(Trap);
  B.emitTrap();

  SuccessorList S = Split->successors();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_FALSE(S.empty());
  EXPECT_EQ(S[0], Trap->id());
  EXPECT_EQ(S[1], Same->id());
  EXPECT_EQ(succIds(*Split), (std::vector<BlockID>{Trap->id(), Same->id()}));

  // A Br whose two targets are equal has one successor.
  EXPECT_EQ(succIds(*Same), std::vector<BlockID>{Jump->id()});
  EXPECT_EQ(Same->successors().size(), 1u);
  EXPECT_EQ(succIds(*Jump), std::vector<BlockID>{Ret->id()});

  for (const BasicBlock *BB : {Ret, Trap, Empty}) {
    EXPECT_TRUE(BB->successors().empty()) << BB->name();
    EXPECT_EQ(BB->successors().size(), 0u) << BB->name();
    EXPECT_TRUE(succIds(*BB).empty()) << BB->name();
  }
}

TEST(Function, SplitCriticalEdges) {
  // entry branches to {mid, join}; mid jumps to join: edge entry->join is
  // critical (entry has 2 succs, join has 2 preds).
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Mid = B.createBlock("mid");
  BasicBlock *Join = B.createBlock("join");
  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), Mid->id(), Join->id());
  B.setInsertBlock(Mid);
  B.emitJump(Join->id());
  B.setInsertBlock(Join);
  B.emitRet();

  size_t Before = F.numBlocks();
  unsigned NumSplit = F.splitCriticalEdges();
  EXPECT_EQ(NumSplit, 1u);
  EXPECT_EQ(F.numBlocks(), Before + 1);

  // No critical edges remain.
  F.recomputePreds();
  for (const auto &BB : F) {
    auto Succs = BB->successors();
    if (Succs.size() < 2)
      continue;
    for (BlockID S : Succs)
      EXPECT_LT(F.block(S)->preds().size(), 2u);
  }
  DiagnosticEngine D;
  EXPECT_TRUE(verifyFunction(F, D)) << D.render();
}

TEST(Verifier, CatchesMissingTerminator) {
  Function F("f");
  F.createBlock("entry"); // empty block, no terminator
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
  EXPECT_NE(D.render().find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesBadBranchTarget) {
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), 7, 8); // out-of-range targets
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
}

TEST(Verifier, CatchesNonIntegerCheckSymbol) {
  Function F("f");
  IRBuilder B(F);
  SymbolID R = F.symbols().createScalar("r", ScalarType::Real);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitCheck(CheckExpr(LinearExpr::term(R), 5));
  B.emitRet();
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
  EXPECT_NE(D.render().find("non-integer"), std::string::npos);
}

TEST(Verifier, CatchesSubscriptArity) {
  Function F("f");
  IRBuilder B(F);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{1, 4}, {1, 4}};
  SymbolID A = F.symbols().createArray("a", Shape);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitLoad(A, {Value::intConst(1)}); // rank 2 array, 1 subscript
  B.emitRet();
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
  EXPECT_NE(D.render().find("arity"), std::string::npos);
}

TEST(Verifier, ModuleChecksCallArity) {
  Module M;
  M.setEntry("main");
  Function *Main = M.createFunction("main");
  Function *Callee = M.createFunction("callee");
  Callee->params().push_back(
      Callee->symbols().createScalar("x", ScalarType::Int, true));
  {
    IRBuilder B(*Callee);
    B.setInsertBlock(B.createBlock("entry"));
    B.emitRet();
  }
  {
    IRBuilder B(*Main);
    B.setInsertBlock(B.createBlock("entry"));
    B.emitCall("callee", {}, std::nullopt); // missing argument
    B.emitRet();
  }
  DiagnosticEngine D;
  EXPECT_FALSE(verifyModule(M, D));
  EXPECT_NE(D.render().find("expected 1"), std::string::npos);
}

TEST(IRPrinter, RendersInstructions) {
  Function F("f");
  IRBuilder B(F);
  SymbolID N = F.symbols().createScalar("n", ScalarType::Int);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{5, 10}};
  SymbolID A = F.symbols().createArray("a", Shape);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitCheck(CheckExpr(LinearExpr::term(N, 2), 10));
  B.emitCondCheck({CheckExpr(LinearExpr::term(N, -2), 0)},
                  CheckExpr(LinearExpr::term(N, 2), 10));
  B.emitStore(A, {Value::sym(N)}, Value::realConst(1.5));
  B.emitRet();

  std::string Out = printFunction(F);
  EXPECT_NE(Out.find("Check(2*n <= 10)"), std::string::npos);
  EXPECT_NE(Out.find("Cond-check((-2*n <= 0), 2*n <= 10)"),
            std::string::npos);
  EXPECT_NE(Out.find("store a[n] = 1.5"), std::string::npos);
  EXPECT_NE(Out.find("ret"), std::string::npos);
}
