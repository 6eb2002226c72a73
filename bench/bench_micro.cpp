//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the substrates: bit-vector algebra, the data-flow
/// solver on a synthetic diamond-chain CFG, check interning / implication
/// closure, the front end, and interpreter throughput. These are the
/// ablation handles for the design choices called out in DESIGN.md (dense
/// bit vectors, families-as-nodes CIG, payload-based checks).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Dataflow.h"
#include "checks/CheckImplicationGraph.h"
#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "obs/StatRegistry.h"
#include "suite/Suite.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

using namespace nascent;

namespace {

void BM_BitVectorOps(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DenseBitVector A(N), B(N);
  for (size_t I = 0; I < N; I += 3)
    A.set(I);
  for (size_t I = 0; I < N; I += 7)
    B.set(I);
  for (auto _ : State) {
    DenseBitVector C = A;
    C &= B;
    C |= A;
    C.andNot(B);
    benchmark::DoNotOptimize(C.count());
  }
}
BENCHMARK(BM_BitVectorOps)->Arg(256)->Arg(4096)->Arg(65536);

/// Builds a chain of D diamonds, each block defining one symbol and
/// (implicitly, through Gen) generating one fact.
Function *buildDiamondChain(Module &M, unsigned Diamonds) {
  Function *F = M.createFunction("chain" + std::to_string(Diamonds));
  IRBuilder B(*F);
  SymbolID Cond = F->symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Cur = B.createBlock("entry");
  B.setInsertBlock(Cur);
  for (unsigned K = 0; K != Diamonds; ++K) {
    BasicBlock *T = B.createBlock("t");
    BasicBlock *E = B.createBlock("e");
    BasicBlock *J = B.createBlock("j");
    B.emitBr(Value::sym(Cond), T->id(), E->id());
    B.setInsertBlock(T);
    B.emitJump(J->id());
    B.setInsertBlock(E);
    B.emitJump(J->id());
    B.setInsertBlock(J);
    Cur = J;
  }
  B.emitRet();
  F->recomputePreds();
  return F;
}

void BM_DataflowSolver(benchmark::State &State) {
  Module M;
  unsigned Diamonds = static_cast<unsigned>(State.range(0));
  Function *F = buildDiamondChain(M, Diamonds);
  size_t NumBlocks = F->numBlocks();
  size_t Universe = 512;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Forward;
  P.MeetOp = DataflowProblem::Meet::Intersect;
  P.UniverseSize = Universe;
  P.Gen.assign(NumBlocks, DenseBitVector(Universe));
  P.Kill.assign(NumBlocks, DenseBitVector(Universe));
  for (size_t B = 0; B != NumBlocks; ++B) {
    P.Gen[B].set(B % Universe);
    P.Kill[B].set((B * 7 + 1) % Universe);
  }
  for (auto _ : State) {
    DataflowResult R = solveDataflow(*F, P);
    benchmark::DoNotOptimize(R.Out.back().count());
  }
}
BENCHMARK(BM_DataflowSolver)->Arg(16)->Arg(128)->Arg(512);

void BM_CheckInterning(benchmark::State &State) {
  for (auto _ : State) {
    CheckUniverse U;
    for (SymbolID S = 0; S != 64; ++S)
      for (int64_t Bound = 0; Bound != 16; ++Bound) {
        LinearExpr E = LinearExpr::term(S, 2) + LinearExpr::term(S + 64, -1);
        U.intern(CheckExpr(E, Bound));
      }
    benchmark::DoNotOptimize(U.size());
  }
}
BENCHMARK(BM_CheckInterning);

void BM_ImplicationClosure(benchmark::State &State) {
  CheckUniverse U;
  std::vector<CheckID> Ids;
  for (SymbolID S = 0; S != 32; ++S)
    for (int64_t Bound = 0; Bound != 8; ++Bound)
      Ids.push_back(U.intern(CheckExpr(LinearExpr::term(S), Bound)));
  CheckImplicationGraph CIG(U);
  // A ring of implications between consecutive families.
  for (FamilyID F = 0; F + 1 < U.numFamilies(); ++F)
    CIG.addFamilyEdge(F, F + 1, 1);
  for (auto _ : State) {
    size_t Total = 0;
    for (CheckID C : Ids) {
      DenseBitVector Bits(U.size());
      CIG.weakerClosure(C, Bits);
      Total += Bits.count();
    }
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_ImplicationClosure);

void BM_FrontEnd(benchmark::State &State) {
  const SuiteProgram *P = findSuiteProgram("arc2d");
  PipelineOptions PO;
  PO.Optimize = false;
  for (auto _ : State) {
    CompileResult R = compileSource(P->Source, PO);
    benchmark::DoNotOptimize(R.Success);
  }
}
BENCHMARK(BM_FrontEnd)->Unit(benchmark::kMillisecond);

void BM_InterpreterThroughput(benchmark::State &State) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileSource(P->Source, PO);
  // cost_units/s weighs each instruction by its paper cost (a Load or
  // Store counts its address arithmetic); ops/s counts executed
  // operations, checks included, one each.
  obs::Counter &Ops = obs::StatRegistry::global().counter("interp.ops");
  uint64_t OpsBefore = Ops.value();
  uint64_t CostUnits = 0;
  for (auto _ : State) {
    ExecResult E = interpret(*R.M);
    CostUnits += E.DynInstrs + E.DynChecks;
  }
  State.counters["cost_units/s"] = benchmark::Counter(
      static_cast<double>(CostUnits), benchmark::Counter::kIsRate);
  State.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(Ops.value() - OpsBefore),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

} // namespace

// The common harness flags, translated onto google-benchmark's own by
// BenchCommon; --json captures google-benchmark's JSON document and wraps
// it in the versioned bench envelope (schemaVersion + env + config).
int main(int argc, char **argv) {
  bench::BenchFlags Flags;
  std::vector<std::string> Storage;
  if (!bench::translateGoogleBenchmarkFlags(argc, argv, Flags, Storage, {}))
    return 2;
  std::vector<char *> Args;
  for (std::string &S : Storage)
    Args.push_back(S.data());
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (!Flags.Json) {
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  std::ostringstream Captured;
  benchmark::JSONReporter Reporter;
  Reporter.SetOutputStream(&Captured);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  obs::JsonWriter W;
  bench::beginBenchDocument(W, "bench_micro", Flags);
  W.key("googleBenchmark");
  W.rawValue(Captured.str());
  bench::endBenchDocument(W);
  std::printf("%s\n", W.str().c_str());
  return 0;
}
