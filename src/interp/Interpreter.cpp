#include "interp/Interpreter.h"

#include "analysis/CFGUtils.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/IRPrinter.h"
#include "obs/Profile.h"
#include "obs/StatRegistry.h"
#include "support/StringUtils.h"

#include <cmath>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <tuple>

using namespace nascent;

NASCENT_STAT(NumRuns, "interp.runs", "module executions");
NASCENT_STAT(NumDynChecks, "interp.dyn_checks",
             "range checks executed across all runs");

namespace {

/// Runtime storage of one array.
struct ArrayStorage {
  ScalarType Elem = ScalarType::Real;
  ArrayShape Shape;
  std::vector<int64_t> Ints;
  std::vector<double> Reals;

  explicit ArrayStorage(const ArrayShape &S) : Elem(S.Element), Shape(S) {
    size_t N = static_cast<size_t>(S.elementCount());
    if (Elem == ScalarType::Real)
      Reals.assign(N, 0.0);
    else
      Ints.assign(N, 0);
  }
};

/// One scalar cell; the active member follows the symbol's type.
struct Cell {
  int64_t I = 0;
  double R = 0.0;
};

/// One call frame.
struct Frame {
  const Function *F = nullptr;
  std::vector<Cell> Scalars;           ///< by SymbolID
  std::vector<ArrayStorage *> Arrays;  ///< by SymbolID (aliases for params)
  std::vector<std::unique_ptr<ArrayStorage>> Owned;

  explicit Frame(const Function &Fn) : F(&Fn) {
    Scalars.resize(Fn.symbols().size());
    Arrays.resize(Fn.symbols().size(), nullptr);
  }
};

/// The interpreter proper. The Call instruction marshals arguments into a
/// fresh frame and recurses through execute().
class Executor {
public:
  Executor(const Module &M, const InterpOptions &Opts, ExecResult &R)
      : M(M), Opts(Opts), R(R) {
    if (Opts.Profile && Opts.Profile->attached())
      Prof = Opts.Profile;
  }

  void runEntry(const Function &F) {
    Cell Dummy;
    Frame Fr = makeFrame(F);
    execute(Fr, Dummy, 0);
  }

private:
  Frame makeFrame(const Function &F) {
    Frame Fr(F);
    for (SymbolID S = 0; S != F.symbols().size(); ++S) {
      const Symbol &Sym = F.symbols().get(S);
      if (!Sym.isArray() || Sym.IsParam)
        continue;
      // A declared size beyond memory is the program's runtime error; the
      // frame stays unexecuted because the fault halts the run.
      try {
        Fr.Owned.push_back(std::make_unique<ArrayStorage>(Sym.Shape));
      } catch (const std::length_error &) {
        faultAllocation(Sym);
        break;
      } catch (const std::bad_alloc &) {
        faultAllocation(Sym);
        break;
      }
      Fr.Arrays[S] = Fr.Owned.back().get();
    }
    return Fr;
  }

  bool halted() const { return R.St != ExecResult::Status::Ok; }

  void faultAllocation(const Symbol &Array) {
    fault(ExecResult::Status::AllocationFailed,
          "cannot allocate array '" + Array.Name + "' (" +
              std::to_string(Array.Shape.elementCount()) + " elements)");
  }

  void fault(ExecResult::Status St, std::string Msg) {
    if (halted())
      return;
    R.St = St;
    R.FaultMessage = std::move(Msg);
  }

  int64_t intOf(const Frame &Fr, const Value &V) const {
    if (V.isSym())
      return Fr.Scalars[V.symbol()].I;
    return V.intValue();
  }

  double realOf(const Frame &Fr, const Value &V) const {
    if (V.isSym()) {
      const Symbol &S = Fr.F->symbols().get(V.symbol());
      if (S.Type == ScalarType::Real)
        return Fr.Scalars[V.symbol()].R;
      return static_cast<double>(Fr.Scalars[V.symbol()].I);
    }
    if (V.isRealConst())
      return V.realValue();
    return static_cast<double>(V.intValue());
  }

  bool operandIsReal(const Frame &Fr, const Value &V) const {
    if (V.isSym())
      return Fr.F->symbols().get(V.symbol()).Type == ScalarType::Real;
    return V.isRealConst();
  }

  bool checkHolds(const Frame &Fr, const CheckExpr &C) const {
    int64_t V =
        C.expr().evaluate([&](SymbolID S) { return Fr.Scalars[S].I; });
    return V <= C.bound();
  }

  std::string checkFailureMessage(const Frame &Fr, const Instruction &I) {
    std::string Msg =
        "range check failed: " + I.Check.str(Fr.F->symbols());
    if (!I.Origin.ArrayName.empty())
      Msg += " (array " + I.Origin.ArrayName + ", dim " +
             std::to_string(I.Origin.Dim + 1) +
             (I.Origin.IsUpper ? ", upper" : ", lower") + " bound, line " +
             I.Origin.Loc.str() + ")";
    return Msg;
  }

  bool flattenIndex(const Frame &Fr, const ArrayStorage &A,
                    const std::vector<Value> &Indices, size_t &Out) {
    size_t Offset = 0;
    size_t Stride = 1;
    for (size_t D = 0; D != Indices.size(); ++D) {
      int64_t Idx = intOf(Fr, Indices[D]);
      const ArrayDim &Dim = A.Shape.Dims[D];
      if (Idx < Dim.Lower || Idx > Dim.Upper)
        return false;
      Offset += static_cast<size_t>(Idx - Dim.Lower) * Stride;
      Stride *= static_cast<size_t>(Dim.extent());
    }
    Out = Offset;
    return true;
  }

  void storeScalar(Frame &Fr, SymbolID Dest, ScalarType Ty, int64_t IV,
                   double RV) {
    if (Ty == ScalarType::Real)
      Fr.Scalars[Dest].R = RV;
    else
      Fr.Scalars[Dest].I = IV;
  }

  void execute(Frame &Fr, Cell &ResultOut, unsigned Depth);

  const Module &M;
  const InterpOptions &Opts;
  ExecResult &R;
  obs::ExecutionProfile *Prof = nullptr;

public:
  /// Per-site check execution tallies (CountCheckSites only), keyed by
  /// (function, block, instruction index).
  std::map<std::tuple<const Function *, BlockID, size_t>, uint64_t>
      SiteCounts;
};

void Executor::execute(Frame &Fr, Cell &ResultOut, unsigned Depth) {
  if (Depth > Opts.MaxCallDepth) {
    fault(ExecResult::Status::CallDepthExceeded, "call depth exceeded");
    return;
  }
  const Function &F = *Fr.F;
  const SymbolTable &Syms = F.symbols();
  BlockID Cur = F.entryBlock();
  size_t Idx = 0;

  // Per-frame profiling state: loops in recursive activations count
  // independently, and the flush guard closes still-open loop entries as
  // partial no matter how the frame dies (trap, fault, in-loop return).
  size_t PFn = Prof ? Prof->functionIndex(Fr.F)
                    : obs::ExecutionProfile::NoFunction;
  obs::ExecutionProfile *P =
      PFn == obs::ExecutionProfile::NoFunction ? nullptr : Prof;
  obs::ProfileFrameState PFS;
  struct FrameFlush {
    obs::ExecutionProfile *P;
    size_t Fn;
    obs::ProfileFrameState &FS;
    ~FrameFlush() {
      if (P)
        P->flushFrame(Fn, FS);
    }
  } Flush{P, PFn, PFS};
  if (P) {
    PFS = P->makeFrameState(PFn);
    P->enterBlock(PFn, Cur, PFS);
  }

  while (!halted()) {
    const BasicBlock *BB = F.block(Cur);
    if (Idx >= BB->size()) {
      fault(ExecResult::Status::HardFault,
            "fell off the end of block bb" + std::to_string(Cur));
      return;
    }
    const Instruction &I = BB->instructions()[Idx];

    if (R.DynInstrs + R.DynChecks >= Opts.MaxSteps) {
      fault(ExecResult::Status::StepLimit, "step limit exceeded");
      return;
    }
    if (I.isRangeCheck()) {
      ++R.DynChecks;
      if (I.Op == Opcode::CondCheck)
        ++R.DynCondChecks;
      if (Opts.CountCheckSites)
        obs::saturatingInc(SiteCounts[{Fr.F, Cur, Idx}]);
    } else {
      R.DynInstrs += instructionCost(I);
    }

    switch (I.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Min:
    case Opcode::Max: {
      ScalarType Ty = Syms.get(I.Dest).Type;
      if (Ty == ScalarType::Real) {
        double A = realOf(Fr, I.Operands[0]);
        double B = realOf(Fr, I.Operands[1]);
        double Out = 0;
        switch (I.Op) {
        case Opcode::Add:
          Out = A + B;
          break;
        case Opcode::Sub:
          Out = A - B;
          break;
        case Opcode::Mul:
          Out = A * B;
          break;
        case Opcode::Div:
          Out = B == 0.0 ? 0.0 : A / B;
          break;
        case Opcode::Min:
          Out = std::min(A, B);
          break;
        case Opcode::Max:
          Out = std::max(A, B);
          break;
        default:
          break;
        }
        Fr.Scalars[I.Dest].R = Out;
      } else {
        int64_t A = intOf(Fr, I.Operands[0]);
        int64_t B = intOf(Fr, I.Operands[1]);
        int64_t Out = 0;
        switch (I.Op) {
        case Opcode::Add:
          Out = A + B;
          break;
        case Opcode::Sub:
          Out = A - B;
          break;
        case Opcode::Mul:
          Out = A * B;
          break;
        case Opcode::Div:
          if (B == 0) {
            fault(ExecResult::Status::HardFault, "integer division by zero");
            return;
          }
          Out = A / B;
          break;
        case Opcode::Mod:
          if (B == 0) {
            fault(ExecResult::Status::HardFault, "mod by zero");
            return;
          }
          Out = A % B;
          break;
        case Opcode::Min:
          Out = std::min(A, B);
          break;
        case Opcode::Max:
          Out = std::max(A, B);
          break;
        default:
          break;
        }
        Fr.Scalars[I.Dest].I = Out;
      }
      ++Idx;
      break;
    }
    case Opcode::Neg:
    case Opcode::Abs: {
      ScalarType Ty = Syms.get(I.Dest).Type;
      if (Ty == ScalarType::Real) {
        double A = realOf(Fr, I.Operands[0]);
        Fr.Scalars[I.Dest].R = I.Op == Opcode::Neg ? -A : std::fabs(A);
      } else {
        int64_t A = intOf(Fr, I.Operands[0]);
        Fr.Scalars[I.Dest].I = I.Op == Opcode::Neg ? -A : (A < 0 ? -A : A);
      }
      ++Idx;
      break;
    }
    case Opcode::CmpEQ:
    case Opcode::CmpNE:
    case Opcode::CmpLT:
    case Opcode::CmpLE:
    case Opcode::CmpGT:
    case Opcode::CmpGE: {
      bool Real = operandIsReal(Fr, I.Operands[0]) ||
                  operandIsReal(Fr, I.Operands[1]);
      bool Out = false;
      if (Real) {
        double A = realOf(Fr, I.Operands[0]);
        double B = realOf(Fr, I.Operands[1]);
        switch (I.Op) {
        case Opcode::CmpEQ:
          Out = A == B;
          break;
        case Opcode::CmpNE:
          Out = A != B;
          break;
        case Opcode::CmpLT:
          Out = A < B;
          break;
        case Opcode::CmpLE:
          Out = A <= B;
          break;
        case Opcode::CmpGT:
          Out = A > B;
          break;
        case Opcode::CmpGE:
          Out = A >= B;
          break;
        default:
          break;
        }
      } else {
        int64_t A = intOf(Fr, I.Operands[0]);
        int64_t B = intOf(Fr, I.Operands[1]);
        switch (I.Op) {
        case Opcode::CmpEQ:
          Out = A == B;
          break;
        case Opcode::CmpNE:
          Out = A != B;
          break;
        case Opcode::CmpLT:
          Out = A < B;
          break;
        case Opcode::CmpLE:
          Out = A <= B;
          break;
        case Opcode::CmpGT:
          Out = A > B;
          break;
        case Opcode::CmpGE:
          Out = A >= B;
          break;
        default:
          break;
        }
      }
      Fr.Scalars[I.Dest].I = Out ? 1 : 0;
      ++Idx;
      break;
    }
    case Opcode::And:
      Fr.Scalars[I.Dest].I =
          (intOf(Fr, I.Operands[0]) != 0 && intOf(Fr, I.Operands[1]) != 0)
              ? 1
              : 0;
      ++Idx;
      break;
    case Opcode::Or:
      Fr.Scalars[I.Dest].I =
          (intOf(Fr, I.Operands[0]) != 0 || intOf(Fr, I.Operands[1]) != 0)
              ? 1
              : 0;
      ++Idx;
      break;
    case Opcode::Not:
      Fr.Scalars[I.Dest].I = intOf(Fr, I.Operands[0]) == 0 ? 1 : 0;
      ++Idx;
      break;
    case Opcode::Copy: {
      ScalarType Ty = Syms.get(I.Dest).Type;
      if (Ty == ScalarType::Real)
        Fr.Scalars[I.Dest].R = realOf(Fr, I.Operands[0]);
      else
        Fr.Scalars[I.Dest].I = intOf(Fr, I.Operands[0]);
      ++Idx;
      break;
    }
    case Opcode::IntToReal:
      Fr.Scalars[I.Dest].R =
          static_cast<double>(intOf(Fr, I.Operands[0]));
      ++Idx;
      break;
    case Opcode::RealToInt:
      Fr.Scalars[I.Dest].I =
          static_cast<int64_t>(realOf(Fr, I.Operands[0]));
      ++Idx;
      break;
    case Opcode::Load: {
      ArrayStorage *A = Fr.Arrays[I.Array];
      if (!A) {
        fault(ExecResult::Status::HardFault, "unbound array parameter");
        return;
      }
      size_t Off = 0;
      if (!flattenIndex(Fr, *A, I.Indices, Off)) {
        fault(ExecResult::Status::HardFault,
              "out-of-bounds access on array " +
                  Syms.get(I.Array).Name +
                  " (a range check should have fired)");
        return;
      }
      if (A->Elem == ScalarType::Real)
        Fr.Scalars[I.Dest].R = A->Reals[Off];
      else
        Fr.Scalars[I.Dest].I = A->Ints[Off];
      if (P)
        P->noteAccess(PFn, I.Array, /*IsStore=*/false);
      ++Idx;
      break;
    }
    case Opcode::Store: {
      ArrayStorage *A = Fr.Arrays[I.Array];
      if (!A) {
        fault(ExecResult::Status::HardFault, "unbound array parameter");
        return;
      }
      size_t Off = 0;
      if (!flattenIndex(Fr, *A, I.Indices, Off)) {
        fault(ExecResult::Status::HardFault,
              "out-of-bounds store on array " + Syms.get(I.Array).Name +
                  " (a range check should have fired)");
        return;
      }
      if (A->Elem == ScalarType::Real)
        A->Reals[Off] = realOf(Fr, I.Operands[0]);
      else
        A->Ints[Off] = intOf(Fr, I.Operands[0]);
      if (P)
        P->noteAccess(PFn, I.Array, /*IsStore=*/true);
      ++Idx;
      break;
    }
    case Opcode::Check: {
      bool Holds = checkHolds(Fr, I.Check);
      if (P)
        P->noteCheck(PFn, Cur, static_cast<uint32_t>(Idx), !Holds);
      if (!Holds) {
        fault(ExecResult::Status::Trapped, checkFailureMessage(Fr, I));
        return;
      }
      ++Idx;
      break;
    }
    case Opcode::CondCheck: {
      bool GuardsHold = true;
      for (const CheckExpr &G : I.Guards)
        if (!checkHolds(Fr, G)) {
          GuardsHold = false;
          break;
        }
      bool Traps = GuardsHold && !checkHolds(Fr, I.Check);
      if (P)
        P->noteCheck(PFn, Cur, static_cast<uint32_t>(Idx), Traps);
      if (Traps) {
        fault(ExecResult::Status::Trapped, checkFailureMessage(Fr, I));
        return;
      }
      ++Idx;
      break;
    }
    case Opcode::Trap:
      fault(ExecResult::Status::Trapped,
            "trap instruction reached (compile-time range violation)");
      return;
    case Opcode::Br:
      Cur = intOf(Fr, I.Operands[0]) != 0 ? I.TrueTarget : I.FalseTarget;
      Idx = 0;
      if (P)
        P->enterBlock(PFn, Cur, PFS);
      break;
    case Opcode::Jump:
      Cur = I.TrueTarget;
      Idx = 0;
      if (P)
        P->enterBlock(PFn, Cur, PFS);
      break;
    case Opcode::Ret:
      if (!I.Operands.empty()) {
        if (F.resultType() == ScalarType::Real)
          ResultOut.R = realOf(Fr, I.Operands[0]);
        else
          ResultOut.I = intOf(Fr, I.Operands[0]);
      }
      return;
    case Opcode::Call: {
      const Function *Callee = M.function(I.Callee);
      if (!Callee) {
        fault(ExecResult::Status::HardFault,
              "call to unknown function " + I.Callee);
        return;
      }
      Frame Sub = makeFrame(*Callee);
      // Marshal arguments: scalars by value (with conversion), arrays by
      // reference.
      for (size_t K = 0; K != I.Operands.size(); ++K) {
        SymbolID P = Callee->params()[K];
        const Symbol &PS = Callee->symbols().get(P);
        if (PS.isArray()) {
          Sub.Arrays[P] = Fr.Arrays[I.Operands[K].symbol()];
        } else if (PS.Type == ScalarType::Real) {
          Sub.Scalars[P].R = realOf(Fr, I.Operands[K]);
        } else {
          Sub.Scalars[P].I = intOf(Fr, I.Operands[K]);
        }
      }
      Cell Result;
      execute(Sub, Result, Depth + 1);
      if (halted())
        return;
      if (I.Dest != InvalidSymbol) {
        if (Syms.get(I.Dest).Type == ScalarType::Real)
          Fr.Scalars[I.Dest].R = Result.R;
        else
          Fr.Scalars[I.Dest].I = Result.I;
      }
      ++Idx;
      break;
    }
    case Opcode::Print: {
      const Value &V = I.Operands[0];
      std::string S;
      if (operandIsReal(Fr, V))
        S = formatString("%.6g", realOf(Fr, V));
      else if (V.isSym() &&
               Syms.get(V.symbol()).Type == ScalarType::Bool)
        S = intOf(Fr, V) ? "T" : "F";
      else
        S = std::to_string(intOf(Fr, V));
      R.Output.push_back(std::move(S));
      ++Idx;
      break;
    }
    }
  }
}

} // namespace

ExecResult nascent::interpret(const Module &M, const InterpOptions &Opts) {
  ExecResult R;
  const Function *Entry = M.entry();
  if (!Entry) {
    R.St = ExecResult::Status::HardFault;
    R.FaultMessage = "module has no entry function";
    return R;
  }
  Executor E(M, Opts, R);
  E.runEntry(*Entry);
  for (const auto &[Site, Count] : E.SiteCounts) {
    const auto &[F, Block, Idx] = Site;
    R.CheckSites.push_back({F->name(), Block, static_cast<uint32_t>(Idx),
                            Count, F->block(Block)->instructions()[Idx].Tag});
  }
  if (Opts.Profile && Opts.Profile->attached())
    Opts.Profile->noteRun(R.St == ExecResult::Status::Trapped);
  ++NumRuns;
  NumDynChecks += R.DynChecks;
  return R;
}

StaticCounts nascent::countStatic(const Module &M) {
  StaticCounts C;
  for (const Function *F : M.functions()) {
    ++C.Units;
    for (const auto &BB : *F) {
      for (const Instruction &I : BB->instructions()) {
        if (I.isRangeCheck())
          ++C.Checks;
        else
          C.Instrs += instructionCost(I);
      }
    }
    Function &NonConst = const_cast<Function &>(*F);
    NonConst.recomputePreds();
    DominatorTree DT(*F);
    LoopInfo LI(*F, DT);
    C.Loops += LI.numLoops();
  }
  return C;
}
