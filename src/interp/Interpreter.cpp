#include "interp/Interpreter.h"

#include "analysis/CFGUtils.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/IRPrinter.h"
#include "obs/Profile.h"
#include "obs/StatRegistry.h"
#include "support/StringUtils.h"
#include "support/Wrapping.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <unordered_map>

using namespace nascent;

NASCENT_STAT(NumRuns, "interp.runs", "module executions");
NASCENT_STAT(NumDynChecks, "interp.dyn_checks",
             "range checks executed across all runs");
NASCENT_STAT(NumOps, "interp.ops",
             "operations executed across all runs, checks included, "
             "unweighted");

namespace {

/// Runtime storage of one array.
struct ArrayStorage {
  /// One dimension's bounds and the distance, in elements, between
  /// consecutive subscripts in it (Fortran order), fixed at allocation so
  /// an access does no extent arithmetic.
  struct Dim {
    int64_t Lower = 1, Upper = 1;
    size_t Stride = 1;
  };

  ScalarType Elem = ScalarType::Real;
  std::vector<Dim> Dims;
  std::vector<int64_t> Ints;
  std::vector<double> Reals;

  explicit ArrayStorage(const ArrayShape &S) : Elem(S.Element) {
    size_t N = static_cast<size_t>(S.elementCount());
    if (Elem == ScalarType::Real)
      Reals.assign(N, 0.0);
    else
      Ints.assign(N, 0);
    size_t Stride = 1;
    for (const ArrayDim &D : S.Dims) {
      Dims.push_back({D.Lower, D.Upper, Stride});
      Stride *= static_cast<size_t>(D.extent());
    }
  }
};

/// One frame slot. A symbol's slot uses the member its type names; the
/// other stays as last written, exactly as the IR's value semantics have
/// it. A constant's slot holds the value both ways it can be read.
struct Cell {
  int64_t I = 0;
  double R = 0.0;
};

/// Decoded opcodes: the IR opcodes specialised by the operand and result
/// types resolved at decode time (the I and R forms follow the IR opcode
/// order). The R forms read real-valued slots: real symbols and all
/// constants, or the slot a Convert op fills when an integer symbol is
/// read as a real (the front end converts explicitly, so only hand-built
/// IR needs one). Load and Store follow the element type of the storage
/// they reach, which for an array parameter is the caller's.
///
/// The decoder's last step adds the specialised and fused forms after
/// FellOff: Check1 is a Check of one term; the fused forms run two
/// adjacent ops of one block (an integer compare and the Br reading it,
/// two Check1s, an AddI and a Jump) in one dispatch.
#define NASCENT_XOPS(X)                                                        \
  X(AddI) X(SubI) X(MulI) X(DivI) X(ModI) X(NegI) X(MinI) X(MaxI) X(AbsI)      \
  X(AddR) X(SubR) X(MulR) X(DivR) X(ModR) X(NegR) X(MinR) X(MaxR) X(AbsR)      \
  X(EqI) X(NeI) X(LtI) X(LeI) X(GtI) X(GeI)                                    \
  X(EqR) X(NeR) X(LtR) X(LeR) X(GtR) X(GeR)                                    \
  X(And) X(Or) X(Not)                                                          \
  X(CopyI) X(CopyR) X(IntToReal) X(RealToInt)                                  \
  X(Convert) /* D = A read both ways; inserted by the decoder, uncounted */    \
  X(Load) X(Store)                                                             \
  X(Check) X(CondCheck) X(Trap)                                                \
  X(Br) X(Jump) X(Ret) X(RetI) X(RetR)                                         \
  X(Call) X(CallUnknown)                                                       \
  X(PrintI) X(PrintR) X(PrintB)                                                \
  X(FellOff) /* the sentinel ending every block */                            \
  X(Check1)                                                                    \
  X(EqIBr) X(NeIBr) X(LtIBr) X(LeIBr) X(GtIBr) X(GeIBr)                        \
  X(Check1Pair) X(AddIJump)

enum class XOp : uint8_t {
#define NASCENT_XOP_ENUM(Name) Name,
  NASCENT_XOPS(NASCENT_XOP_ENUM)
#undef NASCENT_XOP_ENUM
};
static_assert(static_cast<unsigned>(XOp::GeIBr) -
                      static_cast<unsigned>(XOp::EqIBr) ==
                  static_cast<unsigned>(XOp::GeI) -
                      static_cast<unsigned>(XOp::EqI),
              "the compare-branch forms follow the compare order");

/// One decoded operation. Operands are frame-slot indices: symbols keep
/// their SymbolID, constants live in the slots after them. The site
/// coordinates (Block, Index, Tag) name the IR instruction the op came
/// from, for fault messages, the profiler, and check-site counts.
///
/// A fused op stands in place of the first op of its pair and carries
/// that op's operands, cost and site; the second op stays unchanged right
/// after it, and the fused handler reads the second half from there.
struct Op {
  XOp Code = XOp::FellOff;
  /// instructionCost; 1 for checks, 0 for Convert and FellOff.
  uint32_t Cost = 0;
  /// Arithmetic and compares: D = A op B. Load: D = array A, rank B,
  /// subscripts at X. Store: value D into array A, rank B, subscripts at
  /// X. Check: check record X. CondCheck: check record X, B guard records
  /// after it. Check1: Coeff * A <= Bound. Br: on A to op D, else op B.
  /// Jump: to op D. RetI/RetR, Print: A. Call: call site X.
  uint32_t D = 0, A = 0, B = 0, X = 0;
  int64_t Coeff = 0, Bound = 0;
  BlockID Block = 0;
  uint32_t Index = 0;
  CheckTag Tag = NoCheckTag;
};

/// One canonical check "sum of terms <= Bound", its terms a range of the
/// function's term array.
struct CheckRecord {
  uint32_t TermBegin = 0, TermEnd = 0;
  int64_t Bound = 0;
};

/// How one call argument reaches its parameter.
struct ArgMove {
  enum Kind : uint8_t { Array, Int, Real } K = Int;
  uint32_t From = 0; ///< caller slot (caller array symbol for Array)
  SymbolID To = 0;   ///< callee parameter
};

struct DecodedFunction;

struct CallSite {
  const Function *Callee = nullptr;
  DecodedFunction *Decoded = nullptr; ///< the callee's, from its first call
  uint32_t ArgBegin = 0, ArgEnd = 0;
  SymbolID Dest = InvalidSymbol;
  bool DestReal = false;
};

/// A function decoded for execution: one op array with a FellOff sentinel
/// after each block, plus the side tables the ops index.
struct DecodedFunction {
  const Function *F = nullptr;
  std::vector<Op> Ops;
  uint32_t EntryPc = 0;
  std::vector<uint32_t> Subscripts; ///< Load/Store subscript slots
  std::vector<std::pair<uint32_t, int64_t>> Terms; ///< (slot, coeff)
  std::vector<CheckRecord> Checks;
  std::vector<CallSite> Calls;
  std::vector<ArgMove> Args;
  /// A fresh frame's slots: zeroed symbols, then the constants and the
  /// Convert results.
  std::vector<Cell> InitialSlots;
  /// Non-parameter arrays, allocated per frame in symbol order.
  std::vector<SymbolID> LocalArrays;
  /// Index into the attached profile's functions (NoFunction when none).
  size_t ProfileFn = obs::ExecutionProfile::NoFunction;
  /// Check executions per op (CountCheckSites only).
  std::vector<uint64_t> SiteHits;
};

/// One call frame.
struct Frame {
  std::vector<Cell> Slots;
  std::vector<ArrayStorage *> Arrays; ///< by SymbolID (aliases for params)
  std::vector<std::unique_ptr<ArrayStorage>> Owned;
};

/// The dynamic counters. Steps is DynInstrs + DynChecks; the threaded loop
/// keeps it in a local, written back whenever the loop returns, and
/// updates the others in place.
///
/// The operations executed (interp.ops) are not counted one by one: every
/// op costs 1 except Load and Store, which cost 1 + 2 x rank, and the
/// uncounted Convert and FellOff, which cost 0 (the decoder asserts it).
/// So the ops are the steps less the address arithmetic Load and Store
/// charge, which they add to Address; a dispatch does one add, not two.
struct Counters {
  uint64_t Steps = 0;
  uint64_t Checks = 0;
  uint64_t CondChecks = 0;
  uint64_t Address = 0;

  uint64_t ops() const { return Steps - Address; }
};

/// Translates one function's IR into its DecodedFunction.
class Decoder {
public:
  Decoder(const Module &M, DecodedFunction &DF)
      : M(M), F(*DF.F), Syms(F.symbols()), DF(DF) {}

  void run() {
    DF.InitialSlots.resize(Syms.size());
    for (SymbolID S = 0; S != Syms.size(); ++S)
      if (Syms.get(S).isArray() && !Syms.get(S).IsParam)
        DF.LocalArrays.push_back(S);

    std::vector<uint32_t> BlockStart(F.numBlocks());
    for (BlockID B = 0; B != F.numBlocks(); ++B) {
      BlockStart[B] = static_cast<uint32_t>(DF.Ops.size());
      const auto &Instrs = F.block(B)->instructions();
      for (uint32_t Idx = 0; Idx != Instrs.size(); ++Idx) {
        size_t First = DF.Ops.size();
        Op O = decode(Instrs[Idx]); // may emit Convert ops first
        O.Cost = static_cast<uint32_t>(instructionCost(Instrs[Idx]));
        assert((O.Cost == 1 || O.Code == XOp::Load || O.Code == XOp::Store) &&
               "Counters::ops() assumes unit cost");
        O.Tag = Instrs[Idx].Tag;
        DF.Ops.push_back(O);
        for (size_t K = First; K != DF.Ops.size(); ++K) {
          DF.Ops[K].Block = B;
          DF.Ops[K].Index = Idx;
        }
      }
      Op End;
      End.Block = B;
      End.Index = static_cast<uint32_t>(Instrs.size());
      DF.Ops.push_back(End);
    }
    if (DF.Ops.empty())
      DF.Ops.push_back(Op()); // no blocks: fall off bb0
    // Branch targets were decoded as block ids.
    for (Op &O : DF.Ops) {
      if (O.Code == XOp::Br || O.Code == XOp::Jump)
        O.D = BlockStart[O.D];
      if (O.Code == XOp::Br)
        O.B = BlockStart[O.B];
    }
    DF.EntryPc = BlockStart.empty() ? 0 : BlockStart[F.entryBlock()];
    fuse();
  }

private:
  /// The last decode step, a peephole over each block: a Check of one
  /// term becomes a Check1, which holds its term and bound itself, and
  /// each fusable pair of adjacent ops (see fused()) becomes one op. The
  /// fused op replaces the first of the pair; the second stays in place,
  /// unfused, so the step limit can stop between the halves and leave the
  /// second to run as its own op.
  void fuse() {
    for (Op &O : DF.Ops) {
      if (O.Code != XOp::Check)
        continue;
      const CheckRecord &Rec = DF.Checks[O.X];
      if (Rec.TermEnd - Rec.TermBegin != 1)
        continue;
      O.Code = XOp::Check1;
      O.A = DF.Terms[Rec.TermBegin].first;
      O.Coeff = DF.Terms[Rec.TermBegin].second;
      O.Bound = Rec.Bound;
    }
    for (size_t K = 0; K + 1 < DF.Ops.size(); ++K) {
      Op &First = DF.Ops[K];
      const Op &Second = DF.Ops[K + 1];
      if (First.Block != Second.Block)
        continue;
      XOp Fused = fused(First, Second);
      if (Fused != First.Code) {
        First.Code = Fused;
        ++K; // a second half is never the first half of another pair
      }
    }
  }

  /// The fused form of \p First followed by \p Second, or First's own
  /// code when the pair does not fuse.
  static XOp fused(const Op &First, const Op &Second) {
    switch (First.Code) {
    case XOp::EqI:
    case XOp::NeI:
    case XOp::LtI:
    case XOp::LeI:
    case XOp::GtI:
    case XOp::GeI:
      if (Second.Code == XOp::Br && Second.A == First.D)
        return static_cast<XOp>(static_cast<unsigned>(XOp::EqIBr) +
                                (static_cast<unsigned>(First.Code) -
                                 static_cast<unsigned>(XOp::EqI)));
      break;
    case XOp::Check1:
      if (Second.Code == XOp::Check1)
        return XOp::Check1Pair;
      break;
    case XOp::AddI:
      if (Second.Code == XOp::Jump)
        return XOp::AddIJump;
      break;
    default:
      break;
    }
    return First.Code;
  }

  /// The slot holding \p V; constants get one slot per distinct value.
  uint32_t slot(const Value &V) {
    if (V.isSym())
      return V.symbol();
    Cell C;
    if (V.isRealConst()) {
      C.R = V.realValue();
    } else if (V.isIntConst() || V.isBoolConst()) {
      C.I = V.intValue();
      C.R = static_cast<double>(C.I);
    }
    uint64_t RBits;
    std::memcpy(&RBits, &C.R, sizeof RBits);
    auto [It, New] = ConstSlots.try_emplace(
        {C.I, RBits}, static_cast<uint32_t>(DF.InitialSlots.size()));
    if (New)
      DF.InitialSlots.push_back(C);
    return It->second;
  }

  /// The slot holding \p V read as a real: an integer symbol is converted
  /// into a slot of its own by a Convert op emitted ahead of its reader.
  uint32_t realSlot(const Value &V) {
    if (!V.isSym() || Syms.get(V.symbol()).Type == ScalarType::Real)
      return slot(V);
    Op C;
    C.Code = XOp::Convert;
    C.A = V.symbol();
    C.D = static_cast<uint32_t>(DF.InitialSlots.size());
    DF.InitialSlots.emplace_back();
    DF.Ops.push_back(C);
    return C.D;
  }

  bool isReal(const Value &V) const {
    return V.isSym() ? Syms.get(V.symbol()).Type == ScalarType::Real
                     : V.isRealConst();
  }

  bool destReal(const Instruction &I) const {
    return Syms.get(I.Dest).Type == ScalarType::Real;
  }

  uint32_t addCheck(const CheckExpr &C) {
    assert(C.expr().constantPart() == 0 && "check not in canonical form");
    CheckRecord Rec;
    Rec.TermBegin = static_cast<uint32_t>(DF.Terms.size());
    for (const auto &[Sym, Coeff] : C.expr().terms())
      DF.Terms.push_back({Sym, Coeff});
    Rec.TermEnd = static_cast<uint32_t>(DF.Terms.size());
    Rec.Bound = C.bound();
    DF.Checks.push_back(Rec);
    return static_cast<uint32_t>(DF.Checks.size() - 1);
  }

  uint32_t addSubscripts(const std::vector<Value> &Indices) {
    uint32_t Begin = static_cast<uint32_t>(DF.Subscripts.size());
    for (const Value &V : Indices)
      DF.Subscripts.push_back(slot(V));
    return Begin;
  }

  static XOp pick(Opcode Op, Opcode First, XOp FirstX) {
    return static_cast<XOp>(static_cast<unsigned>(FirstX) +
                            (static_cast<unsigned>(Op) -
                             static_cast<unsigned>(First)));
  }

  /// Sets \p O's operands to \p I's, read as reals when \p Real.
  void operands(Op &O, const Instruction &I, bool Real) {
    O.A = Real ? realSlot(I.Operands[0]) : slot(I.Operands[0]);
    O.B = I.Operands.size() < 2 ? O.A
          : Real                ? realSlot(I.Operands[1])
                                : slot(I.Operands[1]);
  }

  Op decode(const Instruction &I) {
    Op O;
    O.D = I.Dest;
    switch (I.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Neg:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::Abs: {
      bool Real = destReal(I);
      operands(O, I, Real);
      O.Code = pick(I.Op, Opcode::Add, Real ? XOp::AddR : XOp::AddI);
      break;
    }
    case Opcode::CmpEQ:
    case Opcode::CmpNE:
    case Opcode::CmpLT:
    case Opcode::CmpLE:
    case Opcode::CmpGT:
    case Opcode::CmpGE: {
      // One real operand makes the compare real.
      bool Real = isReal(I.Operands[0]) || isReal(I.Operands[1]);
      operands(O, I, Real);
      O.Code = pick(I.Op, Opcode::CmpEQ, Real ? XOp::EqR : XOp::EqI);
      break;
    }
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Not:
    case Opcode::IntToReal:
      operands(O, I, false);
      O.Code = I.Op == Opcode::And   ? XOp::And
               : I.Op == Opcode::Or  ? XOp::Or
               : I.Op == Opcode::Not ? XOp::Not
                                     : XOp::IntToReal;
      break;
    case Opcode::RealToInt:
      operands(O, I, true);
      O.Code = XOp::RealToInt;
      break;
    case Opcode::Copy: {
      bool Real = destReal(I);
      operands(O, I, Real);
      O.Code = Real ? XOp::CopyR : XOp::CopyI;
      break;
    }
    case Opcode::Load:
    case Opcode::Store:
      O.Code = I.Op == Opcode::Load ? XOp::Load : XOp::Store;
      O.A = I.Array;
      O.B = static_cast<uint32_t>(I.Indices.size());
      O.X = addSubscripts(I.Indices);
      // A Store's storage decides whether the value is read as an
      // integer or a real; a converted slot serves both.
      if (I.Op == Opcode::Store)
        O.D = realSlot(I.Operands[0]);
      break;
    case Opcode::Check:
      O.Code = XOp::Check;
      O.X = addCheck(I.Check);
      break;
    case Opcode::CondCheck:
      O.Code = XOp::CondCheck;
      O.X = addCheck(I.Check);
      for (const CheckExpr &G : I.Guards)
        addCheck(G);
      O.B = static_cast<uint32_t>(I.Guards.size());
      break;
    case Opcode::Trap:
      O.Code = XOp::Trap;
      break;
    case Opcode::Br:
      O.Code = XOp::Br;
      O.A = slot(I.Operands[0]);
      O.D = I.TrueTarget;
      O.B = I.FalseTarget;
      break;
    case Opcode::Jump:
      O.Code = XOp::Jump;
      O.D = I.TrueTarget;
      break;
    case Opcode::Ret:
      if (I.Operands.empty()) {
        O.Code = XOp::Ret;
      } else if (F.resultType() == ScalarType::Real) {
        O.Code = XOp::RetR;
        O.A = realSlot(I.Operands[0]);
      } else {
        O.Code = XOp::RetI;
        O.A = slot(I.Operands[0]);
      }
      break;
    case Opcode::Call: {
      const Function *Callee = M.function(I.Callee);
      if (!Callee) {
        O.Code = XOp::CallUnknown;
        break;
      }
      O.Code = XOp::Call;
      O.X = static_cast<uint32_t>(DF.Calls.size());
      CallSite CS;
      CS.Callee = Callee;
      CS.ArgBegin = static_cast<uint32_t>(DF.Args.size());
      for (size_t K = 0; K != I.Operands.size(); ++K) {
        ArgMove A;
        A.To = Callee->params()[K];
        const Symbol &PS = Callee->symbols().get(A.To);
        if (PS.isArray()) {
          A.K = ArgMove::Array;
          A.From = I.Operands[K].symbol();
        } else if (PS.Type == ScalarType::Real) {
          A.K = ArgMove::Real;
          A.From = realSlot(I.Operands[K]);
        } else {
          A.K = ArgMove::Int;
          A.From = slot(I.Operands[K]);
        }
        DF.Args.push_back(A);
      }
      CS.ArgEnd = static_cast<uint32_t>(DF.Args.size());
      CS.Dest = I.Dest;
      CS.DestReal = I.Dest != InvalidSymbol && destReal(I);
      DF.Calls.push_back(CS);
      break;
    }
    case Opcode::Print: {
      const Value &V = I.Operands[0];
      O.A = slot(V);
      if (isReal(V))
        O.Code = XOp::PrintR;
      else if (V.isSym() && Syms.get(V.symbol()).Type == ScalarType::Bool)
        O.Code = XOp::PrintB;
      else
        O.Code = XOp::PrintI;
      break;
    }
    }
    return O;
  }

  const Module &M;
  const Function &F;
  const SymbolTable &Syms;
  DecodedFunction &DF;
  std::map<std::pair<int64_t, uint64_t>, uint32_t> ConstSlots;
};

/// The interpreter proper: decodes each function on its first call and
/// runs the decoded ops. The Call op marshals arguments into a fresh
/// frame and recurses through run().
class Executor {
public:
  Executor(const Module &M, const InterpOptions &Opts, ExecResult &R)
      : M(M), Opts(Opts), R(R) {
    if (Opts.Profile && Opts.Profile->attached())
      Prof = Opts.Profile;
  }

  void runEntry(const Function &F) {
    DecodedFunction &DF = decoded(&F);
    Cell Dummy;
    Frame Fr;
    makeFrame(DF, Fr);
    if (Prof || Opts.CountCheckSites)
      run<true>(DF, Fr, Dummy, 0);
    else
      run<false>(DF, Fr, Dummy, 0);
    R.DynInstrs = Cnt.Steps - Cnt.Checks;
    R.DynChecks = Cnt.Checks;
    R.DynCondChecks = Cnt.CondChecks;
  }

  uint64_t opsExecuted() const { return Cnt.ops(); }

  /// Per-site check execution tallies (CountCheckSites only), ordered by
  /// (function in module order, block, instruction index).
  std::vector<obs::CheckSiteCount> checkSites() const {
    std::vector<obs::CheckSiteCount> Sites;
    for (const Function *F : M.functions()) {
      auto It = Decoded.find(F);
      if (It == Decoded.end())
        continue;
      // Ops run in block and instruction order, so the sites come out
      // sorted.
      const DecodedFunction &DF = *It->second;
      for (size_t Pc = 0; Pc != DF.SiteHits.size(); ++Pc)
        if (DF.SiteHits[Pc] != 0)
          Sites.push_back({F->name(), DF.Ops[Pc].Block, DF.Ops[Pc].Index,
                           DF.SiteHits[Pc], DF.Ops[Pc].Tag});
    }
    return Sites;
  }

private:
  /// \p F's decoded form, decoding it on first use.
  DecodedFunction &decoded(const Function *F) {
    std::unique_ptr<DecodedFunction> &DF = Decoded[F];
    if (!DF) {
      DF = std::make_unique<DecodedFunction>();
      DF->F = F;
      Decoder(M, *DF).run();
      if (Prof)
        DF->ProfileFn = Prof->functionIndex(F);
      if (Opts.CountCheckSites)
        DF->SiteHits.assign(DF->Ops.size(), 0);
    }
    return *DF;
  }

  void makeFrame(const DecodedFunction &DF, Frame &Fr) {
    Fr.Slots = DF.InitialSlots;
    Fr.Arrays.assign(DF.F->symbols().size(), nullptr);
    for (SymbolID S : DF.LocalArrays) {
      const Symbol &Sym = DF.F->symbols().get(S);
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

  static const Instruction &instruction(const DecodedFunction &DF,
                                        const Op &O) {
    return DF.F->block(O.Block)->instructions()[O.Index];
  }

  /// Ends the run with the fault the op \p O of \p DF raised in frame
  /// \p Fr: a failed check, a trap, a bad access, a division by zero, a
  /// call to an unknown function, or falling off the end of its block.
  void faultAt(const DecodedFunction &DF, const Frame &Fr, const Op &O) {
    switch (O.Code) {
    case XOp::DivI:
      fault(ExecResult::Status::HardFault, "integer division by zero");
      return;
    case XOp::ModI:
      fault(ExecResult::Status::HardFault, "mod by zero");
      return;
    case XOp::Load:
    case XOp::Store:
      faultAccess(DF, O, Fr.Arrays[O.A] != nullptr);
      return;
    case XOp::Check:
    case XOp::CondCheck:
    case XOp::Check1:
    case XOp::Check1Pair:
      faultCheck(DF, O);
      return;
    case XOp::Trap:
      fault(ExecResult::Status::Trapped,
            "trap instruction reached (compile-time range violation)");
      return;
    case XOp::CallUnknown:
      fault(ExecResult::Status::HardFault,
            "call to unknown function " + instruction(DF, O).Callee);
      return;
    case XOp::FellOff:
      fault(ExecResult::Status::HardFault,
            "fell off the end of block bb" + std::to_string(O.Block));
      return;
    default:
      assert(false && "op cannot fault");
      return;
    }
  }

  /// Appends the value the Print op \p O reads to the output.
  void print(const Op &O, const Cell *S) {
    if (O.Code == XOp::PrintI)
      R.Output.push_back(std::to_string(S[O.A].I));
    else if (O.Code == XOp::PrintR)
      R.Output.push_back(formatString("%.6g", S[O.A].R));
    else
      R.Output.push_back(S[O.A].I ? "T" : "F");
  }

  void faultCheck(const DecodedFunction &DF, const Op &O) {
    const Instruction &I = instruction(DF, O);
    std::string Msg =
        "range check failed: " + I.Check.str(DF.F->symbols());
    if (!I.Origin.ArrayName.empty())
      Msg += " (array " + I.Origin.ArrayName + ", dim " +
             std::to_string(I.Origin.Dim + 1) +
             (I.Origin.IsUpper ? ", upper" : ", lower") + " bound, line " +
             I.Origin.Loc.str() + ")";
    fault(ExecResult::Status::Trapped, std::move(Msg));
  }

  void faultAccess(const DecodedFunction &DF, const Op &O, bool Bound) {
    if (!Bound) {
      fault(ExecResult::Status::HardFault, "unbound array parameter");
      return;
    }
    const char *What = O.Code == XOp::Store ? "out-of-bounds store on array "
                                            : "out-of-bounds access on array ";
    fault(ExecResult::Status::HardFault,
          What + DF.F->symbols().get(O.A).Name +
              " (a range check should have fired)");
  }

  static bool holds(const DecodedFunction &DF, const Cell *S,
                    const CheckRecord &C) {
    int64_t V = 0;
    for (uint32_t T = C.TermBegin; T != C.TermEnd; ++T)
      V = wrapAdd(V, wrapMul(DF.Terms[T].second, S[DF.Terms[T].first].I));
    return V <= C.Bound;
  }

  /// The element offset of the access \p O into \p A; false when a
  /// subscript is out of bounds.
  static bool offset(const DecodedFunction &DF, const Cell *S,
                     const ArrayStorage &A, const Op &O, size_t &Out) {
    const uint32_t *Sub = DF.Subscripts.data() + O.X;
    const ArrayStorage::Dim *Dims = A.Dims.data();
    size_t Offset = 0;
    for (uint32_t D = 0; D != O.B; ++D) {
      int64_t Idx = S[Sub[D]].I;
      if (Idx < Dims[D].Lower || Idx > Dims[D].Upper)
        return false;
      Offset += static_cast<size_t>(Idx - Dims[D].Lower) * Dims[D].Stride;
    }
    Out = Offset;
    return true;
  }

  /// Why the threaded loop, exec(), handed control back to run().
  enum class Stop : uint8_t {
    Return,    ///< a Ret op ran
    Call,      ///< at a Call op, charged
    Print,     ///< at a Print op, charged
    Fault,     ///< the op it stopped at faults or falls off its block
    StepLimit, ///< the step limit was reached before the op it stopped at
  };

  template <bool Observed>
  void run(DecodedFunction &DF, Frame &Fr, Cell &ResultOut, unsigned Depth);

  template <bool Observed>
  Stop exec(DecodedFunction &DF, Frame &Fr, const Op *&At, Cell &ResultOut,
            obs::ExecutionProfile *P, obs::ProfileFrameState &PFS);

  template <bool Observed>
  void call(DecodedFunction &DF, Frame &Fr, const Op &O, unsigned Depth);

  const Module &M;
  const InterpOptions &Opts;
  ExecResult &R;
  obs::ExecutionProfile *Prof = nullptr;
  std::unordered_map<const Function *, std::unique_ptr<DecodedFunction>>
      Decoded;
  Counters Cnt;
};

/// Runs the call op \p O of \p DF from frame \p Fr: a fresh frame for the
/// callee, the arguments marshalled into it, the result stored back.
template <bool Observed>
void Executor::call(DecodedFunction &DF, Frame &Fr, const Op &O,
                    unsigned Depth) {
  CallSite &CS = DF.Calls[O.X];
  if (!CS.Decoded)
    CS.Decoded = &decoded(CS.Callee);
  DecodedFunction &Callee = *CS.Decoded;
  Frame Sub;
  makeFrame(Callee, Sub);
  // Marshal arguments: scalars by value (with conversion), arrays by
  // reference.
  Cell *S = Fr.Slots.data();
  for (uint32_t K = CS.ArgBegin; K != CS.ArgEnd; ++K) {
    const ArgMove &A = DF.Args[K];
    switch (A.K) {
    case ArgMove::Array:
      Sub.Arrays[A.To] = Fr.Arrays[A.From];
      break;
    case ArgMove::Int:
      Sub.Slots[A.To].I = S[A.From].I;
      break;
    case ArgMove::Real:
      Sub.Slots[A.To].R = S[A.From].R;
      break;
    }
  }
  Cell Result;
  run<Observed>(Callee, Sub, Result, Depth + 1);
  if (halted() || CS.Dest == InvalidSymbol)
    return;
  if (CS.DestReal)
    S[CS.Dest].R = Result.R;
  else
    S[CS.Dest].I = Result.I;
}

/// Runs \p DF in frame \p Fr. The threaded loop, exec(), runs the ops and
/// hands back to this loop what needs ordinary code: calls, printing and
/// faults. So exec() holds no object with a destructor, which a computed
/// goto would skip (a call's frame lives in call()), and calls nothing but
/// the observed copy's hooks; with few values live across its handlers,
/// the compiler keeps the op pointer, slots and step count in registers.
template <bool Observed>
void Executor::run(DecodedFunction &DF, Frame &Fr, Cell &ResultOut,
                   unsigned Depth) {
  if (Depth > Opts.MaxCallDepth) {
    fault(ExecResult::Status::CallDepthExceeded, "call depth exceeded");
    return;
  }

  // Per-frame profiling state: loops in recursive activations count
  // independently, and the flush guard closes still-open loop entries as
  // partial no matter how the frame dies (trap, fault, in-loop return).
  obs::ExecutionProfile *P = nullptr;
  size_t PFn = DF.ProfileFn;
  obs::ProfileFrameState PFS;
  if constexpr (Observed)
    if (PFn != obs::ExecutionProfile::NoFunction)
      P = Prof;
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
    P->enterBlock(PFn, DF.F->entryBlock(), PFS);
  }
  if (halted())
    return;

  // Each stop but the last leaves O at the op it stopped at, charged; the
  // loop resumes after it.
  const Op *O = DF.Ops.data() + DF.EntryPc;
  for (;; ++O) {
    switch (exec<Observed>(DF, Fr, O, ResultOut, P, PFS)) {
    case Stop::Return:
      return;
    case Stop::Call:
      call<Observed>(DF, Fr, *O, Depth);
      if (halted())
        return;
      break;
    case Stop::Print:
      print(*O, Fr.Slots.data());
      break;
    case Stop::Fault:
      faultAt(DF, Fr, *O);
      return;
    case Stop::StepLimit:
      fault(ExecResult::Status::StepLimit, "step limit exceeded");
      return;
    }
  }
}

/// The threaded loop: runs \p DF's ops from \p At until one needs run(),
/// and returns why, with \p At at that op. Each handler ends in its own
/// indirect jump to the next op's handler.
///
/// Every op is charged its cost before it runs. A fused op charges each
/// half before that half runs, and when the step limit falls between the
/// halves it moves on to the second, unfused, which stops there; so the
/// counters, the step limit and every fault, profile hook and site count
/// see the IR's operations, not the dispatches.
template <bool Observed>
Executor::Stop Executor::exec(DecodedFunction &DF, Frame &Fr, const Op *&At,
                              Cell &ResultOut, obs::ExecutionProfile *P,
                              obs::ProfileFrameState &PFS) {
  static void *const Handlers[] = {
#define NASCENT_XOP_LABEL(Name) &&Do##Name,
      NASCENT_XOPS(NASCENT_XOP_LABEL)
#undef NASCENT_XOP_LABEL
  };

  const Op *const Code = DF.Ops.data();
  Cell *S = Fr.Slots.data();
  const uint64_t MaxSteps = Opts.MaxSteps;
  const size_t PFn = DF.ProfileFn;
  uint64_t Steps = Cnt.Steps;
  const Op *O = At;

// Hands the op at O back to run().
#define STOP(Why)                                                              \
  do {                                                                         \
    At = O;                                                                    \
    Cnt.Steps = Steps;                                                         \
    return Stop::Why;                                                          \
  } while (0)
// Runs the op at O: at the step limit stops, otherwise charges the op and
// jumps to its handler.
#define DISPATCH()                                                             \
  do {                                                                         \
    if (Steps >= MaxSteps) [[unlikely]]                                        \
      goto AtLimit;                                                            \
    Steps += O->Cost;                                                          \
    goto *Handlers[static_cast<unsigned>(O->Code)];                            \
  } while (0)
#define NEXT(N)                                                                \
  do {                                                                         \
    O += (N);                                                                  \
    DISPATCH();                                                                \
  } while (0)
// Charges the second half of a fused op, O[1]; at the step limit, moves to
// it instead, so it runs as its own op and the limit stops it there.
#define SECOND_HALF()                                                          \
  do {                                                                         \
    if (Steps >= MaxSteps) [[unlikely]] {                                      \
      ++O;                                                                     \
      goto AtLimit;                                                            \
    }                                                                          \
    Steps += O[1].Cost;                                                        \
  } while (0)
// The profile hook of a taken branch or jump, O being its target.
#define ENTER_BLOCK()                                                          \
  do {                                                                         \
    if constexpr (Observed)                                                    \
      if (P)                                                                   \
        P->enterBlock(PFn, O->Block, PFS);                                     \
  } while (0)
// Executes the Check1 at K: counts and observes it, and stops at it when
// it fails.
#define CHECK1(K)                                                              \
  do {                                                                         \
    ++Cnt.Checks;                                                              \
    if constexpr (Observed)                                                    \
      if (Opts.CountCheckSites)                                                \
        obs::saturatingInc(DF.SiteHits[(K) - Code]);                           \
    bool Traps = !(wrapMul((K)->Coeff, S[(K)->A].I) <= (K)->Bound);            \
    if constexpr (Observed)                                                    \
      if (P)                                                                   \
        P->noteCheck(PFn, (K)->Block, (K)->Index, Traps);                      \
    if (Traps) {                                                               \
      O = (K);                                                                 \
      STOP(Fault);                                                             \
    }                                                                          \
  } while (0)
#define COMPUTE(Name, Field, Expr)                                             \
  Do##Name : S[O->D].Field = (Expr);                                           \
  NEXT(1);
#define COMPARE_BRANCH(Name, Rel)                                              \
  Do##Name##Br : {                                                             \
    bool Taken = S[O->A].I Rel S[O->B].I;                                      \
    S[O->D].I = Taken;                                                         \
    SECOND_HALF();                                                             \
    O = Code + (Taken ? O[1].D : O[1].B);                                      \
    ENTER_BLOCK();                                                             \
    DISPATCH();                                                                \
  }

  DISPATCH();

  COMPUTE(AddI, I, wrapAdd(S[O->A].I, S[O->B].I))
  COMPUTE(SubI, I, wrapSub(S[O->A].I, S[O->B].I))
  COMPUTE(MulI, I, wrapMul(S[O->A].I, S[O->B].I))
DoDivI:
  if (S[O->B].I == 0)
    STOP(Fault);
  S[O->D].I = wrapDiv(S[O->A].I, S[O->B].I);
  NEXT(1);
DoModI:
  if (S[O->B].I == 0)
    STOP(Fault);
  S[O->D].I = wrapMod(S[O->A].I, S[O->B].I);
  NEXT(1);
  COMPUTE(MinI, I, std::min(S[O->A].I, S[O->B].I))
  COMPUTE(MaxI, I, std::max(S[O->A].I, S[O->B].I))
  COMPUTE(NegI, I, wrapNeg(S[O->A].I))
  COMPUTE(AbsI, I, wrapAbs(S[O->A].I))
  COMPUTE(AddR, R, S[O->A].R + S[O->B].R)
  COMPUTE(SubR, R, S[O->A].R - S[O->B].R)
  COMPUTE(MulR, R, S[O->A].R * S[O->B].R)
  COMPUTE(DivR, R, S[O->B].R == 0.0 ? 0.0 : S[O->A].R / S[O->B].R)
  COMPUTE(ModR, R, 0.0) // the IR gives real mod no meaning; it yields 0
  COMPUTE(MinR, R, std::min(S[O->A].R, S[O->B].R))
  COMPUTE(MaxR, R, std::max(S[O->A].R, S[O->B].R))
  COMPUTE(NegR, R, -S[O->A].R)
  COMPUTE(AbsR, R, std::fabs(S[O->A].R))
  COMPUTE(EqI, I, S[O->A].I == S[O->B].I)
  COMPUTE(NeI, I, S[O->A].I != S[O->B].I)
  COMPUTE(LtI, I, S[O->A].I < S[O->B].I)
  COMPUTE(LeI, I, S[O->A].I <= S[O->B].I)
  COMPUTE(GtI, I, S[O->A].I > S[O->B].I)
  COMPUTE(GeI, I, S[O->A].I >= S[O->B].I)
  COMPUTE(EqR, I, S[O->A].R == S[O->B].R)
  COMPUTE(NeR, I, S[O->A].R != S[O->B].R)
  COMPUTE(LtR, I, S[O->A].R < S[O->B].R)
  COMPUTE(LeR, I, S[O->A].R <= S[O->B].R)
  COMPUTE(GtR, I, S[O->A].R > S[O->B].R)
  COMPUTE(GeR, I, S[O->A].R >= S[O->B].R)
  COMPUTE(And, I, S[O->A].I != 0 && S[O->B].I != 0)
  COMPUTE(Or, I, S[O->A].I != 0 || S[O->B].I != 0)
  COMPUTE(Not, I, S[O->A].I == 0)
  COMPUTE(CopyI, I, S[O->A].I)
  COMPUTE(CopyR, R, S[O->A].R)
  COMPUTE(IntToReal, R, static_cast<double>(S[O->A].I))
  COMPUTE(RealToInt, I, static_cast<int64_t>(S[O->A].R))
DoConvert:
  S[O->D].I = S[O->A].I;
  S[O->D].R = static_cast<double>(S[O->A].I);
  NEXT(1);
DoLoad: {
  Cnt.Address += O->Cost - 1;
  ArrayStorage *A = Fr.Arrays[O->A];
  size_t Off = 0;
  if (!A || !offset(DF, S, *A, *O, Off))
    STOP(Fault);
  if (A->Elem == ScalarType::Real)
    S[O->D].R = A->Reals[Off];
  else
    S[O->D].I = A->Ints[Off];
  if constexpr (Observed)
    if (P)
      P->noteAccess(PFn, O->A, /*IsStore=*/false);
  NEXT(1);
}
DoStore: {
  Cnt.Address += O->Cost - 1;
  ArrayStorage *A = Fr.Arrays[O->A];
  size_t Off = 0;
  if (!A || !offset(DF, S, *A, *O, Off))
    STOP(Fault);
  if (A->Elem != ScalarType::Real)
    A->Ints[Off] = S[O->D].I;
  else
    A->Reals[Off] = S[O->D].R;
  if constexpr (Observed)
    if (P)
      P->noteAccess(PFn, O->A, /*IsStore=*/true);
  NEXT(1);
}
DoCheck: {
  ++Cnt.Checks;
  if constexpr (Observed)
    if (Opts.CountCheckSites)
      obs::saturatingInc(DF.SiteHits[O - Code]);
  bool Traps = !holds(DF, S, DF.Checks[O->X]);
  if constexpr (Observed)
    if (P)
      P->noteCheck(PFn, O->Block, O->Index, Traps);
  if (Traps)
    STOP(Fault);
  NEXT(1);
}
DoCondCheck: {
  ++Cnt.Checks;
  ++Cnt.CondChecks;
  if constexpr (Observed)
    if (Opts.CountCheckSites)
      obs::saturatingInc(DF.SiteHits[O - Code]);
  bool GuardsHold = true;
  for (uint32_t G = 1; G <= O->B; ++G)
    if (!holds(DF, S, DF.Checks[O->X + G])) {
      GuardsHold = false;
      break;
    }
  bool Traps = GuardsHold && !holds(DF, S, DF.Checks[O->X]);
  if constexpr (Observed)
    if (P)
      P->noteCheck(PFn, O->Block, O->Index, Traps);
  if (Traps)
    STOP(Fault);
  NEXT(1);
}
DoTrap:
  STOP(Fault);
DoBr:
  O = Code + (S[O->A].I != 0 ? O->D : O->B);
  ENTER_BLOCK();
  DISPATCH();
DoJump:
  O = Code + O->D;
  ENTER_BLOCK();
  DISPATCH();
DoRet:
  STOP(Return);
DoRetI:
  ResultOut.I = S[O->A].I;
  STOP(Return);
DoRetR:
  ResultOut.R = S[O->A].R;
  STOP(Return);
DoCall:
  STOP(Call);
DoCallUnknown:
  STOP(Fault);
DoPrintI:
DoPrintR:
DoPrintB:
  STOP(Print);
DoFellOff:
  STOP(Fault);
DoCheck1:
  CHECK1(O);
  NEXT(1);
  COMPARE_BRANCH(EqI, ==)
  COMPARE_BRANCH(NeI, !=)
  COMPARE_BRANCH(LtI, <)
  COMPARE_BRANCH(LeI, <=)
  COMPARE_BRANCH(GtI, >)
  COMPARE_BRANCH(GeI, >=)
DoCheck1Pair:
  CHECK1(O);
  SECOND_HALF();
  CHECK1(O + 1);
  NEXT(2);
DoAddIJump:
  S[O->D].I = wrapAdd(S[O->A].I, S[O->B].I);
  SECOND_HALF();
  O = Code + O[1].D;
  ENTER_BLOCK();
  DISPATCH();
AtLimit:
  // Falling off a block is reported even at the step limit.
  if (O->Code == XOp::FellOff)
    STOP(Fault);
  STOP(StepLimit);

#undef COMPARE_BRANCH
#undef COMPUTE
#undef CHECK1
#undef ENTER_BLOCK
#undef SECOND_HALF
#undef NEXT
#undef DISPATCH
#undef STOP
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
  R.CheckSites = E.checkSites();
  if (Opts.Profile && Opts.Profile->attached())
    Opts.Profile->noteRun(R.St == ExecResult::Status::Trapped);
  ++NumRuns;
  NumDynChecks += R.DynChecks;
  NumOps += E.opsExecuted();
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
