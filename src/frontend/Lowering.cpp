#include "frontend/Lowering.h"

#include "ir/IRBuilder.h"
#include "support/Wrapping.h"

#include <map>
#include <set>
#include <string>

using namespace nascent;

namespace {

/// A lowered expression: the runtime value plus, for integer expressions
/// that are affine in program variables, the canonical linear form used to
/// build checks and loop-bound metadata.
struct LoweredExpr {
  Value V;
  std::optional<LinearExpr> Lin;
};

/// Per-function lowering state.
class FunctionLowerer {
public:
  FunctionLowerer(const ProcedureAST &P, Function &F, Module &M,
                  const LoweringOptions &Opts)
      : P(P), F(F), M(M), Opts(Opts), B(F) {}

  void run();

private:
  // --- CSE cache -------------------------------------------------------
  struct CacheEntry {
    Value V;
    std::set<SymbolID> ScalarDeps;
    std::set<SymbolID> ArrayDeps; ///< arrays read anywhere in the subtree
  };

  void cseInvalidateScalar(SymbolID S);
  void cseInvalidateArray(SymbolID A);
  void cseClear() { Cache.clear(); }

  /// Structural key of an AST expression (symbol ids, not names).
  static std::string exprKey(const Expr &E);
  static void collectDeps(const Expr &E, std::set<SymbolID> &Scalars,
                          std::set<SymbolID> &Arrays);

  /// Canonical per-block atom for a non-affine integer subexpression:
  /// syntactically equal occurrences (with no intervening definition of
  /// their inputs) map to the first occurrence's temporary, so their
  /// checks fall into one family. The freshly computed \p Computed symbol
  /// is registered on a miss. Code emission is never suppressed: the
  /// translation stays naive, matching the paper's baseline.
  SymbolID atomFor(const Expr &E, SymbolID Computed);

  // --- expression lowering --------------------------------------------
  LoweredExpr lowerExpr(const Expr &E);
  Value lowerToType(const Expr &E, ScalarType Want);
  Value convert(Value V, ScalarType From, ScalarType To);

  /// Lowers subscripts of an array access, emitting the naive checks, and
  /// returns the index values.
  std::vector<Value> lowerSubscripts(SymbolID Array,
                                     const std::vector<ExprPtr> &Indices,
                                     SourceLocation Loc);

  // --- statement lowering ----------------------------------------------
  void lowerStmtList(const std::vector<StmtPtr> &Stmts);
  void lowerStmt(const Stmt &S);
  void lowerIf(const IfStmt &S);
  void lowerDo(const DoStmt &S);
  void lowerWhile(const WhileStmt &S);
  std::vector<Value> lowerCallArgs(const std::string &Callee,
                                   const std::vector<ExprPtr> &Args);

  /// Starts a new block and makes it current (clearing the CSE cache).
  void switchTo(BasicBlock *BB) {
    B.setInsertBlock(BB);
    cseClear();
  }

  /// Default value for an implicit return of a function result.
  Value defaultValue(ScalarType T) {
    switch (T) {
    case ScalarType::Int:
      return Value::intConst(0);
    case ScalarType::Real:
      return Value::realConst(0.0);
    case ScalarType::Bool:
      return Value::boolConst(false);
    }
    return Value::intConst(0);
  }

  const ProcedureAST &P;
  Function &F;
  Module &M;
  const LoweringOptions &Opts;
  IRBuilder B;
  std::map<std::string, CacheEntry> Cache;
};

void FunctionLowerer::run() {
  BasicBlock *Entry = B.createBlock("entry");
  switchTo(Entry);
  lowerStmtList(P.Body);
  if (!B.insertBlock()->hasTerminator()) {
    if (F.resultType())
      B.emitRetValue(defaultValue(*F.resultType()));
    else
      B.emitRet();
  }
  F.recomputePreds();
}

void FunctionLowerer::cseInvalidateScalar(SymbolID S) {
  for (auto It = Cache.begin(); It != Cache.end();) {
    if (It->second.ScalarDeps.count(S))
      It = Cache.erase(It);
    else
      ++It;
  }
}

void FunctionLowerer::cseInvalidateArray(SymbolID A) {
  for (auto It = Cache.begin(); It != Cache.end();) {
    if (It->second.ArrayDeps.count(A))
      It = Cache.erase(It);
    else
      ++It;
  }
}

std::string FunctionLowerer::exprKey(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLit:
    return "i" + std::to_string(static_cast<const IntLitExpr &>(E).Value);
  case ExprKind::RealLit:
    return "r" + std::to_string(static_cast<const RealLitExpr &>(E).Value);
  case ExprKind::BoolLit:
    return static_cast<const BoolLitExpr &>(E).Value ? "bt" : "bf";
  case ExprKind::VarRef:
    return "v" + std::to_string(static_cast<const VarRefExpr &>(E).Sym);
  case ExprKind::ArrayRef: {
    const auto &A = static_cast<const ArrayRefExpr &>(E);
    std::string K = "a" + std::to_string(A.Sym) + "[";
    for (const ExprPtr &I : A.Indices)
      K += exprKey(*I) + ",";
    return K + "]";
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    return "u" + std::to_string(static_cast<int>(U.Op)) + "(" +
           exprKey(*U.Sub) + ")";
  }
  case ExprKind::Binary: {
    const auto &Bi = static_cast<const BinaryExpr &>(E);
    return "b" + std::to_string(static_cast<int>(Bi.Op)) + "(" +
           exprKey(*Bi.LHS) + "," + exprKey(*Bi.RHS) + ")";
  }
  case ExprKind::Call:
    return std::string(); // calls are never cached
  }
  return std::string();
}

void FunctionLowerer::collectDeps(const Expr &E, std::set<SymbolID> &Scalars,
                                  std::set<SymbolID> &Arrays) {
  switch (E.Kind) {
  case ExprKind::VarRef:
    Scalars.insert(static_cast<const VarRefExpr &>(E).Sym);
    return;
  case ExprKind::ArrayRef: {
    const auto &A = static_cast<const ArrayRefExpr &>(E);
    Arrays.insert(A.Sym);
    for (const ExprPtr &I : A.Indices)
      collectDeps(*I, Scalars, Arrays);
    return;
  }
  case ExprKind::Unary:
    collectDeps(*static_cast<const UnaryExpr &>(E).Sub, Scalars, Arrays);
    return;
  case ExprKind::Binary:
    collectDeps(*static_cast<const BinaryExpr &>(E).LHS, Scalars, Arrays);
    collectDeps(*static_cast<const BinaryExpr &>(E).RHS, Scalars, Arrays);
    return;
  default:
    return;
  }
}

SymbolID FunctionLowerer::atomFor(const Expr &E, SymbolID Computed) {
  if (!Opts.SyntacticAtoms)
    return Computed;
  std::string Key = exprKey(E);
  if (Key.empty())
    return Computed;
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second.V.symbol();
  CacheEntry CE;
  CE.V = Value::sym(Computed);
  collectDeps(E, CE.ScalarDeps, CE.ArrayDeps);
  Cache[Key] = std::move(CE);
  return Computed;
}

Value FunctionLowerer::convert(Value V, ScalarType From, ScalarType To) {
  if (From == To)
    return V;
  if (From == ScalarType::Int && To == ScalarType::Real) {
    if (V.isIntConst())
      return Value::realConst(static_cast<double>(V.intValue()));
    return B.emitUnary(Opcode::IntToReal, V, ScalarType::Real);
  }
  if (From == ScalarType::Real && To == ScalarType::Int) {
    if (V.isRealConst())
      return Value::intConst(static_cast<int64_t>(V.realValue()));
    return B.emitUnary(Opcode::RealToInt, V, ScalarType::Int);
  }
  return V;
}

Value FunctionLowerer::lowerToType(const Expr &E, ScalarType Want) {
  LoweredExpr L = lowerExpr(E);
  return convert(L.V, E.Ty, Want);
}

LoweredExpr FunctionLowerer::lowerExpr(const Expr &E) {
  LoweredExpr Out;
  switch (E.Kind) {
  case ExprKind::IntLit: {
    int64_t C = static_cast<const IntLitExpr &>(E).Value;
    Out.V = Value::intConst(C);
    Out.Lin = LinearExpr::constant(C);
    return Out;
  }
  case ExprKind::RealLit:
    Out.V = Value::realConst(static_cast<const RealLitExpr &>(E).Value);
    return Out;
  case ExprKind::BoolLit:
    Out.V = Value::boolConst(static_cast<const BoolLitExpr &>(E).Value);
    return Out;
  case ExprKind::VarRef: {
    const auto &V = static_cast<const VarRefExpr &>(E);
    Out.V = Value::sym(V.Sym);
    if (E.Ty == ScalarType::Int && !F.symbols().get(V.Sym).isArray())
      Out.Lin = LinearExpr::term(V.Sym);
    return Out;
  }
  case ExprKind::ArrayRef: {
    const auto &A = static_cast<const ArrayRefExpr &>(E);
    std::vector<Value> Idx = lowerSubscripts(A.Sym, A.Indices, A.Loc);
    Out.V = B.emitLoad(A.Sym, std::move(Idx));
    if (E.Ty == ScalarType::Int)
      Out.Lin = LinearExpr::term(atomFor(E, Out.V.symbol()));
    return Out;
  }
  case ExprKind::Unary: {
    const auto &U = static_cast<const UnaryExpr &>(E);
    LoweredExpr Sub = lowerExpr(*U.Sub);
    switch (U.Op) {
    case UnaryOp::Neg:
      if (Sub.V.isIntConst()) {
        int64_t N = wrapNeg(Sub.V.intValue());
        Out.V = Value::intConst(N);
        Out.Lin = LinearExpr::constant(N);
        return Out;
      }
      if (Sub.V.isRealConst()) {
        Out.V = Value::realConst(-Sub.V.realValue());
        return Out;
      }
      Out.V = B.emitUnary(Opcode::Neg, Sub.V, E.Ty);
      if (E.Ty == ScalarType::Int && Sub.Lin)
        Out.Lin = Sub.Lin->negated();
      break;
    case UnaryOp::Not:
      Out.V = B.emitUnary(Opcode::Not, Sub.V, ScalarType::Bool);
      break;
    case UnaryOp::Abs:
      Out.V = B.emitUnary(Opcode::Abs, Sub.V, E.Ty);
      break;
    case UnaryOp::IntCast:
      Out.V = convert(Sub.V, U.Sub->Ty, ScalarType::Int);
      if (Out.V.isSym() && U.Sub->Ty == ScalarType::Int)
        Out.Lin = Sub.Lin;
      break;
    case UnaryOp::RealCast:
      Out.V = convert(Sub.V, U.Sub->Ty, ScalarType::Real);
      break;
    }
    break;
  }
  case ExprKind::Binary: {
    const auto &Bi = static_cast<const BinaryExpr &>(E);
    ScalarType OpTy = E.Ty;
    bool IsCmp = Bi.Op == BinaryOp::Eq || Bi.Op == BinaryOp::Ne ||
                 Bi.Op == BinaryOp::Lt || Bi.Op == BinaryOp::Le ||
                 Bi.Op == BinaryOp::Gt || Bi.Op == BinaryOp::Ge;
    if (IsCmp) {
      // Compare in the promoted operand type.
      OpTy = (Bi.LHS->Ty == ScalarType::Real || Bi.RHS->Ty == ScalarType::Real)
                 ? ScalarType::Real
                 : (Bi.LHS->Ty == ScalarType::Bool ? ScalarType::Bool
                                                   : ScalarType::Int);
    }
    LoweredExpr L = lowerExpr(*Bi.LHS);
    LoweredExpr R = lowerExpr(*Bi.RHS);
    ScalarType PromTy = (Bi.Op == BinaryOp::And || Bi.Op == BinaryOp::Or)
                            ? ScalarType::Bool
                            : OpTy;
    Value LV = convert(L.V, Bi.LHS->Ty, PromTy == ScalarType::Bool
                                            ? Bi.LHS->Ty
                                            : PromTy);
    Value RV = convert(R.V, Bi.RHS->Ty, PromTy == ScalarType::Bool
                                            ? Bi.RHS->Ty
                                            : PromTy);

    // Constant folding for integer arithmetic keeps the naive code from
    // being absurd and keeps linear forms tight. It wraps exactly as the
    // program would at run time.
    auto FoldInt = [&](int64_t A, int64_t C) -> std::optional<int64_t> {
      switch (Bi.Op) {
      case BinaryOp::Add:
        return wrapAdd(A, C);
      case BinaryOp::Sub:
        return wrapSub(A, C);
      case BinaryOp::Mul:
        return wrapMul(A, C);
      case BinaryOp::Div:
        return C == 0 ? std::nullopt : std::optional<int64_t>(wrapDiv(A, C));
      case BinaryOp::Mod:
        return C == 0 ? std::nullopt : std::optional<int64_t>(wrapMod(A, C));
      case BinaryOp::Min:
        return std::min(A, C);
      case BinaryOp::Max:
        return std::max(A, C);
      default:
        return std::nullopt;
      }
    };
    if (LV.isIntConst() && RV.isIntConst() && E.Ty == ScalarType::Int) {
      if (auto C = FoldInt(LV.intValue(), RV.intValue())) {
        Out.V = Value::intConst(*C);
        Out.Lin = LinearExpr::constant(*C);
        return Out;
      }
    }

    Opcode Op;
    switch (Bi.Op) {
    case BinaryOp::Add:
      Op = Opcode::Add;
      break;
    case BinaryOp::Sub:
      Op = Opcode::Sub;
      break;
    case BinaryOp::Mul:
      Op = Opcode::Mul;
      break;
    case BinaryOp::Div:
      Op = Opcode::Div;
      break;
    case BinaryOp::Mod:
      Op = Opcode::Mod;
      break;
    case BinaryOp::Min:
      Op = Opcode::Min;
      break;
    case BinaryOp::Max:
      Op = Opcode::Max;
      break;
    case BinaryOp::Eq:
      Op = Opcode::CmpEQ;
      break;
    case BinaryOp::Ne:
      Op = Opcode::CmpNE;
      break;
    case BinaryOp::Lt:
      Op = Opcode::CmpLT;
      break;
    case BinaryOp::Le:
      Op = Opcode::CmpLE;
      break;
    case BinaryOp::Gt:
      Op = Opcode::CmpGT;
      break;
    case BinaryOp::Ge:
      Op = Opcode::CmpGE;
      break;
    case BinaryOp::And:
      Op = Opcode::And;
      break;
    case BinaryOp::Or:
      Op = Opcode::Or;
      break;
    default:
      Op = Opcode::Add;
      break;
    }
    Out.V = B.emitBinary(Op, LV, RV, E.Ty);

    // Linear form for integer +, -, and *-by-constant.
    if (E.Ty == ScalarType::Int && L.Lin && R.Lin) {
      switch (Bi.Op) {
      case BinaryOp::Add:
        Out.Lin = *L.Lin + *R.Lin;
        break;
      case BinaryOp::Sub:
        Out.Lin = *L.Lin - *R.Lin;
        break;
      case BinaryOp::Mul:
        if (L.Lin->isConstant())
          Out.Lin = R.Lin->scaled(L.Lin->constantPart());
        else if (R.Lin->isConstant())
          Out.Lin = L.Lin->scaled(R.Lin->constantPart());
        break;
      default:
        break;
      }
    }
    // Fall back: a canonical atom for the non-affine subtree becomes the
    // linear form, so syntactically equal subscripts share a family the
    // way the paper's expression equivalence classes do.
    if (E.Ty == ScalarType::Int && !Out.Lin && Out.V.isSym())
      Out.Lin = LinearExpr::term(atomFor(E, Out.V.symbol()));
    break;
  }
  case ExprKind::Call: {
    const auto &C = static_cast<const CallExpr &>(E);
    std::vector<Value> Args = lowerCallArgs(C.Callee, C.Args);
    Out.V = B.emitCall(C.Callee, std::move(Args), E.Ty);
    if (E.Ty == ScalarType::Int && Out.V.isSym())
      Out.Lin = LinearExpr::term(Out.V.symbol()); // calls never share atoms
    return Out;
  }
  }
  if (E.Ty == ScalarType::Int && !Out.Lin && Out.V.isSym())
    Out.Lin = LinearExpr::term(atomFor(E, Out.V.symbol()));
  return Out;
}

std::vector<Value>
FunctionLowerer::lowerSubscripts(SymbolID Array,
                                 const std::vector<ExprPtr> &Indices,
                                 SourceLocation Loc) {
  // Copy: lowering the index expressions creates temporaries, which can
  // reallocate the symbol table and invalidate references into it.
  const Symbol A = F.symbols().get(Array);
  std::vector<Value> Out;
  Out.reserve(Indices.size());
  for (size_t D = 0; D != Indices.size(); ++D) {
    LoweredExpr L = lowerExpr(*Indices[D]);
    LinearExpr Lin = L.Lin ? *L.Lin
                           : (L.V.isSym() ? LinearExpr::term(L.V.symbol())
                                          : LinearExpr::constant(
                                                L.V.intValue()));
    if (Opts.InsertChecks) {
      const ArrayDim &Dim = A.Shape.Dims[D];
      CheckOrigin LowerOrigin{A.Name, static_cast<int>(D), false, Loc};
      CheckOrigin UpperOrigin{A.Name, static_cast<int>(D), true, Loc};
      B.emitCheck(CheckExpr::fromLowerBound(Lin, Dim.Lower), LowerOrigin);
      B.emitCheck(CheckExpr(Lin, Dim.Upper), UpperOrigin);
    }
    Out.push_back(L.V);
  }
  return Out;
}

std::vector<Value>
FunctionLowerer::lowerCallArgs(const std::string &Callee,
                               const std::vector<ExprPtr> &Args) {
  const Function *CalleeF = M.function(Callee);
  assert(CalleeF && "sema guarantees the callee exists");
  std::vector<Value> Out;
  Out.reserve(Args.size());
  for (size_t K = 0; K != Args.size(); ++K) {
    const Symbol &Param = CalleeF->symbols().get(CalleeF->params()[K]);
    if (Param.isArray()) {
      const auto &V = static_cast<const VarRefExpr &>(*Args[K]);
      Out.push_back(Value::sym(V.Sym));
      // The callee may mutate the array: cached loads are stale.
      cseInvalidateArray(V.Sym);
      continue;
    }
    Out.push_back(lowerToType(*Args[K], Param.Type));
  }
  return Out;
}

void FunctionLowerer::lowerStmtList(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &S : Stmts) {
    if (!S)
      continue;
    if (B.insertBlock()->hasTerminator()) {
      // Code after return: unreachable, but keep lowering into a fresh
      // block so the IR stays well-formed.
      switchTo(B.createBlock("dead"));
    }
    lowerStmt(*S);
  }
}

void FunctionLowerer::lowerStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Assign: {
    const auto &A = static_cast<const AssignStmt &>(S);
    const Symbol Info = F.symbols().get(A.Sym); // copy: table may grow
    Value V = lowerToType(*A.Value, Info.Type);
    B.emitCopy(A.Sym, V);
    cseInvalidateScalar(A.Sym);
    return;
  }
  case StmtKind::ArrayAssign: {
    const auto &A = static_cast<const ArrayAssignStmt &>(S);
    const Symbol Info = F.symbols().get(A.Sym); // copy: table may grow
    std::vector<Value> Idx = lowerSubscripts(A.Sym, A.Indices, A.Loc);
    Value V = lowerToType(*A.Value, Info.Type);
    B.emitStore(A.Sym, std::move(Idx), V);
    cseInvalidateArray(A.Sym);
    return;
  }
  case StmtKind::If:
    lowerIf(static_cast<const IfStmt &>(S));
    return;
  case StmtKind::Do:
    lowerDo(static_cast<const DoStmt &>(S));
    return;
  case StmtKind::While:
    lowerWhile(static_cast<const WhileStmt &>(S));
    return;
  case StmtKind::Call: {
    const auto &C = static_cast<const CallStmt &>(S);
    std::vector<Value> Args = lowerCallArgs(C.Callee, C.Args);
    B.emitCall(C.Callee, std::move(Args), std::nullopt);
    return;
  }
  case StmtKind::Print: {
    const auto &Pr = static_cast<const PrintStmt &>(S);
    LoweredExpr L = lowerExpr(*Pr.Value);
    B.emitPrint(L.V);
    return;
  }
  case StmtKind::Return: {
    const auto &R = static_cast<const ReturnStmt &>(S);
    if (F.resultType()) {
      Value V = R.Value ? lowerToType(*R.Value, *F.resultType())
                        : defaultValue(*F.resultType());
      B.emitRetValue(V);
    } else {
      B.emitRet();
    }
    return;
  }
  }
}

void FunctionLowerer::lowerIf(const IfStmt &S) {
  Value Cond = lowerToType(*S.Cond, ScalarType::Bool);
  BasicBlock *ThenBB = B.createBlock("then");
  BasicBlock *ElseBB = S.Else.empty() ? nullptr : B.createBlock("else");
  BasicBlock *JoinBB = B.createBlock("join");
  B.emitBr(Cond, ThenBB->id(), ElseBB ? ElseBB->id() : JoinBB->id());

  switchTo(ThenBB);
  lowerStmtList(S.Then);
  if (!B.insertBlock()->hasTerminator())
    B.emitJump(JoinBB->id());

  if (ElseBB) {
    switchTo(ElseBB);
    lowerStmtList(S.Else);
    if (!B.insertBlock()->hasTerminator())
      B.emitJump(JoinBB->id());
  }
  switchTo(JoinBB);
}

void FunctionLowerer::lowerDo(const DoStmt &S) {
  // Evaluate the bounds once, in the current block.
  LoweredExpr Lo = lowerExpr(*S.Lower);
  LoweredExpr Hi = lowerExpr(*S.Upper);

  // The loop-exit test needs stable operands: snapshot the upper bound
  // into a fresh temp (Fortran evaluates do bounds exactly once).
  SymbolID HiT = F.symbols().createTemp(ScalarType::Int, "hi");
  B.emitCopy(HiT, Hi.V);
  LinearExpr LoLin =
      Lo.Lin ? *Lo.Lin
             : (Lo.V.isSym() ? LinearExpr::term(Lo.V.symbol())
                             : LinearExpr::constant(Lo.V.intValue()));
  LinearExpr HiLin =
      Hi.Lin ? *Hi.Lin
             : (Hi.V.isSym() ? LinearExpr::term(Hi.V.symbol())
                             : LinearExpr::constant(Hi.V.intValue()));

  BasicBlock *Preheader = B.createBlock("do.ph");
  BasicBlock *Header = B.createBlock("do.head");
  BasicBlock *Body = B.createBlock("do.body");
  BasicBlock *Latch = B.createBlock("do.latch");
  BasicBlock *Exit = B.createBlock("do.exit");

  B.emitJump(Preheader->id());

  switchTo(Preheader);
  B.emitCopy(S.IndexSym, Lo.V);
  B.emitJump(Header->id());

  switchTo(Header);
  Opcode CmpOp = S.Step > 0 ? Opcode::CmpLE : Opcode::CmpGE;
  Value Cond = B.emitBinary(CmpOp, Value::sym(S.IndexSym), Value::sym(HiT),
                            ScalarType::Bool);
  B.emitBr(Cond, Body->id(), Exit->id());

  switchTo(Body);
  lowerStmtList(S.Body);
  if (!B.insertBlock()->hasTerminator())
    B.emitJump(Latch->id());

  switchTo(Latch);
  B.emitBinaryTo(S.IndexSym, Opcode::Add, Value::sym(S.IndexSym),
                 Value::intConst(S.Step));
  B.emitJump(Header->id());

  DoLoopInfo L;
  L.Preheader = Preheader->id();
  L.Header = Header->id();
  L.BodyEntry = Body->id();
  L.Latch = Latch->id();
  L.Exit = Exit->id();
  L.IndexVar = S.IndexSym;
  L.LowerBound = LoLin;
  L.UpperBound = HiLin;
  L.Step = S.Step;
  F.doLoops().push_back(std::move(L));

  switchTo(Exit);
}

void FunctionLowerer::lowerWhile(const WhileStmt &S) {
  BasicBlock *Preheader = B.createBlock("wh.ph");
  BasicBlock *Header = B.createBlock("wh.head");
  BasicBlock *Body = B.createBlock("wh.body");
  BasicBlock *Exit = B.createBlock("wh.exit");

  B.emitJump(Preheader->id());
  switchTo(Preheader);
  B.emitJump(Header->id());

  switchTo(Header);
  Value Cond = lowerToType(*S.Cond, ScalarType::Bool);
  B.emitBr(Cond, Body->id(), Exit->id());

  switchTo(Body);
  lowerStmtList(S.Body);
  if (!B.insertBlock()->hasTerminator())
    B.emitJump(Header->id());

  switchTo(Exit);
}

} // namespace

void nascent::lowerProgram(const ProgramAST &Prog, Module &M,
                           const LoweringOptions &Opts) {
  for (const auto &Unit : Prog.Units) {
    Function *F = M.function(Unit->Name);
    assert(F && "sema created a shell for every unit");
    FunctionLowerer(*Unit, *F, M, Opts).run();
  }
}
