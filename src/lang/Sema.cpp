#include "lang/Sema.h"

#include <algorithm>
#include <functional>
#include <set>

using namespace nascent;

bool Sema::convertible(ScalarType From, ScalarType To) {
  if (From == To)
    return true;
  return (From == ScalarType::Int && To == ScalarType::Real) ||
         (From == ScalarType::Real && To == ScalarType::Int);
}

std::unique_ptr<Module> Sema::run() {
  M = std::make_unique<Module>();

  unsigned NumPrograms = 0;
  for (auto &U : Prog.Units) {
    declareUnit(*U);
    if (U->Kind == UnitKind::Program) {
      ++NumPrograms;
      M->setEntry(U->Name);
    }
  }
  if (NumPrograms != 1)
    Diags.error(SourceLocation(),
                "a source file must contain exactly one 'program' unit");

  // Declarations (and thus parameter types) must exist for every unit
  // before any body is analyzed, so cross-unit calls can be checked.
  for (auto &U : Units)
    analyzeUnit(U);
  for (auto &U : Units) {
    ActiveDoIndices.clear();
    analyzeStmtList(U, U.AST->Body);
  }

  if (Diags.hasErrors())
    return nullptr;
  return std::move(M);
}

void Sema::declareUnit(ProcedureAST &P) {
  if (M->function(P.Name) != nullptr) {
    Diags.error(P.Loc, "duplicate unit name '" + P.Name + "'");
    return;
  }
  Function *F = M->createFunction(P.Name);
  if (P.ResultTy)
    F->setResultType(*P.ResultTy);
  Units.push_back({&P, F});
}

void Sema::analyzeUnit(UnitState &U) {
  ProcedureAST &P = *U.AST;
  Function &F = *U.F;
  SymbolTable &Syms = F.symbols();

  std::set<std::string> ParamNames(P.Params.begin(), P.Params.end());
  if (ParamNames.size() != P.Params.size())
    Diags.error(P.Loc, "duplicate parameter name in '" + P.Name + "'");

  // Create symbols for every declaration.
  for (Decl &D : P.Decls) {
    for (Declarator &V : D.Vars) {
      if (Syms.lookup(V.Name) != InvalidSymbol) {
        Diags.error(V.Loc, "redeclaration of '" + V.Name + "'");
        continue;
      }
      bool IsParam = ParamNames.count(V.Name) != 0;
      if (V.Dims.empty()) {
        Syms.createScalar(V.Name, D.Ty, IsParam);
        continue;
      }
      ArrayShape Shape;
      Shape.Element = D.Ty;
      bool BadDims = false;
      for (auto [Lo, Hi] : V.Dims) {
        if (Hi < Lo) {
          Diags.error(V.Loc, "array '" + V.Name + "' has empty dimension " +
                                 std::to_string(Lo) + ":" +
                                 std::to_string(Hi));
          BadDims = true;
        }
        Shape.Dims.push_back({Lo, Hi});
      }
      if (!BadDims && Shape.elementCount() < 0) {
        Diags.error(V.Loc, "array '" + V.Name +
                               "' is too large: its element count overflows "
                               "a 64-bit integer");
        BadDims = true;
      }
      if (!BadDims)
        Syms.createArray(V.Name, std::move(Shape), IsParam);
    }
  }

  // Bind parameters in declaration order; every parameter must be declared.
  for (const std::string &Name : P.Params) {
    SymbolID S = Syms.lookup(Name);
    if (S == InvalidSymbol) {
      Diags.error(P.Loc,
                  "parameter '" + Name + "' of '" + P.Name +
                      "' is not declared");
      continue;
    }
    F.params().push_back(S);
  }

  if (P.Kind == UnitKind::Program && !P.Params.empty())
    Diags.error(P.Loc, "the program unit takes no parameters");
}

void Sema::analyzeStmtList(UnitState &U, std::vector<StmtPtr> &Stmts) {
  for (StmtPtr &S : Stmts)
    if (S)
      analyzeStmt(U, *S);
}

void Sema::analyzeStmt(UnitState &U, Stmt &S) {
  SymbolTable &Syms = U.F->symbols();
  switch (S.Kind) {
  case StmtKind::Assign: {
    auto &A = static_cast<AssignStmt &>(S);
    SymbolID Sym = Syms.lookup(A.Name);
    if (Sym == InvalidSymbol) {
      Diags.error(A.Loc, "use of undeclared variable '" + A.Name + "'");
      return;
    }
    const Symbol &Info = Syms.get(Sym);
    if (Info.isArray()) {
      Diags.error(A.Loc, "cannot assign to whole array '" + A.Name + "'");
      return;
    }
    if (std::find(ActiveDoIndices.begin(), ActiveDoIndices.end(), Sym) !=
        ActiveDoIndices.end()) {
      Diags.error(A.Loc, "assignment to active do-loop index '" + A.Name +
                             "' is not allowed");
      return;
    }
    A.Sym = Sym;
    if (!analyzeExpr(U, A.Value))
      return;
    if (!convertible(A.Value->Ty, Info.Type))
      Diags.error(A.Loc, "cannot assign " +
                             std::string(scalarTypeName(A.Value->Ty)) +
                             " to " + scalarTypeName(Info.Type) +
                             " variable '" + A.Name + "'");
    return;
  }
  case StmtKind::ArrayAssign: {
    auto &A = static_cast<ArrayAssignStmt &>(S);
    SymbolID Sym = Syms.lookup(A.Name);
    if (Sym == InvalidSymbol) {
      Diags.error(A.Loc, "use of undeclared variable '" + A.Name + "'");
      return;
    }
    const Symbol &Info = Syms.get(Sym);
    if (!Info.isArray()) {
      Diags.error(A.Loc, "'" + A.Name + "' is not an array");
      return;
    }
    if (A.Indices.size() != Info.Shape.rank()) {
      Diags.error(A.Loc, "array '" + A.Name + "' has rank " +
                             std::to_string(Info.Shape.rank()) + ", got " +
                             std::to_string(A.Indices.size()) +
                             " subscripts");
      return;
    }
    A.Sym = Sym;
    for (ExprPtr &I : A.Indices) {
      if (!analyzeExpr(U, I))
        return;
      if (I->Ty != ScalarType::Int)
        Diags.error(I->Loc, "array subscript must be integer");
    }
    if (!analyzeExpr(U, A.Value))
      return;
    if (!convertible(A.Value->Ty, Info.Type))
      Diags.error(A.Loc,
                  "element type mismatch in assignment to '" + A.Name + "'");
    return;
  }
  case StmtKind::If: {
    auto &I = static_cast<IfStmt &>(S);
    if (analyzeExpr(U, I.Cond) && I.Cond->Ty != ScalarType::Bool)
      Diags.error(I.Cond->Loc, "if condition must be logical");
    analyzeStmtList(U, I.Then);
    analyzeStmtList(U, I.Else);
    return;
  }
  case StmtKind::Do: {
    auto &D = static_cast<DoStmt &>(S);
    SymbolID Sym = Syms.lookup(D.IndexName);
    if (Sym == InvalidSymbol) {
      Diags.error(D.Loc, "use of undeclared do index '" + D.IndexName + "'");
      return;
    }
    const Symbol &Info = Syms.get(Sym);
    if (Info.isArray() || Info.Type != ScalarType::Int) {
      Diags.error(D.Loc,
                  "do index '" + D.IndexName + "' must be an integer scalar");
      return;
    }
    if (std::find(ActiveDoIndices.begin(), ActiveDoIndices.end(), Sym) !=
        ActiveDoIndices.end()) {
      Diags.error(D.Loc, "do index '" + D.IndexName +
                             "' is already in use by an enclosing loop");
      return;
    }
    if (D.Step == 0) {
      Diags.error(D.Loc, "do step must be nonzero");
      return;
    }
    D.IndexSym = Sym;
    if (analyzeExpr(U, D.Lower) && D.Lower->Ty != ScalarType::Int)
      Diags.error(D.Lower->Loc, "do bounds must be integer");
    if (analyzeExpr(U, D.Upper) && D.Upper->Ty != ScalarType::Int)
      Diags.error(D.Upper->Loc, "do bounds must be integer");
    // The optimizer evaluates the loop-entry guard in the preheader, after
    // the index is initialised: bounds may not mention the index itself.
    std::function<bool(const Expr &)> UsesIndex = [&](const Expr &E) {
      switch (E.Kind) {
      case ExprKind::VarRef:
        return static_cast<const VarRefExpr &>(E).Sym == Sym;
      case ExprKind::ArrayRef: {
        const auto &A = static_cast<const ArrayRefExpr &>(E);
        for (const ExprPtr &I : A.Indices)
          if (I && UsesIndex(*I))
            return true;
        return false;
      }
      case ExprKind::Unary: {
        const auto &Un = static_cast<const UnaryExpr &>(E);
        return Un.Sub && UsesIndex(*Un.Sub);
      }
      case ExprKind::Binary: {
        const auto &Bi = static_cast<const BinaryExpr &>(E);
        return (Bi.LHS && UsesIndex(*Bi.LHS)) || (Bi.RHS && UsesIndex(*Bi.RHS));
      }
      case ExprKind::Call: {
        const auto &C = static_cast<const CallExpr &>(E);
        for (const ExprPtr &A : C.Args)
          if (A && UsesIndex(*A))
            return true;
        return false;
      }
      default:
        return false;
      }
    };
    if ((D.Lower && UsesIndex(*D.Lower)) || (D.Upper && UsesIndex(*D.Upper)))
      Diags.error(D.Loc, "do bounds may not reference the loop index '" +
                             D.IndexName + "'");
    ActiveDoIndices.push_back(Sym);
    analyzeStmtList(U, D.Body);
    ActiveDoIndices.pop_back();
    return;
  }
  case StmtKind::While: {
    auto &W = static_cast<WhileStmt &>(S);
    if (analyzeExpr(U, W.Cond) && W.Cond->Ty != ScalarType::Bool)
      Diags.error(W.Cond->Loc, "while condition must be logical");
    analyzeStmtList(U, W.Body);
    return;
  }
  case StmtKind::Call: {
    auto &C = static_cast<CallStmt &>(S);
    const Function *Callee = M->function(C.Callee);
    if (!Callee) {
      Diags.error(C.Loc, "call to unknown subroutine '" + C.Callee + "'");
      return;
    }
    if (Callee->resultType()) {
      Diags.error(C.Loc, "'" + C.Callee +
                             "' is a function; call it in an expression");
      return;
    }
    checkCallArgs(U, C.Callee, C.Args, C.Loc);
    return;
  }
  case StmtKind::Print: {
    auto &P = static_cast<PrintStmt &>(S);
    analyzeExpr(U, P.Value);
    return;
  }
  case StmtKind::Return: {
    auto &R = static_cast<ReturnStmt &>(S);
    bool IsFunction = U.F->resultType().has_value();
    if (IsFunction) {
      if (!R.Value) {
        Diags.error(R.Loc,
                    "function '" + U.F->name() + "' must return a value");
        return;
      }
      if (analyzeExpr(U, R.Value) &&
          !convertible(R.Value->Ty, *U.F->resultType()))
        Diags.error(R.Loc, "return type mismatch in '" + U.F->name() + "'");
    } else if (R.Value) {
      Diags.error(R.Loc, "'" + U.F->name() + "' cannot return a value");
    }
    return;
  }
  }
}

bool Sema::resolvePostfix(UnitState &U, ExprPtr &Slot) {
  auto &A = static_cast<ArrayRefExpr &>(*Slot);
  SymbolTable &Syms = U.F->symbols();
  SymbolID Sym = Syms.lookup(A.Name);
  if (Sym != InvalidSymbol) {
    const Symbol &Info = Syms.get(Sym);
    if (!Info.isArray()) {
      Diags.error(A.Loc, "'" + A.Name + "' is not an array");
      return false;
    }
    if (A.Indices.size() != Info.Shape.rank()) {
      Diags.error(A.Loc, "array '" + A.Name + "' has rank " +
                             std::to_string(Info.Shape.rank()) + ", got " +
                             std::to_string(A.Indices.size()) +
                             " subscripts");
      return false;
    }
    A.Sym = Sym;
    A.Ty = Info.Type;
    for (ExprPtr &I : A.Indices) {
      if (!analyzeExpr(U, I))
        return false;
      if (I->Ty != ScalarType::Int) {
        Diags.error(I->Loc, "array subscript must be integer");
        return false;
      }
    }
    return true;
  }

  // Not a local array: try a user function.
  const Function *Callee = M->function(A.Name);
  if (!Callee) {
    Diags.error(A.Loc, "use of undeclared array or function '" + A.Name + "'");
    return false;
  }
  if (!Callee->resultType()) {
    Diags.error(A.Loc,
                "subroutine '" + A.Name + "' cannot be used in an expression");
    return false;
  }
  auto Call = std::make_unique<CallExpr>(A.Loc, A.Name, std::move(A.Indices));
  Call->Ty = *Callee->resultType();
  if (!checkCallArgs(U, Call->Callee, Call->Args, Call->Loc))
    return false;
  Slot = std::move(Call);
  return true;
}

bool Sema::checkCallArgs(UnitState &U, const std::string &CalleeName,
                         std::vector<ExprPtr> &Args, SourceLocation Loc) {
  const Function *Callee = M->function(CalleeName);
  assert(Callee && "callee existence checked by caller");
  if (Args.size() != Callee->params().size()) {
    Diags.error(Loc, "'" + CalleeName + "' expects " +
                         std::to_string(Callee->params().size()) +
                         " argument(s), got " + std::to_string(Args.size()));
    return false;
  }
  bool OK = true;
  for (size_t K = 0; K != Args.size(); ++K) {
    const Symbol &Param = Callee->symbols().get(Callee->params()[K]);
    if (!analyzeExpr(U, Args[K], /*AllowWholeArray=*/Param.isArray())) {
      OK = false;
      continue;
    }
    if (Param.isArray()) {
      // Whole-array argument: must be a bare variable reference naming an
      // array with identical shape (see DESIGN.md on array parameters).
      auto *V = Args[K]->Kind == ExprKind::VarRef
                    ? static_cast<VarRefExpr *>(Args[K].get())
                    : nullptr;
      const Symbol *ArgSym =
          V && V->Sym != InvalidSymbol ? &U.F->symbols().get(V->Sym) : nullptr;
      if (!ArgSym || !ArgSym->isArray()) {
        Diags.error(Args[K]->Loc, "argument " + std::to_string(K + 1) +
                                      " of '" + CalleeName +
                                      "' must be a whole array");
        OK = false;
        continue;
      }
      if (ArgSym->Shape.rank() != Param.Shape.rank() ||
          ArgSym->Type != Param.Type) {
        Diags.error(Args[K]->Loc, "array argument " + std::to_string(K + 1) +
                                      " of '" + CalleeName +
                                      "' has mismatched rank or element type");
        OK = false;
        continue;
      }
      for (size_t D = 0; D != ArgSym->Shape.rank(); ++D) {
        if (ArgSym->Shape.Dims[D].Lower != Param.Shape.Dims[D].Lower ||
            ArgSym->Shape.Dims[D].Upper != Param.Shape.Dims[D].Upper) {
          Diags.error(Args[K]->Loc,
                      "array argument " + std::to_string(K + 1) + " of '" +
                          CalleeName + "' has mismatched bounds");
          OK = false;
          break;
        }
      }
    } else {
      if (!convertible(Args[K]->Ty, Param.Type)) {
        Diags.error(Args[K]->Loc, "argument " + std::to_string(K + 1) +
                                      " of '" + CalleeName +
                                      "' has incompatible type");
        OK = false;
      }
    }
  }
  return OK;
}

bool Sema::analyzeExpr(UnitState &U, ExprPtr &Slot, bool AllowWholeArray) {
  assert(Slot && "null expression slot");
  Expr &E = *Slot;
  SymbolTable &Syms = U.F->symbols();
  switch (E.Kind) {
  case ExprKind::IntLit:
    E.Ty = ScalarType::Int;
    return true;
  case ExprKind::RealLit:
    E.Ty = ScalarType::Real;
    return true;
  case ExprKind::BoolLit:
    E.Ty = ScalarType::Bool;
    return true;
  case ExprKind::VarRef: {
    auto &V = static_cast<VarRefExpr &>(E);
    SymbolID Sym = Syms.lookup(V.Name);
    if (Sym == InvalidSymbol) {
      Diags.error(V.Loc, "use of undeclared variable '" + V.Name + "'");
      return false;
    }
    const Symbol &Info = Syms.get(Sym);
    if (Info.isArray() && !AllowWholeArray) {
      Diags.error(V.Loc, "whole array '" + V.Name +
                             "' cannot be used in an expression");
      return false;
    }
    V.Sym = Sym;
    V.Ty = Info.Type;
    return true;
  }
  case ExprKind::ArrayRef:
    return resolvePostfix(U, Slot);
  case ExprKind::Unary: {
    auto &Un = static_cast<UnaryExpr &>(E);
    if (!analyzeExpr(U, Un.Sub))
      return false;
    switch (Un.Op) {
    case UnaryOp::Neg:
    case UnaryOp::Abs:
      if (Un.Sub->Ty == ScalarType::Bool) {
        Diags.error(Un.Loc, "numeric operator applied to logical value");
        return false;
      }
      Un.Ty = Un.Sub->Ty;
      return true;
    case UnaryOp::Not:
      if (Un.Sub->Ty != ScalarType::Bool) {
        Diags.error(Un.Loc, "'not' requires a logical operand");
        return false;
      }
      Un.Ty = ScalarType::Bool;
      return true;
    case UnaryOp::IntCast:
      if (Un.Sub->Ty == ScalarType::Bool) {
        Diags.error(Un.Loc, "int() requires a numeric operand");
        return false;
      }
      Un.Ty = ScalarType::Int;
      return true;
    case UnaryOp::RealCast:
      if (Un.Sub->Ty == ScalarType::Bool) {
        Diags.error(Un.Loc, "real() requires a numeric operand");
        return false;
      }
      Un.Ty = ScalarType::Real;
      return true;
    }
    return false;
  }
  case ExprKind::Binary: {
    auto &B = static_cast<BinaryExpr &>(E);
    if (!analyzeExpr(U, B.LHS) || !analyzeExpr(U, B.RHS))
      return false;
    ScalarType L = B.LHS->Ty, R = B.RHS->Ty;
    switch (B.Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Min:
    case BinaryOp::Max:
      if (L == ScalarType::Bool || R == ScalarType::Bool) {
        Diags.error(B.Loc, "numeric operator applied to logical value");
        return false;
      }
      B.Ty = (L == ScalarType::Real || R == ScalarType::Real)
                 ? ScalarType::Real
                 : ScalarType::Int;
      return true;
    case BinaryOp::Mod:
      if (L != ScalarType::Int || R != ScalarType::Int) {
        Diags.error(B.Loc, "mod() requires integer operands");
        return false;
      }
      B.Ty = ScalarType::Int;
      return true;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if ((L == ScalarType::Bool) != (R == ScalarType::Bool)) {
        Diags.error(B.Loc, "cannot compare logical with numeric value");
        return false;
      }
      if (L == ScalarType::Bool && B.Op != BinaryOp::Eq &&
          B.Op != BinaryOp::Ne) {
        Diags.error(B.Loc, "ordering comparison of logical values");
        return false;
      }
      B.Ty = ScalarType::Bool;
      return true;
    case BinaryOp::And:
    case BinaryOp::Or:
      if (L != ScalarType::Bool || R != ScalarType::Bool) {
        Diags.error(B.Loc, "logical operator requires logical operands");
        return false;
      }
      B.Ty = ScalarType::Bool;
      return true;
    }
    return false;
  }
  case ExprKind::Call: {
    auto &C = static_cast<CallExpr &>(E);
    const Function *Callee = M->function(C.Callee);
    if (!Callee || !Callee->resultType()) {
      Diags.error(C.Loc, "unknown function '" + C.Callee + "'");
      return false;
    }
    C.Ty = *Callee->resultType();
    return checkCallArgs(U, C.Callee, C.Args, C.Loc);
  }
  }
  return false;
}
