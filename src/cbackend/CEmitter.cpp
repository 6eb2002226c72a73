#include "cbackend/CEmitter.h"

#include "obs/Profile.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cstdint>
#include <set>

using namespace nascent;

namespace {

/// Where one function's profile counters start in the module-wide
/// tables. The tables hold the attached obs::ExecutionProfile's sites,
/// blocks and arrays, function after function, so the atexit dump lines
/// up with the interpreter's profile entry for entry.
struct CounterBase {
  size_t Fn = 0; ///< index into ExecutionProfile::functions()
  size_t Site = 0, Block = 0, Array = 0;
};

/// Per-function emission context.
class FunctionEmitter {
public:
  FunctionEmitter(const Module &M, const Function &F,
                  const obs::ExecutionProfile *Prof = nullptr,
                  CounterBase Base = {})
      : M(M), F(F), Prof(Prof), Base(Base) {}

  /// C-safe name of a symbol: user variables become v_<name>, temps keep
  /// a t<N> shape ("%t3" -> "t3"), arrays become a_<name>.
  std::string symName(SymbolID S) const {
    const Symbol &Sym = F.symbols().get(S);
    std::string Base;
    for (char C : Sym.Name)
      if (C != '%')
        Base += C;
    if (Sym.isArray())
      return "a_" + Base;
    if (Sym.Kind == SymbolKind::Temp)
      return Base; // "%t3" -> "t3", already unique
    return "v_" + Base;
  }

  static std::string cType(ScalarType T) {
    return T == ScalarType::Real ? "double" : "long long";
  }

  /// A C literal of type long long for \p V. INT64_MIN has no literal
  /// (9223372036854775808 does not fit), so it is spelled as an expression.
  static std::string intLiteral(int64_t V) {
    if (V == INT64_MIN)
      return "(-9223372036854775807LL - 1)";
    return std::to_string(V) + "LL";
  }

  std::string operand(const Value &V) const {
    switch (V.kind()) {
    case Value::Kind::Sym:
      return symName(V.symbol());
    case Value::Kind::IntConst:
    case Value::Kind::BoolConst:
      return intLiteral(V.intValue());
    case Value::Kind::RealConst:
      return formatString("%.17g", V.realValue());
    case Value::Kind::None:
      break;
    }
    return "0";
  }

  /// Column-major flattened index expression for an access.
  std::string flatIndex(const Symbol &A,
                        const std::vector<Value> &Indices) const {
    std::string Out;
    int64_t Stride = 1;
    for (size_t D = 0; D != Indices.size(); ++D) {
      const ArrayDim &Dim = A.Shape.Dims[D];
      std::string Term = "(" + operand(Indices[D]) + " - " +
                         std::to_string(Dim.Lower) + "LL)";
      if (Stride != 1)
        Term += " * " + std::to_string(Stride) + "LL";
      if (!Out.empty())
        Out += " + ";
      Out += Term;
      Stride *= Dim.extent();
    }
    return Out.empty() ? "0" : Out;
  }

  /// The check's linear form, summed with the wrapping helpers exactly as
  /// the interpreter evaluates it.
  std::string checkCond(const CheckExpr &C) const {
    std::string E;
    for (const auto &[Sym, Coeff] : C.expr().terms()) {
      std::string Term =
          "nck_mul(" + intLiteral(Coeff) + ", " + symName(Sym) + ")";
      E = E.empty() ? Term : "nck_add(" + E + ", " + Term + ")";
    }
    if (E.empty())
      E = "0LL";
    return E + " <= " + intLiteral(C.bound());
  }

  std::string signature() const {
    std::string Sig;
    if (F.resultType())
      Sig += cType(*F.resultType());
    else
      Sig += "void";
    Sig += " fn_" + F.name() + "(";
    bool First = true;
    for (SymbolID P : F.params()) {
      if (!First)
        Sig += ", ";
      First = false;
      const Symbol &S = F.symbols().get(P);
      if (S.isArray())
        Sig += cType(S.Type) + " *" + symName(P);
      else
        Sig += cType(S.Type) + " " + symName(P);
    }
    if (First)
      Sig += "void";
    Sig += ")";
    return Sig;
  }

  std::string emitBody() {
    std::string Out;
    // Local declarations (parameters are already in scope).
    std::set<SymbolID> Params(F.params().begin(), F.params().end());
    for (SymbolID S = 0; S != F.symbols().size(); ++S) {
      if (Params.count(S))
        continue;
      const Symbol &Sym = F.symbols().get(S);
      if (Sym.isArray()) {
        Out += "  " + cType(Sym.Type) + " " + symName(S) + "[" +
               std::to_string(Sym.Shape.elementCount()) + "] = {0};\n";
      } else {
        Out += "  " + cType(Sym.Type) + " " + symName(S) + " = 0;\n";
      }
    }
    Out += "  goto bb0;\n";
    for (const auto &BB : F) {
      Out += "bb" + std::to_string(BB->id()) + ": ;\n";
      if (Prof)
        Out += "  nck_count(&nck_blocks[" +
               std::to_string(Base.Block + BB->id()) + "]);\n";
      const auto &Insts = BB->instructions();
      for (uint32_t Idx = 0; Idx != Insts.size(); ++Idx)
        Out += emitInstruction(Insts[Idx], BB->id(), Idx);
      if (!BB->hasTerminator())
        Out += "  return" +
               std::string(F.resultType() ? " 0" : "") + ";\n";
    }
    return Out;
  }

private:
  std::string destType(const Instruction &I) const {
    return cType(F.symbols().get(I.Dest).Type);
  }

  std::string binaryExpr(const Instruction &I) const {
    const std::string A = operand(I.Operands[0]);
    const std::string B = operand(I.Operands[1]);
    bool Real = F.symbols().get(I.Dest).Type == ScalarType::Real;
    switch (I.Op) {
    case Opcode::Add:
      return Real ? A + " + " + B : "nck_add(" + A + ", " + B + ")";
    case Opcode::Sub:
      return Real ? A + " - " + B : "nck_sub(" + A + ", " + B + ")";
    case Opcode::Mul:
      return Real ? A + " * " + B : "nck_mul(" + A + ", " + B + ")";
    case Opcode::Div:
      if (Real)
        return "(" + B + " == 0.0 ? 0.0 : " + A + " / " + B + ")";
      return "nck_idiv(" + A + ", " + B + ")";
    case Opcode::Mod:
      return "nck_imod(" + A + ", " + B + ")";
    case Opcode::Min:
      return "(" + A + " < " + B + " ? " + A + " : " + B + ")";
    case Opcode::Max:
      return "(" + A + " > " + B + " ? " + A + " : " + B + ")";
    default:
      break;
    }
    return "0";
  }

  /// Comparison operands follow the operand types, not the (bool) dest.
  std::string cmpExpr(const Instruction &I) const {
    auto IsReal = [&](const Value &V) {
      if (V.isSym())
        return F.symbols().get(V.symbol()).Type == ScalarType::Real;
      return V.isRealConst();
    };
    std::string A = operand(I.Operands[0]);
    std::string B = operand(I.Operands[1]);
    if (IsReal(I.Operands[0]) || IsReal(I.Operands[1])) {
      A = "(double)" + A;
      B = "(double)" + B;
    }
    const char *Op = "==";
    switch (I.Op) {
    case Opcode::CmpEQ:
      Op = "==";
      break;
    case Opcode::CmpNE:
      Op = "!=";
      break;
    case Opcode::CmpLT:
      Op = "<";
      break;
    case Opcode::CmpLE:
      Op = "<=";
      break;
    case Opcode::CmpGT:
      Op = ">";
      break;
    case Opcode::CmpGE:
      Op = ">=";
      break;
    default:
      break;
    }
    return "(" + A + " " + Op + " " + B + ") ? 1 : 0";
  }

  std::string emitInstruction(const Instruction &I, BlockID Block,
                              uint32_t Idx) {
    std::string Out;
    auto Line = [&](const std::string &S) { Out += "  " + S + "\n"; };

    // Instrumentation mirrors the interpreter's counting exactly.
    if (I.isRangeCheck())
      Line("nck_checks++;" + std::string(I.Op == Opcode::CondCheck
                                             ? " nck_condchecks++;"
                                             : ""));
    else if (I.Op == Opcode::Load || I.Op == Opcode::Store)
      Line("nck_instrs += " + std::to_string(instructionCost(I)) + ";");
    else
      Line("nck_instrs++;");

    // Profile counters: a site's hit counter bumps on every execution
    // (even when CondCheck guards are false, matching the interpreter's
    // noteCheck), the trap counter right before the trap exit.
    size_t SiteSlot = ~size_t(0);
    if (Prof && I.isRangeCheck()) {
      int32_t Site = Prof->siteIndex(Base.Fn, Block, Idx);
      assert(Site >= 0 && "profile attached to this module");
      SiteSlot = Base.Site + Site;
      Line("nck_count(&nck_site_hits[" + std::to_string(SiteSlot) + "]);");
    }
    std::string TrapProfile =
        SiteSlot == ~size_t(0)
            ? std::string()
            : "nck_count(&nck_site_traps[" + std::to_string(SiteSlot) +
                  "]); ";

    switch (I.Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Min:
    case Opcode::Max:
      Line(symName(I.Dest) + " = " + binaryExpr(I) + ";");
      break;
    case Opcode::Neg:
      if (F.symbols().get(I.Dest).Type == ScalarType::Real)
        Line(symName(I.Dest) + " = -" + operand(I.Operands[0]) + ";");
      else
        Line(symName(I.Dest) + " = nck_neg(" + operand(I.Operands[0]) +
             ");");
      break;
    case Opcode::Abs: {
      std::string A = operand(I.Operands[0]);
      if (F.symbols().get(I.Dest).Type == ScalarType::Real)
        Line(symName(I.Dest) + " = (" + A + " < 0 ? -" + A + " : " + A +
             ");");
      else
        Line(symName(I.Dest) + " = nck_abs(" + A + ");");
      break;
    }
    case Opcode::CmpEQ:
    case Opcode::CmpNE:
    case Opcode::CmpLT:
    case Opcode::CmpLE:
    case Opcode::CmpGT:
    case Opcode::CmpGE:
      Line(symName(I.Dest) + " = " + cmpExpr(I) + ";");
      break;
    case Opcode::And:
      Line(symName(I.Dest) + " = (" + operand(I.Operands[0]) +
           " != 0 && " + operand(I.Operands[1]) + " != 0) ? 1 : 0;");
      break;
    case Opcode::Or:
      Line(symName(I.Dest) + " = (" + operand(I.Operands[0]) +
           " != 0 || " + operand(I.Operands[1]) + " != 0) ? 1 : 0;");
      break;
    case Opcode::Not:
      Line(symName(I.Dest) + " = (" + operand(I.Operands[0]) +
           " == 0) ? 1 : 0;");
      break;
    case Opcode::Copy:
      Line(symName(I.Dest) + " = " + operand(I.Operands[0]) + ";");
      break;
    case Opcode::IntToReal:
      Line(symName(I.Dest) + " = (double)" + operand(I.Operands[0]) + ";");
      break;
    case Opcode::RealToInt:
      Line(symName(I.Dest) + " = (long long)" + operand(I.Operands[0]) +
           ";");
      break;
    case Opcode::Load: {
      const Symbol &A = F.symbols().get(I.Array);
      Line(symName(I.Dest) + " = " + symName(I.Array) + "[" +
           flatIndex(A, I.Indices) + "];");
      if (Prof)
        Line("nck_count(&nck_arr_loads[" + arraySlot(I.Array) + "]);");
      break;
    }
    case Opcode::Store: {
      const Symbol &A = F.symbols().get(I.Array);
      Line(symName(I.Array) + "[" + flatIndex(A, I.Indices) + "] = " +
           operand(I.Operands[0]) + ";");
      if (Prof)
        Line("nck_count(&nck_arr_stores[" + arraySlot(I.Array) + "]);");
      break;
    }
    case Opcode::Check:
      Line("if (!(" + checkCond(I.Check) + ")) { " + TrapProfile +
           "nck_trap(\"" +
           (I.Origin.ArrayName.empty() ? std::string("range check")
                                       : "array " + I.Origin.ArrayName) +
           "\"); }");
      break;
    case Opcode::CondCheck: {
      std::string Guards;
      for (const CheckExpr &G : I.Guards) {
        if (!Guards.empty())
          Guards += " && ";
        Guards += "(" + checkCond(G) + ")";
      }
      Line("if (" + Guards + ") { if (!(" + checkCond(I.Check) + ")) { " +
           TrapProfile + "nck_trap(\"" +
           (I.Origin.ArrayName.empty() ? std::string("range check")
                                       : "array " + I.Origin.ArrayName) +
           "\"); } }");
      break;
    }
    case Opcode::Trap:
      Line("nck_trap(\"compile-time detected violation\");");
      break;
    case Opcode::Br:
      Line("if (" + operand(I.Operands[0]) + " != 0) goto bb" +
           std::to_string(I.TrueTarget) + "; else goto bb" +
           std::to_string(I.FalseTarget) + ";");
      break;
    case Opcode::Jump:
      Line("goto bb" + std::to_string(I.TrueTarget) + ";");
      break;
    case Opcode::Ret:
      if (F.resultType())
        Line("return " +
             (I.Operands.empty() ? std::string("0")
                                 : operand(I.Operands[0])) +
             ";");
      else
        Line("return;");
      break;
    case Opcode::Call: {
      const Function *Callee = M.function(I.Callee);
      assert(Callee && "verified module");
      std::string CallStr = "fn_" + I.Callee + "(";
      for (size_t K = 0; K != I.Operands.size(); ++K) {
        if (K)
          CallStr += ", ";
        const Symbol &PS = Callee->symbols().get(Callee->params()[K]);
        if (PS.isArray())
          CallStr += symName(I.Operands[K].symbol());
        else if (PS.Type == ScalarType::Real)
          CallStr += "(double)" + operand(I.Operands[K]);
        else
          CallStr += "(long long)" + operand(I.Operands[K]);
      }
      CallStr += ")";
      if (I.Dest != InvalidSymbol)
        Line(symName(I.Dest) + " = " + CallStr + ";");
      else
        Line(CallStr + ";");
      break;
    }
    case Opcode::Print: {
      const Value &V = I.Operands[0];
      bool Real = V.isRealConst() ||
                  (V.isSym() && F.symbols().get(V.symbol()).Type ==
                                    ScalarType::Real);
      bool Bool = V.isBoolConst() ||
                  (V.isSym() && F.symbols().get(V.symbol()).Type ==
                                    ScalarType::Bool);
      if (Real)
        Line("printf(\"%.6g\\n\", (double)" + operand(V) + ");");
      else if (Bool)
        Line("printf(\"%s\\n\", " + operand(V) + " ? \"T\" : \"F\");");
      else
        Line("printf(\"%lld\\n\", (long long)" + operand(V) + ");");
      break;
    }
    }
    return Out;
  }

  /// The counter slot of array symbol \p Array.
  std::string arraySlot(SymbolID Array) const {
    int32_t Slot = Prof->arrayIndex(Base.Fn, Array);
    assert(Slot >= 0 && "loads and stores name arrays");
    return std::to_string(Base.Array + Slot);
  }

  const Module &M;
  const Function &F;
  const obs::ExecutionProfile *Prof = nullptr;
  CounterBase Base;
};

/// The static counter tables, the saturating bump helper, and the atexit
/// dump, laid out from \p P. Every table has at least one slot so empty
/// modules stay valid C.
std::string emitProfileRuntime(const obs::ExecutionProfile &P) {
  size_t Blocks = 0, Arrays = 0;
  for (const obs::FunctionProfile &FP : P.functions()) {
    Blocks += FP.BlockCounts.size();
    Arrays += FP.Arrays.size();
  }
  auto Dim = [](size_t N) { return std::to_string(N ? N : 1); };
  std::string Out;
  Out += "/* Execution-profile counter tables: one slot per check site, "
         "block, and array. */\n";
  Out += "static unsigned long long nck_site_hits[" + Dim(P.residualSites()) +
         "], nck_site_traps[" + Dim(P.residualSites()) + "];\n";
  Out += "static unsigned long long nck_blocks[" + Dim(Blocks) + "];\n";
  Out += "static unsigned long long nck_arr_loads[" + Dim(Arrays) +
         "], nck_arr_stores[" + Dim(Arrays) + "];\n\n";
  Out += "static void nck_count(unsigned long long *C) {\n"
         "  if (*C != 0xFFFFFFFFFFFFFFFFULL) ++*C; /* saturate, don't wrap "
         "*/\n}\n\n";
  Out += "static void nck_profile_dump(void) {\n";
  size_t Slot = 0;
  for (const obs::FunctionProfile &FP : P.functions())
    for (const obs::CheckSiteProfile &S : FP.Sites) {
      std::string K = std::to_string(Slot++);
      Out += "  fprintf(stderr, \"[nascent-profsite] func=" + FP.Name +
             " block=" + std::to_string(S.Block) +
             " index=" + std::to_string(S.Index) +
             " tag=" + std::to_string(S.Tag) +
             " hits=%llu traps=%llu\\n\", nck_site_hits[" + K +
             "], nck_site_traps[" + K + "]);\n";
    }
  Slot = 0;
  for (const obs::FunctionProfile &FP : P.functions())
    for (size_t B = 0; B != FP.BlockCounts.size(); ++B)
      Out += "  fprintf(stderr, \"[nascent-profblock] func=" + FP.Name +
             " block=" + std::to_string(B) + " count=%llu\\n\", nck_blocks[" +
             std::to_string(Slot++) + "]);\n";
  Slot = 0;
  for (const obs::FunctionProfile &FP : P.functions())
    for (const obs::ArrayProfile &A : FP.Arrays) {
      std::string K = std::to_string(Slot++);
      Out += "  fprintf(stderr, \"[nascent-profarray] func=" + FP.Name +
             " array=" + A.Name + " loads=%llu stores=%llu\\n\", "
             "nck_arr_loads[" + K + "], nck_arr_stores[" + K + "]);\n";
    }
  Out += "}\n\n";
  return Out;
}

} // namespace

std::string nascent::emitModuleToC(const Module &M,
                                   const CEmitOptions &Opts) {
  obs::ExecutionProfile Layout;
  if (Opts.Profile)
    Layout.attach(M);
  std::string Out;
  Out += "/* Generated by nascent-rangecheck's instrumented-C back end. */\n";
  Out += "#include <stdio.h>\n#include <stdlib.h>\n\n";
  Out += "static unsigned long long nck_instrs = 0, nck_checks = 0, "
         "nck_condchecks = 0;\n\n";
  if (Opts.Profile)
    Out += emitProfileRuntime(Layout);
  Out += "static void nck_report(void) {\n"
         "  fprintf(stderr, \"[nascent-counts] instrs=%llu checks=%llu "
         "condchecks=%llu\\n\",\n"
         "          nck_instrs, nck_checks, nck_condchecks);\n}\n\n";
  Out += "static void nck_trap(const char *What) {\n"
         "  fprintf(stderr, \"[nascent-trap] range check failed: %s\\n\", "
         "What);\n"
         "  nck_report();\n  exit(2);\n}\n\n";
  // Integer arithmetic wraps (64-bit two's complement, as the interpreter
  // computes it: support/Wrapping.h); done on unsigned long long, where C
  // defines wrap-around, it is never undefined behaviour.
  Out += "static long long nck_add(long long A, long long B) {\n"
         "  return (long long)((unsigned long long)A + (unsigned long long)B);"
         "\n}\n\n";
  Out += "static long long nck_sub(long long A, long long B) {\n"
         "  return (long long)((unsigned long long)A - (unsigned long long)B);"
         "\n}\n\n";
  Out += "static long long nck_mul(long long A, long long B) {\n"
         "  return (long long)((unsigned long long)A * (unsigned long long)B);"
         "\n}\n\n";
  Out += "static long long nck_neg(long long A) {\n"
         "  return (long long)(0ULL - (unsigned long long)A);\n}\n\n";
  Out += "static long long nck_abs(long long A) {\n"
         "  return A < 0 ? nck_neg(A) : A;\n}\n\n";
  Out += "static long long nck_idiv(long long A, long long B) {\n"
         "  if (B == 0) { fprintf(stderr, \"[nascent-trap] division by "
         "zero\\n\"); exit(3); }\n"
         "  return B == -1 ? nck_neg(A) : A / B;\n}\n\n";
  Out += "static long long nck_imod(long long A, long long B) {\n"
         "  if (B == 0) { fprintf(stderr, \"[nascent-trap] mod by "
         "zero\\n\"); exit(3); }\n"
         "  return B == -1 ? 0 : A % B;\n}\n\n";

  // Prototypes first (callees may appear in any order).
  for (const Function *F : M.functions()) {
    FunctionEmitter FE(M, *F);
    Out += "static " + FE.signature() + ";\n";
  }
  Out += "\n";

  CounterBase Base;
  for (const Function *F : M.functions()) {
    FunctionEmitter FE(M, *F, Opts.Profile ? &Layout : nullptr, Base);
    Out += "static " + FE.signature() + " {\n";
    Out += FE.emitBody();
    Out += "}\n\n";
    if (Opts.Profile) {
      const obs::FunctionProfile &FP = Layout.functions()[Base.Fn];
      Base.Site += FP.Sites.size();
      Base.Block += FP.BlockCounts.size();
      Base.Array += FP.Arrays.size();
    }
    ++Base.Fn;
  }

  Out += "int main(void) {\n";
  if (Opts.Profile)
    Out += "  atexit(nck_profile_dump); /* survives the trap exit */\n";
  Out += "  fn_" + M.entryName() + "();\n  nck_report();\n  return 0;\n}\n";
  return Out;
}
