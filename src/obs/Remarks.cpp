#include "obs/Remarks.h"

#include "ir/Function.h"
#include "obs/Json.h"
#include "obs/Profile.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace nascent;
using namespace nascent::obs;

const char *obs::remarkKindName(RemarkKind K) {
  switch (K) {
  case RemarkKind::Eliminated:
    return "eliminated";
  case RemarkKind::Strengthened:
    return "strengthened";
  case RemarkKind::LcmInserted:
    return "lcm-inserted";
  case RemarkKind::CondInserted:
    return "cond-inserted";
  case RemarkKind::Rehoisted:
    return "rehoisted";
  case RemarkKind::CompileTimeDeleted:
    return "compile-time-deleted";
  case RemarkKind::CompileTimeTrap:
    return "compile-time-trap";
  case RemarkKind::IntervalEliminated:
    return "interval-eliminated";
  case RemarkKind::Residual:
    return "residual";
  }
  return "unknown";
}

void RemarkCollector::enable(const std::string &FilterRegex) {
  Enabled = true;
  HasFilter = !FilterRegex.empty();
  if (HasFilter)
    Filter = std::regex(FilterRegex);
}

void RemarkCollector::emit(Remark R) {
  if (!Enabled)
    return;
  if (HasFilter && !std::regex_search(R.FamilyStr, Filter) &&
      !std::regex_search(R.Origin.ArrayName, Filter))
    return;
  All.push_back(std::move(R));
}

size_t RemarkCollector::count(RemarkKind K) const {
  size_t N = 0;
  for (const Remark &R : All)
    if (R.Kind == K)
      ++N;
  return N;
}

void RemarkCollector::renderText(std::ostream &OS) const {
  for (const Remark &R : All) {
    OS << "remark: " << R.Function << ":" << R.Block << ": [" << R.Pass
       << "] " << remarkKindName(R.Kind) << " " << R.CheckStr;
    if (!R.Origin.ArrayName.empty())
      OS << " (array '" << R.Origin.ArrayName << "' dim " << R.Origin.Dim
         << " " << (R.Origin.IsUpper ? "upper" : "lower") << " bound)";
    if (!R.Justification.empty())
      OS << ": " << R.Justification;
    if (R.HasDynCount)
      OS << " [executed " << R.DynCount << " times]";
    OS << "\n";
  }
}

void RemarkCollector::writeJson(JsonWriter &W) const {
  W.beginArray();
  for (const Remark &R : All) {
    W.beginObject();
    W.kv("kind", remarkKindName(R.Kind));
    W.kv("pass", R.Pass);
    W.kv("function", R.Function);
    W.kv("block", R.Block);
    W.kv("check", R.CheckStr);
    W.kv("family", R.FamilyStr);
    W.kv("bound", R.Bound);
    if (!R.Origin.ArrayName.empty()) {
      W.key("origin").beginObject();
      W.kv("array", R.Origin.ArrayName);
      W.kv("dim", R.Origin.Dim);
      W.kv("side", R.Origin.IsUpper ? "upper" : "lower");
      W.endObject();
    }
    W.kv("justification", R.Justification);
    if (R.HasDynCount)
      W.kv("dynCount", R.DynCount);
    W.endObject();
  }
  W.endArray();
}

std::string RemarkCollector::toJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

bool obs::remarkKindOf(const LifecycleEvent &E, RemarkKind &Out) {
  using LK = LifecycleKind;
  using RK = RemarkKind;
  // A null pass matches any pass.
  static const struct {
    LK Event;
    const char *Pass;
    RK Remark;
  } Mapping[] = {
      {LK::SubsumedBy, "Elimination", RK::Eliminated},
      {LK::Strengthened, "CheckStrengthening", RK::Strengthened},
      {LK::Inserted, "LazyCodeMotion", RK::LcmInserted},
      {LK::Inserted, "PreheaderInsertion", RK::CondInserted},
      {LK::Moved, "PreheaderInsertion", RK::Rehoisted},
      {LK::Eliminated, "Elimination", RK::CompileTimeDeleted},
      {LK::Trapped, nullptr, RK::CompileTimeTrap},
      {LK::Eliminated, "IntervalAnalysis", RK::IntervalEliminated},
  };
  for (const auto &M : Mapping)
    if (E.Kind == M.Event && (!M.Pass || E.Pass == M.Pass)) {
      Out = M.Remark;
      return true;
    }
  return false;
}

void obs::emitEventRemarks(const Function &F,
                           const std::vector<LifecycleEvent> &Events,
                           size_t First, RemarkCollector &RC) {
  for (size_t I = First; I < Events.size(); ++I) {
    const LifecycleEvent &E = Events[I];
    Remark R;
    if (!remarkKindOf(E, R.Kind))
      continue;
    R.Pass = E.Pass;
    R.Function = E.Function;
    R.Block = E.Block;
    R.CheckStr = E.CheckStr;
    R.FamilyStr = E.Check.expr().str(F.symbols());
    R.Bound = E.Check.bound();
    R.Origin = E.Origin;
    R.Justification = E.Justification;
    RC.emit(std::move(R));
  }
}

void obs::emitResidualCheckRemarks(const Module &M,
                                   const ExecutionProfile &Profile,
                                   RemarkCollector &RC) {
  if (!RC.enabled())
    return;
  for (const Function *F : M.functions()) {
    size_t Fn = Profile.functionIndex(F);
    assert(Fn != ExecutionProfile::NoFunction && "profile of another module");
    const FunctionProfile &FP = Profile.functions()[Fn];
    for (const CheckSiteProfile &S : FP.Sites) {
      const Instruction &I = F->block(S.Block)->instructions()[S.Index];
      Remark R;
      R.Kind = RemarkKind::Residual;
      R.Pass = "Interpreter";
      R.Function = F->name();
      R.Block = FP.BlockNames[S.Block];
      R.CheckStr = S.CheckStr;
      R.FamilyStr = I.Check.expr().str(F->symbols());
      R.Bound = I.Check.bound();
      R.Origin = S.Origin;
      R.DynCount = S.Hits;
      R.HasDynCount = true;
      R.Justification = S.Conditional
                            ? "conditional check survived optimization"
                            : "check survived optimization";
      RC.emit(R);
    }
  }
}
