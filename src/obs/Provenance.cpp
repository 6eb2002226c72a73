#include "obs/Provenance.h"

#include "ir/Function.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

using namespace nascent;
using namespace nascent::obs;

const char *obs::lifecycleKindName(LifecycleKind K) {
  switch (K) {
  case LifecycleKind::Inserted:
    return "inserted";
  case LifecycleKind::Strengthened:
    return "strengthened";
  case LifecycleKind::Moved:
    return "moved";
  case LifecycleKind::SubsumedBy:
    return "subsumed-by";
  case LifecycleKind::Eliminated:
    return "eliminated";
  case LifecycleKind::Trapped:
    return "trapped";
  case LifecycleKind::Residualized:
    return "residualized";
  }
  return "unknown";
}

bool obs::isTerminalLifecycleKind(LifecycleKind K) {
  switch (K) {
  case LifecycleKind::SubsumedBy:
  case LifecycleKind::Eliminated:
  case LifecycleKind::Trapped:
  case LifecycleKind::Residualized:
    return true;
  case LifecycleKind::Inserted:
  case LifecycleKind::Strengthened:
  case LifecycleKind::Moved:
    return false;
  }
  return false;
}

void ProvenanceRecorder::record(LifecycleEvent E) {
  if (!Enabled)
    return;
  E.Seq = static_cast<uint32_t>(All.size());
  All.push_back(std::move(E));
}

size_t ProvenanceRecorder::count(LifecycleKind K,
                                 const std::string &Pass) const {
  size_t N = 0;
  for (const LifecycleEvent &E : All)
    if (E.Kind == K && (Pass.empty() || E.Pass == Pass))
      ++N;
  return N;
}

std::vector<CheckTag> ProvenanceRecorder::tags() const {
  std::vector<CheckTag> Out;
  std::set<CheckTag> Seen;
  for (const LifecycleEvent &E : All)
    if (Seen.insert(E.Tag).second)
      Out.push_back(E.Tag);
  return Out;
}

const LifecycleEvent *ProvenanceRecorder::lastEventOf(CheckTag Tag) const {
  const LifecycleEvent *Last = nullptr;
  for (const LifecycleEvent &E : All)
    if (E.Tag == Tag)
      Last = &E;
  return Last;
}

std::vector<size_t> ProvenanceRecorder::timelineOf(CheckTag Tag) const {
  std::vector<size_t> Out;
  for (size_t I = 0; I != All.size(); ++I)
    if (All[I].Tag == Tag)
      Out.push_back(I);
  return Out;
}

namespace {

void writeOrigin(JsonWriter &W, const CheckOrigin &O) {
  W.key("origin").beginObject();
  W.kv("array", O.ArrayName);
  W.kv("dim", O.Dim);
  W.kv("side", O.IsUpper ? "upper" : "lower");
  W.kv("line", O.Loc.Line);
  W.kv("col", O.Loc.Column);
  W.endObject();
}

} // namespace

void ProvenanceRecorder::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.key("events").beginArray();
  for (const LifecycleEvent &E : All) {
    W.beginObject();
    W.kv("seq", E.Seq);
    W.kv("tag", E.Tag);
    W.kv("kind", lifecycleKindName(E.Kind));
    W.kv("pass", E.Pass);
    W.kv("function", E.Function);
    W.kv("block", E.Block);
    W.kv("check", E.CheckStr);
    W.kv("bound", E.Check.bound());
    writeOrigin(W, E.Origin);
    W.kv("justification", E.Justification);
    if (E.OtherTag != NoCheckTag)
      W.kv("otherTag", E.OtherTag);
    if (!E.Edge.empty())
      W.kv("edge", E.Edge);
    W.endObject();
  }
  W.endArray();

  W.key("checks").beginArray();
  for (CheckTag Tag : tags()) {
    std::vector<size_t> Chain = timelineOf(Tag);
    W.beginObject();
    W.kv("tag", Tag);
    W.kv("function", All[Chain.front()].Function);
    W.kv("terminal", lifecycleKindName(All[Chain.back()].Kind));
    W.key("events").beginArray();
    for (size_t I : Chain)
      W.value(static_cast<uint64_t>(All[I].Seq));
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string ProvenanceRecorder::toJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

namespace {

std::string dotEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string ProvenanceRecorder::toDot() const {
  std::ostringstream OS;
  OS << "digraph check_provenance {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontname=\"monospace\"];\n";
  for (CheckTag Tag : tags()) {
    const LifecycleEvent *Last = lastEventOf(Tag);
    OS << "  t" << Tag << " [label=\"t" << Tag << ": "
       << dotEscape(Last->CheckStr) << "\\n" << Last->Function << " ["
       << lifecycleKindName(Last->Kind) << "]\"";
    if (Last->Kind == LifecycleKind::Residualized)
      OS << ", style=bold";
    else if (Last->Kind == LifecycleKind::Trapped)
      OS << ", color=red";
    OS << "];\n";
  }
  for (const LifecycleEvent &E : All) {
    if (E.Kind != LifecycleKind::SubsumedBy || E.OtherTag == NoCheckTag)
      continue;
    OS << "  t" << E.OtherTag << " -> t" << E.Tag << " [label=\""
       << dotEscape(E.Pass) << "\"];\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string ProvenanceRecorder::explainTag(CheckTag Tag) const {
  std::vector<size_t> Chain = timelineOf(Tag);
  if (Chain.empty())
    return std::string();
  std::ostringstream OS;
  const LifecycleEvent &First = All[Chain.front()];
  OS << "check t" << Tag << " " << First.CheckStr;
  if (!First.Origin.ArrayName.empty())
    OS << " (array '" << First.Origin.ArrayName << "' dim "
       << First.Origin.Dim << " "
       << (First.Origin.IsUpper ? "upper" : "lower") << " bound)";
  OS << " at " << First.Origin.Loc.str() << ":\n";
  for (size_t I : Chain) {
    const LifecycleEvent &E = All[I];
    OS << "  #" << E.Seq << " [" << E.Pass << "] "
       << lifecycleKindName(E.Kind) << " in " << E.Function << ":"
       << E.Block;
    if (E.Kind == LifecycleKind::SubsumedBy) {
      if (E.OtherTag != NoCheckTag)
        OS << " by t" << E.OtherTag;
      if (!E.Edge.empty())
        OS << " via " << E.Edge;
    } else if (!E.Edge.empty()) {
      OS << " (was " << E.Edge << ")";
    }
    if (E.CheckStr != First.CheckStr &&
        (E.Kind == LifecycleKind::Strengthened ||
         E.Kind == LifecycleKind::Moved))
      OS << " now " << E.CheckStr;
    if (!E.Justification.empty())
      OS << ": " << E.Justification;
    OS << "\n";
  }
  return OS.str();
}

std::string ProvenanceRecorder::explainSite(unsigned Line,
                                            unsigned Column) const {
  std::string Out;
  for (CheckTag Tag : tags()) {
    std::vector<size_t> Chain = timelineOf(Tag);
    const LifecycleEvent &First = All[Chain.front()];
    if (First.Origin.Loc.Line != Line)
      continue;
    if (Column != 0 && First.Origin.Loc.Column != Column)
      continue;
    Out += explainTag(Tag);
  }
  return Out;
}

std::vector<std::string> ProvenanceRecorder::validate() const {
  std::vector<std::string> Problems;
  std::set<CheckTag> Known;
  for (const LifecycleEvent &E : All)
    Known.insert(E.Tag);
  for (const LifecycleEvent &E : All) {
    if (E.Tag == NoCheckTag)
      Problems.push_back("event #" + std::to_string(E.Seq) +
                         " has no check tag");
    if (E.OtherTag != NoCheckTag && !Known.count(E.OtherTag))
      Problems.push_back("event #" + std::to_string(E.Seq) +
                         " references unrecorded tag t" +
                         std::to_string(E.OtherTag));
  }
  for (CheckTag Tag : tags()) {
    std::vector<size_t> Chain = timelineOf(Tag);
    for (size_t I = 0; I + 1 < Chain.size(); ++I)
      if (isTerminalLifecycleKind(All[Chain[I]].Kind))
        Problems.push_back("check t" + std::to_string(Tag) +
                           " has events after terminal state " +
                           lifecycleKindName(All[Chain[I]].Kind));
    if (!isTerminalLifecycleKind(All[Chain.back()].Kind))
      Problems.push_back("check t" + std::to_string(Tag) +
                         " lifecycle ends in non-terminal state " +
                         lifecycleKindName(All[Chain.back()].Kind));
  }
  return Problems;
}

LifecycleEvent obs::makeLifecycleEvent(LifecycleKind Kind, std::string Pass,
                                       const Function &F,
                                       const BasicBlock &BB,
                                       const Instruction &I,
                                       std::string Justification) {
  LifecycleEvent E;
  E.Tag = I.Tag;
  E.Kind = Kind;
  E.Pass = std::move(Pass);
  E.Function = F.name();
  E.Block = BB.name();
  E.CheckStr = I.Check.str(F.symbols());
  E.Check = I.Check;
  E.Origin = I.Origin;
  E.Justification = std::move(Justification);
  return E;
}

void obs::recordInsertedChecks(const Module &M, const std::string &Pass,
                               ProvenanceRecorder &PR) {
  if (!PR.enabled())
    return;
  for (const Function *F : M.functions())
    for (const auto &BB : *F)
      for (const Instruction &I : BB->instructions()) {
        if (!I.isRangeCheck() || I.Tag == NoCheckTag)
          continue;
        PR.record(makeLifecycleEvent(
            LifecycleKind::Inserted, Pass, *F, *BB, I,
            "naive range check for the subscript expression"));
      }
}

void obs::recordResidualChecks(const Module &M, ProvenanceRecorder &PR) {
  if (!PR.enabled())
    return;
  for (const Function *F : M.functions())
    for (const auto &BB : *F)
      for (const Instruction &I : BB->instructions()) {
        if (!I.isRangeCheck() || I.Tag == NoCheckTag)
          continue;
        PR.record(makeLifecycleEvent(
            LifecycleKind::Residualized, "Pipeline", *F, *BB, I,
            I.Op == Opcode::CondCheck
                ? "conditional check survived optimization"
                : "check survived optimization"));
      }
}

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

bool knownKind(const std::string &Name, bool *Terminal = nullptr) {
  static const struct {
    const char *Name;
    bool Terminal;
  } Kinds[] = {
      {"inserted", false},    {"strengthened", false}, {"moved", false},
      {"subsumed-by", true},  {"eliminated", true},    {"trapped", true},
      {"residualized", true},
  };
  for (const auto &K : Kinds)
    if (Name == K.Name) {
      if (Terminal)
        *Terminal = K.Terminal;
      return true;
    }
  return false;
}

} // namespace

bool obs::validateProvenanceDocument(const JsonValue &Doc,
                                     std::string *Err) {
  if (!Doc.isObject())
    return fail(Err, "document is not a JSON object");

  const JsonValue *Version = Doc.get("schemaVersion");
  if (!Version || !Version->isNumber())
    return fail(Err, "missing numeric field 'schemaVersion'");
  if (Version->Number != static_cast<double>(BenchSchemaVersion))
    return fail(Err, "unknown schemaVersion " +
                         std::to_string(Version->Number) + " (expected " +
                         std::to_string(BenchSchemaVersion) + ")");

  const JsonValue *Prov = Doc.get("provenance");
  if (!Prov || !Prov->isObject())
    return fail(Err, "missing object field 'provenance'");

  const JsonValue *Events = Prov->get("events");
  if (!Events || !Events->isArray())
    return fail(Err, "provenance missing array field 'events'");

  std::set<double> Tags;
  for (size_t I = 0; I != Events->Array.size(); ++I) {
    const JsonValue &E = Events->Array[I];
    std::string At = "events[" + std::to_string(I) + "]";
    if (!E.isObject())
      return fail(Err, At + " is not an object");
    for (const char *Key : {"seq", "tag", "bound"}) {
      const JsonValue *F = E.get(Key);
      if (!F || !F->isNumber())
        return fail(Err,
                    At + " missing numeric field '" + std::string(Key) + "'");
    }
    for (const char *Key :
         {"kind", "pass", "function", "block", "check", "justification"}) {
      const JsonValue *F = E.get(Key);
      if (!F || !F->isString())
        return fail(Err,
                    At + " missing string field '" + std::string(Key) + "'");
    }
    if (!knownKind(E.get("kind")->String))
      return fail(Err, At + " has unknown kind '" + E.get("kind")->String +
                           "'");
    const JsonValue *Origin = E.get("origin");
    if (!Origin || !Origin->isObject())
      return fail(Err, At + " missing object field 'origin'");
    Tags.insert(E.get("tag")->Number);
  }
  // Dangling-reference check: every otherTag must name a recorded check.
  for (size_t I = 0; I != Events->Array.size(); ++I) {
    const JsonValue *Other = Events->Array[I].get("otherTag");
    if (!Other)
      continue;
    if (!Other->isNumber())
      return fail(Err, "events[" + std::to_string(I) +
                           "].otherTag is not a number");
    if (!Tags.count(Other->Number))
      return fail(Err, "events[" + std::to_string(I) +
                           "] references dangling check tag " +
                           std::to_string(Other->Number));
  }

  const JsonValue *Checks = Prov->get("checks");
  if (!Checks || !Checks->isArray())
    return fail(Err, "provenance missing array field 'checks'");
  for (size_t I = 0; I != Checks->Array.size(); ++I) {
    const JsonValue &C = Checks->Array[I];
    std::string At = "checks[" + std::to_string(I) + "]";
    if (!C.isObject())
      return fail(Err, At + " is not an object");
    const JsonValue *Tag = C.get("tag");
    if (!Tag || !Tag->isNumber())
      return fail(Err, At + " missing numeric field 'tag'");
    if (!Tags.count(Tag->Number))
      return fail(Err, At + " names dangling check tag " +
                           std::to_string(Tag->Number));
    const JsonValue *Terminal = C.get("terminal");
    if (!Terminal || !Terminal->isString())
      return fail(Err, At + " missing string field 'terminal'");
    bool IsTerminal = false;
    if (!knownKind(Terminal->String, &IsTerminal) || !IsTerminal)
      return fail(Err, At + " terminal state '" + Terminal->String +
                           "' is not a terminal lifecycle kind");
    const JsonValue *Chain = C.get("events");
    if (!Chain || !Chain->isArray() || Chain->Array.empty())
      return fail(Err, At + " missing non-empty array field 'events'");
    for (const JsonValue &Ref : Chain->Array)
      if (!Ref.isNumber() ||
          Ref.Number >= static_cast<double>(Events->Array.size()))
        return fail(Err, At + " event reference out of range");
  }
  return true;
}
