#include "opt/RangeCheckOptimizer.h"

#include "obs/Json.h"
#include "obs/StatRegistry.h"
#include "opt/CheckContext.h"
#include "opt/CheckStrengthening.h"
#include "opt/Elimination.h"
#include "opt/LazyCodeMotion.h"
#include "opt/IntervalAnalysis.h"
#include "opt/PreheaderInsertion.h"

#include <cctype>

using namespace nascent;

NASCENT_STAT(NumFunctionsOptimized, "opt.functions",
             "functions run through the range-check optimizer");

bool nascent::parsePlacementScheme(const std::string &Name,
                                   PlacementScheme &Out) {
  std::string Upper = Name;
  for (char &C : Upper)
    C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
  for (PlacementScheme S : AllPlacementSchemes) {
    if (Upper == placementSchemeName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

const char *nascent::placementSchemeNames() {
  static const std::string Names = [] {
    std::string L;
    for (PlacementScheme S : AllPlacementSchemes) {
      if (!L.empty())
        L += ", ";
      L += placementSchemeName(S);
    }
    return L;
  }();
  return Names.c_str();
}

const char *nascent::placementSchemeName(PlacementScheme S) {
  switch (S) {
  case PlacementScheme::NI:
    return "NI";
  case PlacementScheme::CS:
    return "CS";
  case PlacementScheme::LNI:
    return "LNI";
  case PlacementScheme::SE:
    return "SE";
  case PlacementScheme::LI:
    return "LI";
  case PlacementScheme::LLS:
    return "LLS";
  case PlacementScheme::ALL:
    return "ALL";
  case PlacementScheme::MCM:
    return "MCM";
  case PlacementScheme::AI:
    return "AI";
  }
  return "?";
}

// Pin the struct layout to the X-macro: a new field changes the size and
// fails this assert until NASCENT_OPTIMIZER_STATS_FIELDS is extended.
static_assert(sizeof(OptimizerStats) ==
                  10 * sizeof(unsigned) + 2 * sizeof(size_t),
              "OptimizerStats and NASCENT_OPTIMIZER_STATS_FIELDS are out of "
              "sync: extend the field list when adding a field");

OptimizerStats &OptimizerStats::operator+=(const OptimizerStats &R) {
#define NASCENT_X(F) F += R.F;
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
  return *this;
}

void OptimizerStats::print(std::ostream &OS) const {
#define NASCENT_X(F) OS << #F << ": " << F << "\n";
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
}

void OptimizerStats::writeJson(obs::JsonWriter &W) const {
  W.beginObject();
#define NASCENT_X(F) W.kv(#F, static_cast<uint64_t>(F));
  NASCENT_OPTIMIZER_STATS_FIELDS(NASCENT_X)
#undef NASCENT_X
  W.endObject();
}

std::string OptimizerStats::toJson() const {
  obs::JsonWriter W;
  writeJson(W);
  return W.take();
}

namespace {

unsigned countStaticChecks(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F)
    for (const Instruction &I : BB->instructions())
      if (I.isRangeCheck())
        ++N;
  return N;
}

} // namespace

OptimizerStats nascent::optimizeFunction(Function &F,
                                         const RangeCheckOptions &Opts,
                                         DiagnosticEngine &Diags) {
  OptimizerStats Stats;
  Stats.ChecksBefore = countStaticChecks(F);
  ++NumFunctionsOptimized;
  obs::StatRegistry::global()
      .counter(std::string("opt.scheme.") + placementSchemeName(Opts.Scheme),
               "functions optimized with this placement scheme")
      .inc();

  obs::TraceCollector *TC = Opts.Trace;
  obs::TraceScope FnScope(TC, "fn " + F.name());

  // The passes record their decisions only as lifecycle events; remarks
  // are derived from this function's events once it is done, recorded
  // locally when the caller keeps no provenance.
  obs::RemarkCollector *RC =
      Opts.Remarks && Opts.Remarks->enabled() ? Opts.Remarks : nullptr;
  obs::ProvenanceRecorder LocalPV;
  obs::ProvenanceRecorder *PV =
      Opts.Provenance && Opts.Provenance->enabled() ? Opts.Provenance
                                                    : &LocalPV;
  if (RC && PV == &LocalPV)
    LocalPV.enable();
  size_t FirstEvent = PV->events().size();

  // PRE-style insertion works on edges: normalise the CFG first.
  F.splitCriticalEdges();

  std::vector<PreheaderFact> Facts;

  // Step 1-3: build the universe/CIG and insert checks per scheme.
  switch (Opts.Scheme) {
  case PlacementScheme::NI:
    break;
  case PlacementScheme::CS: {
    CheckContext Ctx(F, Opts.Implications, {}, TC);
    Stats.UniverseSize = Ctx.universe().size();
    Stats.NumFamilies = Ctx.universe().numFamilies();
    obs::TraceScope Scope(TC, "strengthen");
    Stats.ChecksStrengthened =
        runCheckStrengthening(F, Ctx, PV).ChecksStrengthened;
    break;
  }
  case PlacementScheme::SE:
  case PlacementScheme::LNI: {
    CheckContext Ctx(F, Opts.Implications, {}, TC);
    Stats.UniverseSize = Ctx.universe().size();
    Stats.NumFamilies = Ctx.universe().numFamilies();
    obs::TraceScope Scope(TC, "lcm-place");
    Stats.ChecksInserted =
        runLazyCodeMotion(F, Ctx,
                          Opts.Scheme == PlacementScheme::SE
                              ? LCMPlacement::SafeEarliest
                              : LCMPlacement::LatestNotIsolated,
                          PV)
            .ChecksInserted;
    break;
  }
  case PlacementScheme::LI:
  case PlacementScheme::LLS:
  case PlacementScheme::MCM: {
    CheckContext Ctx(F, Opts.Implications, {}, TC);
    Stats.UniverseSize = Ctx.universe().size();
    Stats.NumFamilies = Ctx.universe().numFamilies();
    PreheaderOptions PO;
    PO.EnableLLS = Opts.Scheme != PlacementScheme::LI;
    PO.MarksteinRestriction = Opts.Scheme == PlacementScheme::MCM;
    obs::TraceScope Scope(TC, "preheader-insert");
    PreheaderStats PS = runPreheaderInsertion(F, Ctx, PO, Facts, PV);
    Stats.CondChecksInserted = PS.CondChecksInserted;
    Stats.Rehoisted = PS.Rehoisted;
    break;
  }
  case PlacementScheme::AI: {
    obs::TraceScope Scope(TC, "interval-analysis");
    IntervalStats IS = eliminateChecksByIntervals(F, Diags, PV);
    Stats.IntervalDeleted = IS.ChecksProvedRedundant;
    Stats.CompileTimeTraps += IS.ChecksProvedViolating;
    break;
  }
  case PlacementScheme::ALL: {
    {
      CheckContext Ctx(F, Opts.Implications, {}, TC);
      Stats.UniverseSize = Ctx.universe().size();
      Stats.NumFamilies = Ctx.universe().numFamilies();
      PreheaderOptions PO;
      obs::TraceScope Scope(TC, "preheader-insert");
      PreheaderStats PS = runPreheaderInsertion(F, Ctx, PO, Facts, PV);
      Stats.CondChecksInserted = PS.CondChecksInserted;
      Stats.Rehoisted = PS.Rehoisted;
    }
    {
      // Safe-earliest over the LLS result; the fresh context carries the
      // preheader facts so LCM sees the hoisted availability.
      CheckContext Ctx(F, Opts.Implications, Facts, TC);
      obs::TraceScope Scope(TC, "lcm-place");
      Stats.ChecksInserted =
          runLazyCodeMotion(F, Ctx, LCMPlacement::SafeEarliest, PV)
              .ChecksInserted;
    }
    break;
  }
  }

  // Step 4: availability-based elimination on the post-insertion IR. The
  // universe statistics reported are those of this final context (for NI
  // no earlier context exists). The AI extension skips this on purpose:
  // the abstract-interpretation school it models performs no insertion
  // and no redundancy elimination (paper section 5).
  if (Opts.Scheme != PlacementScheme::AI) {
    CheckContext Ctx(F, Opts.Implications, Facts, TC);
    Stats.UniverseSize = Ctx.universe().size();
    Stats.NumFamilies = Ctx.universe().numFamilies();
    obs::TraceScope Scope(TC, "eliminate");
    EliminationStats ES = eliminateRedundantChecks(F, Ctx, PV);
    Stats.ChecksDeleted = ES.ChecksDeleted;
  }

  // Step 5: compile-time checks. Accumulate (not assign) the trap count:
  // the AI scheme contributes interval-proved traps above, and event
  // totals must reconcile with the stats.
  {
    obs::TraceScope Scope(TC, "fold-consts");
    EliminationStats ES = foldCompileTimeChecks(F, Diags, PV);
    Stats.CompileTimeDeleted = ES.CompileTimeDeleted;
    Stats.CompileTimeTraps += ES.CompileTimeTraps;
    F.recomputePreds();
  }

  Stats.ChecksAfter = countStaticChecks(F);
  if (RC)
    obs::emitEventRemarks(F, PV->events(), FirstEvent, *RC);
  return Stats;
}

OptimizerStats nascent::optimizeModule(Module &M,
                                       const RangeCheckOptions &Opts,
                                       DiagnosticEngine &Diags) {
  OptimizerStats Total;
  for (Function *F : M.functions())
    Total += optimizeFunction(*F, Opts, Diags);
  return Total;
}

std::vector<std::string>
nascent::reconcileCheckProvenance(const obs::ProvenanceRecorder &PR,
                                  const OptimizerStats &Stats) {
  using obs::LifecycleKind;
  std::vector<std::string> Problems = PR.validate();

  auto Expect = [&](LifecycleKind K, const char *Pass, size_t Want,
                    const char *StatName) {
    size_t Got = PR.count(K, Pass ? Pass : "");
    if (Got != Want)
      Problems.push_back(
          std::string(obs::lifecycleKindName(K)) + "(" +
          (Pass ? Pass : "any pass") + ") events = " + std::to_string(Got) +
          " but OptimizerStats." + StatName + " = " + std::to_string(Want));
  };

  Expect(LifecycleKind::Inserted, "LazyCodeMotion", Stats.ChecksInserted,
         "ChecksInserted");
  Expect(LifecycleKind::Inserted, "PreheaderInsertion",
         Stats.CondChecksInserted, "CondChecksInserted");
  Expect(LifecycleKind::Moved, "PreheaderInsertion", Stats.Rehoisted,
         "Rehoisted");
  Expect(LifecycleKind::Strengthened, "CheckStrengthening",
         Stats.ChecksStrengthened, "ChecksStrengthened");
  Expect(LifecycleKind::SubsumedBy, "Elimination", Stats.ChecksDeleted,
         "ChecksDeleted");
  Expect(LifecycleKind::Eliminated, "Elimination", Stats.CompileTimeDeleted,
         "CompileTimeDeleted");
  Expect(LifecycleKind::Eliminated, "IntervalAnalysis",
         Stats.IntervalDeleted, "IntervalDeleted");
  Expect(LifecycleKind::Trapped, nullptr, Stats.CompileTimeTraps,
         "CompileTimeTraps");
  Expect(LifecycleKind::Residualized, nullptr, Stats.ChecksAfter,
         "ChecksAfter");
  return Problems;
}
