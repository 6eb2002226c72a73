#include "Workloads.h"

#include "Composed.h"

#include "cache/ArtifactCache.h"
#include "suite/Suite.h"
#include "support/Hash.h"

#include <fstream>
#include <sstream>

using namespace nascent;
using namespace rcbench;

const char *const rcbench::WorkCounters[5] = {
    "support.bitvector.word_ops", "dataflow.block_visits", "dataflow.solves",
    "opt.context.builds", "checks.universe.interned"};

namespace {

/// The trap corpus: programs that must trap under every scheme.
/// off_by_one.mf reads one element past the end of its array in an
/// ordinary counted loop. lls_overflow.mf indexes with 2^62 * i, whose
/// hoisted preheader check wraps under 64-bit arithmetic (ROADMAP item 1).
const char *const CorpusFiles[] = {"off_by_one.mf", "lls_overflow.mf"};

const PlacementScheme Schemes[] = {
    PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
    PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
    PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
const ImplicationMode Modes[] = {ImplicationMode::All,
                                 ImplicationMode::CrossFamilyOnly,
                                 ImplicationMode::None};
const CheckSource Sources[] = {CheckSource::PRX, CheckSource::INX};

const char *modeName(ImplicationMode M) {
  switch (M) {
  case ImplicationMode::All:
    return "all";
  case ImplicationMode::CrossFamilyOnly:
    return "cross";
  case ImplicationMode::None:
    return "none";
  }
  return "?";
}

const char *sourceName(CheckSource S) {
  return S == CheckSource::PRX ? "PRX" : "INX";
}

const char *statusName(ExecResult::Status S) {
  switch (S) {
  case ExecResult::Status::Ok:
    return "ok";
  case ExecResult::Status::Trapped:
    return "trapped";
  case ExecResult::Status::HardFault:
    return "hard fault";
  case ExecResult::Status::StepLimit:
    return "step limit";
  case ExecResult::Status::CallDepthExceeded:
    return "call depth exceeded";
  }
  return "?";
}

uint64_t statsFingerprint(const OptimizerStats &S) {
  support::StableHasher H;
#define RCBENCH_MIX(Field) H.u64(static_cast<uint64_t>(S.Field));
  NASCENT_OPTIMIZER_STATS_FIELDS(RCBENCH_MIX)
#undef RCBENCH_MIX
  return H.digest().Lo;
}

/// Folds one compile into the pass: failure accounting, the cell's exact
/// fingerprint and the pass totals. Works on CompileResult and
/// ComposedResult alike.
template <typename Result>
void summarizeCompile(const Result &R, size_t Idx, const CompileCell &C,
                      PassResult &P) {
  if (!R.Success) {
    ++P.Failed;
    P.Failures.push_back(C.Name + ": compile failed: " + R.Diags.render());
    return;
  }
  if (!R.Audit.clean()) {
    ++P.Failed;
    P.Failures.push_back(C.Name + ": " + R.Audit.summaryLine());
  }
  P.Fingerprint[Idx] = statsFingerprint(R.Stats);
  PassTotals &T = P.Totals;
  T.ChecksBefore += R.Stats.ChecksBefore;
  T.ChecksAfter += R.Stats.ChecksAfter;
  T.ChecksDeleted += R.Stats.ChecksDeleted;
  T.ChecksInserted += R.Stats.ChecksInserted;
  T.ProvenanceEvents += R.Provenance.events().size();
  T.Remarks += R.Remarks.remarks().size();
  T.Findings += R.Audit.numFindings();
}

double spanMs(const SpanRecorder &S, uint32_t Idx) {
  const Span &Sp = S.spans()[Idx];
  return static_cast<double>(Sp.EndNs - Sp.StartNs) / 1e6;
}

void takeWork(const obs::StatSnapshot &Before, PassResult &P) {
  obs::StatSnapshot::FlatMap Delta =
      obs::StatRegistry::global().snapshot().deltaFrom(Before);
  for (const char *Name : WorkCounters) {
    auto It = Delta.find(Name);
    P.Work[Name] = It == Delta.end() ? 0 : It->second;
  }
}

} // namespace

bool rcbench::loadPrograms(const std::string &CorpusDir, bool WithCorpus,
                           std::vector<Program> &Out, std::string &Err) {
  for (const SuiteProgram &P : benchmarkSuite())
    Out.push_back({P.Name, P.Source, true});
  if (!WithCorpus)
    return true;
  for (const char *File : CorpusFiles) {
    std::string Path = CorpusDir + "/" + File;
    std::ifstream In(Path);
    if (!In) {
      Err = "cannot open " + Path;
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Name = File;
    Out.push_back({Name.substr(0, Name.size() - 3), Buf.str(), false});
  }
  return true;
}

std::vector<CompileCell>
rcbench::sweepCells(const std::vector<Program> &Programs, bool Audited) {
  std::vector<CompileCell> Cells;
  for (const Program &P : Programs)
    for (PlacementScheme S : Schemes)
      for (ImplicationMode M : Modes)
        for (CheckSource Src : Sources) {
          CompileCell C;
          C.Name = P.Name + "/" + placementSchemeName(S) + "/" + modeName(M) +
                   "/" + sourceName(Src);
          C.Source = &P.Source;
          C.Opts.Source = Src;
          C.Opts.Opt.Scheme = S;
          C.Opts.Opt.Implications = M;
          if (Audited) {
            C.Opts.Audit = true;
            C.Opts.Cache.Enabled = true;
            C.Opts.Telemetry.Provenance = true;
            C.Opts.Telemetry.Remarks = true;
          }
          Cells.push_back(std::move(C));
        }
  return Cells;
}

PassResult rcbench::runSweepPass(std::vector<CompileCell> &Cells,
                                 const std::vector<size_t> &Order,
                                 bool Audited, SpanRecorder *Spans) {
  PassResult P;
  P.Fingerprint.assign(Cells.size(), 0);
  double FixedSeconds = 0, CellSeconds = 0;
  std::unique_ptr<cache::ArtifactCache> Cache;
  if (Audited) {
    int64_t T0 = nowNs();
    Cache = std::make_unique<cache::ArtifactCache>();
    FixedSeconds += static_cast<double>(nowNs() - T0) / 1e9;
  }
  for (CompileCell &C : Cells)
    C.Opts.Cache.Cache = Cache.get();

  obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
  if (Spans)
    P.SpanFrom = Spans->size();
  for (size_t Idx : Order) {
    const CompileCell &C = Cells[Idx];
    int64_t T0 = nowNs();
    if (!Spans) {
      {
        CompileResult R = compileSource(*C.Source, C.Opts);
        summarizeCompile(R, Idx, C, P);
      } // a cell includes destroying its result, as in the traced path
      P.CellMs.push_back(static_cast<double>(nowNs() - T0) / 1e6);
      P.CellIdx.push_back(static_cast<uint32_t>(Idx));
      CellSeconds += P.CellMs.back() / 1e3;
      continue;
    }
    Spans->setCell(static_cast<uint32_t>(Idx));
    uint32_t CellSpan;
    {
      ScopedSpan Cell(*Spans, Call::Cell);
      CellSpan = Cell.index();
      ComposedResult R = composedCompile(*C.Source, C.Opts, *Spans);
      ScopedSpan Measure(*Spans, Call::Measure);
      summarizeCompile(R, Idx, C, P);
      P.Totals.ParsedBytes += R.ParsedBytes;
      P.Totals.LoweredInstrs += R.LoweredInstrs;
      P.FrontendHit.push_back(R.FrontendHit);
    }
    // The result is destroyed inside the cell span. The benchmark's own
    // bookkeeping (Measure spans) is tracing overhead, not cell time, but
    // stays in the pass wall time the overhead figure compares.
    double MeasureMs = 0;
    for (size_t I = CellSpan; I != Spans->size(); ++I)
      if (Spans->spans()[I].C == Call::Measure)
        MeasureMs += spanMs(*Spans, static_cast<uint32_t>(I));
    P.CellMs.push_back(spanMs(*Spans, CellSpan) - MeasureMs);
    P.CellIdx.push_back(static_cast<uint32_t>(Idx));
    CellSeconds += static_cast<double>(nowNs() - T0) / 1e9;
  }
  if (Spans)
    P.SpanTo = Spans->size();
  takeWork(Before, P);

  if (Cache) {
    cache::ArtifactCache::Stats S = Cache->stats();
    P.Totals.FrontendHits = S.FrontendHits;
    P.Totals.FrontendMisses = S.FrontendMisses;
    P.Totals.AnalysisHits = S.analysisHits();
    P.Totals.AnalysisMisses = S.analysisMisses();
    P.Totals.CacheBytes = S.Bytes;
    P.Totals.CacheEvictions = S.Evictions;
    int64_t T0 = nowNs();
    Cache.reset();
    FixedSeconds += static_cast<double>(nowNs() - T0) / 1e9;
  }
  for (CompileCell &C : Cells)
    C.Opts.Cache.Cache = nullptr;

  P.WallSeconds = FixedSeconds + CellSeconds;
  return P;
}

std::vector<std::string>
rcbench::checkSweepIdentity(std::vector<CompileCell> &Cells,
                            const std::vector<size_t> &Order, bool Audited) {
  std::vector<std::string> Diffs;
  std::unique_ptr<cache::ArtifactCache> RefCache, GotCache;
  if (Audited) {
    RefCache = std::make_unique<cache::ArtifactCache>();
    GotCache = std::make_unique<cache::ArtifactCache>();
  }
  SpanRecorder Off;
  for (size_t Idx : Order) {
    CompileCell &C = Cells[Idx];
    C.Opts.Cache.Cache = RefCache.get();
    CompileResult Ref = compileSource(*C.Source, C.Opts);
    C.Opts.Cache.Cache = GotCache.get();
    ComposedResult Got = composedCompile(*C.Source, C.Opts, Off);
    C.Opts.Cache.Cache = nullptr;
    std::string Diff = checkIdentity(Ref, Got);
    if (!Diff.empty())
      Diffs.push_back(C.Name + ": " + Diff);
  }
  return Diffs;
}

std::vector<ExecCell>
rcbench::executeCells(const std::vector<Program> &Programs) {
  std::vector<ExecCell> Cells;
  for (size_t I = 0; I != Programs.size(); ++I) {
    const Program &P = Programs[I];
    if (P.Suite) {
      ExecCell C;
      C.Name = P.Name + "/unchecked";
      C.Prog = I;
      C.Kind = BuildKind::Unchecked;
      C.Opts.Lowering.InsertChecks = false;
      C.Opts.Optimize = false;
      Cells.push_back(std::move(C));
    }
    ExecCell N;
    N.Name = P.Name + "/naive";
    N.Prog = I;
    N.Kind = BuildKind::Naive;
    N.Opts.Optimize = false;
    Cells.push_back(std::move(N));
    for (PlacementScheme S : Schemes)
      for (CheckSource Src : Sources) {
        ExecCell C;
        C.Name = P.Name + "/" + placementSchemeName(S) + "/" + sourceName(Src);
        C.Prog = I;
        C.Kind = BuildKind::Optimized;
        C.Opts.Source = Src;
        C.Opts.Opt.Scheme = S;
        Cells.push_back(std::move(C));
      }
  }
  for (ExecCell &C : Cells) {
    CompileResult R = compileSource(Programs[C.Prog].Source, C.Opts);
    if (!R.Success) {
      C.CompileError = R.Diags.render();
      if (C.CompileError.empty())
        C.CompileError = "compile failed";
      continue;
    }
    C.M = std::move(R.M);
    C.Stats = R.Stats;
  }
  return Cells;
}

std::vector<Reference>
rcbench::computeReferences(const std::vector<Program> &Programs,
                           const std::vector<ExecCell> &Cells) {
  std::vector<Reference> Refs(Programs.size());
  for (const ExecCell &C : Cells) {
    if (!C.M || C.Kind == BuildKind::Optimized)
      continue;
    ExecResult E = interpret(*C.M);
    if (C.Kind == BuildKind::Naive) {
      Refs[C.Prog].NaiveStatus = E.St;
    } else {
      Refs[C.Prog].HaveOutput = true;
      Refs[C.Prog].Output = std::move(E.Output);
    }
  }
  return Refs;
}

PassResult rcbench::runExecutePass(const std::vector<ExecCell> &Cells,
                                   const std::vector<Reference> &Refs,
                                   const std::vector<size_t> &Order,
                                   SpanRecorder *Spans) {
  PassResult P;
  P.Fingerprint.assign(Cells.size(), 0);
  P.DynChecks.assign(Cells.size(), 0);
  obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
  if (Spans)
    P.SpanFrom = Spans->size();
  for (size_t Idx : Order) {
    const ExecCell &C = Cells[Idx];
    if (!C.M) {
      ++P.Failed;
      P.Failures.push_back(C.Name + ": compile failed: " + C.CompileError);
      continue;
    }
    ExecResult E;
    double Ms;
    if (Spans) {
      Spans->setCell(static_cast<uint32_t>(Idx));
      uint32_t CellSpan;
      {
        ScopedSpan Cell(*Spans, Call::Cell);
        CellSpan = Cell.index();
        ScopedSpan Run(*Spans, Call::Interpret);
        E = interpret(*C.M);
      }
      Ms = spanMs(*Spans, CellSpan);
    } else {
      int64_t T0 = nowNs();
      E = interpret(*C.M);
      Ms = static_cast<double>(nowNs() - T0) / 1e6;
    }
    P.CellMs.push_back(Ms);
    P.CellIdx.push_back(static_cast<uint32_t>(Idx));
    P.WallSeconds += Ms / 1e3;

    // The oracle: status against the naive build, printed output against
    // the unchecked build. Neither reference comes from the module under
    // test. A hoisted check may trap before some prints, so output is
    // compared only for runs that complete.
    const Reference &Ref = Refs[C.Prog];
    std::string Why;
    if (E.St != ExecResult::Status::Ok && E.St != ExecResult::Status::Trapped)
      Why = std::string(statusName(E.St)) + ": " + E.FaultMessage;
    else if (E.St != Ref.NaiveStatus)
      Why = std::string("status ") + statusName(E.St) + ", naive build " +
            statusName(Ref.NaiveStatus);
    else if (E.ok() && Ref.HaveOutput && E.Output != Ref.Output)
      Why = "printed output differs from the unchecked build";
    if (!Why.empty()) {
      ++P.Failed;
      P.Failures.push_back(C.Name + ": " + Why);
    }

    support::StableHasher H;
    H.u64(static_cast<uint64_t>(E.St));
    H.u64(E.DynInstrs);
    H.u64(E.DynChecks);
    H.u64(E.DynCondChecks);
    for (const std::string &Line : E.Output)
      H.str(Line);
    P.Fingerprint[Idx] = H.digest().Lo;
    P.DynChecks[Idx] = E.DynChecks;
    P.Totals.DynInstrs += E.DynInstrs;
    P.Totals.DynChecks += E.DynChecks;
  }
  if (Spans)
    P.SpanTo = Spans->size();
  takeWork(Before, P);
  return P;
}

std::vector<std::string>
rcbench::checkExecuteIdentity(const std::vector<Program> &Programs,
                              const std::vector<ExecCell> &Cells) {
  std::vector<std::string> Diffs;
  SpanRecorder Off;
  for (const ExecCell &C : Cells) {
    const std::string &Src = Programs[C.Prog].Source;
    CompileResult Ref = compileSource(Src, C.Opts);
    ComposedResult Got = composedCompile(Src, C.Opts, Off);
    std::string Diff = checkIdentity(Ref, Got);
    if (!Diff.empty())
      Diffs.push_back(C.Name + ": " + Diff);
  }
  return Diffs;
}
