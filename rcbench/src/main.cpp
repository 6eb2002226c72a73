//===----------------------------------------------------------------------===//
///
/// \file
/// rcbench: the repository benchmark (see ../README.md).
///
///   rcbench --workload NAME --seed N --seconds S --trace 0|1
///           --corpus DIR --out DIR --source-sha HEX
///
/// Workloads: compile_sweep, audit_sweep_cached, execute_suite. One
/// process, one thread. The seed only permutes the order of cells; every
/// pass draws a fresh order. --trace 0 measures the end-to-end metrics
/// through the public entry points (compileSource, interpret); --trace 1
/// first proves the traced composition byte-identical to compileSource,
/// then alternates untraced and traced passes and reports the per-layer
/// metrics. The last stdout line is one JSON object with the keys
/// correct, attempted, failed and metrics; the line before it records the
/// host, build and seed.
///
//===----------------------------------------------------------------------===//

#include "Calibration.h"
#include "Spans.h"
#include "Workloads.h"

#include "obs/BenchSchema.h"
#include "obs/Json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

using namespace nascent;
using namespace rcbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string CorpusDir;
  std::string OutDir;
  std::string SourceSha;
};

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (*End || errno || S[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I];
    const char *V = Argv[I + 1];
    uint64_t N = 0;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed" && parseUnsigned(V, N)) {
      A.Seed = N;
      HaveSeed = true;
    } else if (K == "--seconds" && parseUnsigned(V, N) && N >= 1) {
      A.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (K == "--trace" && parseUnsigned(V, N) && N <= 1) {
      A.Trace = N == 1;
      HaveTrace = true;
    } else if (K == "--corpus")
      A.CorpusDir = V;
    else if (K == "--out")
      A.OutDir = V;
    else if (K == "--source-sha")
      A.SourceSha = V;
    else
      return false;
  }
  return Argc % 2 == 1 && HaveSeed && HaveSeconds && HaveTrace &&
         !A.CorpusDir.empty() && !A.OutDir.empty() &&
         !A.SourceSha.empty() &&
         (A.Workload == "compile_sweep" ||
          A.Workload == "audit_sweep_cached" ||
          A.Workload == "execute_suite");
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, does not inherit the RSS of the parent that forked it.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

double secondsSince(int64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e9;
}

std::vector<size_t> shuffled(size_t N, std::mt19937_64 &Rng) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

/// Values that must repeat exactly. Each key's first value is the
/// reference for every later pass of this run and, through a file in the
/// output directory keyed by the source hash, for later runs with other
/// seeds. A difference names the key and is never averaged away.
class Exactness {
public:
  void note(const std::string &Group, const std::string &Key, uint64_t V,
            const std::string &Where) {
    auto [It, New] = Seen[Group].emplace(Key, V);
    if (!New && It->second != V)
      Problems.push_back("determinism: " + Key + " was " +
                         std::to_string(It->second) + ", " + Where + " got " +
                         std::to_string(V));
  }

  /// Compares with, then merges into, the files of earlier runs.
  void persist(const std::string &Dir, const std::string &SourceSha) {
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    for (const auto &[Group, Values] : Seen) {
      std::string Path = Dir + "/" + Group + ".txt";
      std::map<std::string, uint64_t> Merged;
      std::ifstream In(Path);
      std::string Sha;
      if (In >> Sha && Sha == SourceSha) {
        std::string Key;
        uint64_t V = 0;
        while (In >> Key >> V)
          Merged[Key] = V;
      }
      for (const auto &[Key, V] : Values) {
        auto [It, New] = Merged.emplace(Key, V);
        if (!New && It->second != V)
          Problems.push_back("determinism: " + Key + " was " +
                             std::to_string(It->second) +
                             " in an earlier run, this run got " +
                             std::to_string(V));
      }
      std::string Tmp = Path + ".tmp";
      bool Written;
      {
        std::ofstream Out(Tmp);
        Out << SourceSha << "\n";
        for (const auto &[Key, V] : Merged)
          Out << Key << " " << V << "\n";
        Written = static_cast<bool>(Out.flush());
      }
      std::filesystem::rename(Tmp, Path, EC);
      if (!Written || EC)
        Problems.push_back("determinism: cannot store " + Path +
                           " for later runs");
    }
  }

  std::vector<std::string> Problems;

private:
  std::map<std::string, std::map<std::string, uint64_t>> Seen;
};

/// How a metric's value depends on host speed (see Calibration.h).
enum class Scale { None, Time, Rate };

struct Metric {
  std::string Name;
  double Value; ///< as measured; the result reports it calibrated
  const char *Unit;
  Scale S = Scale::None;

  double calibrated(double Factor) const {
    return S == Scale::Time ? Value * Factor
           : S == Scale::Rate ? Value / Factor
                              : Value;
  }
};

/// Everything a run reports.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Every failure, with the number of passes it occurred in.
  std::map<std::string, uint64_t> Failures;
  std::vector<Metric> Metrics;
  Exactness Exact;
  std::vector<std::string> IdentityDiffs;
  Calibration Cal;
};

void notePass(Outcome &O, const std::string &Workload,
              const std::vector<std::string> &CellNames, const PassResult &P,
              bool Traced, const std::string &Where) {
  for (size_t I = 0; I != CellNames.size(); ++I)
    if (P.Fingerprint[I])
      O.Exact.note(Workload == "execute_suite" ? "execute_cells"
                                               : "compile_cells",
                   "cell:" + CellNames[I], P.Fingerprint[I], Where);
  const PassTotals &T = P.Totals;
  std::pair<const char *, uint64_t> Totals[] = {
      {"checks_before", T.ChecksBefore},
      {"checks_after", T.ChecksAfter},
      {"checks_deleted", T.ChecksDeleted},
      {"checks_inserted", T.ChecksInserted},
      {"provenance_events", T.ProvenanceEvents},
      {"remarks", T.Remarks},
      {"findings", T.Findings},
      {"dyn_instrs", T.DynInstrs},
      {"dyn_checks", T.DynChecks},
      {"cache.frontend_hits", T.FrontendHits},
      {"cache.frontend_misses", T.FrontendMisses},
      {"cache.analysis_hits", T.AnalysisHits},
      {"cache.analysis_misses", T.AnalysisMisses},
  };
  for (const auto &[Name, V] : Totals)
    O.Exact.note(Workload, std::string("total:") + Name, V, Where);
  if (Traced) {
    O.Exact.note(Workload, "total:parsed_bytes", T.ParsedBytes, Where);
    O.Exact.note(Workload, "total:lowered_instrs", T.LoweredInstrs, Where);
  }
  for (const auto &[Name, V] : P.Work)
    O.Exact.note(Workload, "work:" + Name, V, Where);
}

void countFailures(Outcome &O, const PassResult &P, size_t Cells) {
  O.Attempted += Cells;
  O.Failed += P.Failed;
  for (const std::string &F : P.Failures)
    ++O.Failures[F];
}

/// Runs passes until the next one would end past \p Seconds (at least
/// one), timing the calibration kernel after each. \p Pass receives the
/// pass number.
template <typename PassFn>
void timedPasses(double Seconds, Calibration &Cal, PassFn Pass) {
  int64_t Start = nowNs();
  double Last = 0;
  unsigned N = 0;
  do {
    int64_t T0 = nowNs();
    Pass(N++);
    Last = secondsSince(T0);
    Cal.sample();
  } while (secondsSince(Start) + Last <= Seconds);
}

/// The 99th percentile of the cell times in each window of whole passes
/// holding at least 1000 cells, then the median over the windows: a burst
/// of host noise moves one window, not the result. Every window leaves at
/// least 10 samples beyond its p99. Passes after the last whole window
/// count toward the other metrics only.
double windowedP99(const std::vector<double> &CellMs, size_t CellsPerPass) {
  constexpr size_t MinWindowCells = 1000;
  size_t Window = (MinWindowCells + CellsPerPass - 1) / CellsPerPass *
                  CellsPerPass;
  if (CellMs.size() < 2 * Window)
    return quantile(CellMs, 0.99);
  std::vector<double> P99s;
  for (size_t From = 0; From + Window <= CellMs.size(); From += Window)
    P99s.push_back(quantile({CellMs.begin() + static_cast<long>(From),
                             CellMs.begin() + static_cast<long>(From + Window)},
                            0.99));
  return median(P99s);
}

/// The end-to-end metrics shared by every workload. \p CellMs holds whole
/// passes of \p CellsPerPass cells each, in run order.
void addEndToEnd(Outcome &O, const std::vector<double> &SetupSeconds,
                 const std::vector<double> &CellMs, size_t CellsPerPass,
                 double WallSeconds, uint64_t StaticChecksLeft,
                 double EliminatedPct) {
  O.Metrics.push_back({"setup_s", median(SetupSeconds), "s", Scale::Time});
  O.Metrics.push_back({"cells_per_s",
                       ratio(static_cast<double>(CellMs.size()), WallSeconds),
                       "1/s", Scale::Rate});
  O.Metrics.push_back(
      {"cell_ms_p50", quantile(CellMs, 0.5), "ms", Scale::Time});
  O.Metrics.push_back(
      {"cell_ms_p99", windowedP99(CellMs, CellsPerPass), "ms", Scale::Time});
  O.Metrics.push_back(
      {"ok_frac",
       1.0 - ratio(static_cast<double>(O.Failed),
                   static_cast<double>(O.Attempted)),
       "fraction"});
  O.Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  O.Metrics.push_back({"static_checks_left",
                       static_cast<double>(StaticChecksLeft), "count"});
  O.Metrics.push_back({"checks_eliminated_pct", EliminatedPct, "%"});
}

/// Per-layer metrics from the traced passes \p T, with \p U the untraced
/// passes of the same run (for the tracing overhead).
struct LayerInputs {
  const SpanRecorder *Spans = nullptr;
  std::vector<const PassResult *> T, U;
  /// execute_suite only: cell metadata for the overhead ratios.
  const std::vector<ExecCell> *ExecCells = nullptr;
  const std::vector<Program> *Programs = nullptr;
};

void addPerLayer(Outcome &O, const LayerInputs &L) {
  const SpanRecorder &S = *L.Spans;
  std::vector<std::vector<int64_t>> SelfNs;
  for (const PassResult *P : L.T)
    SelfNs.push_back(S.selfTimesNs(P->SpanFrom, P->SpanTo));
  auto SelfMs = [&](Call C) {
    std::vector<double> V;
    for (const auto &PerCall : SelfNs)
      V.push_back(static_cast<double>(PerCall[static_cast<size_t>(C)]) / 1e6);
    return median(V);
  };
  auto SumSelfSeconds = [&](Call C) {
    double Sum = 0;
    for (const auto &PerCall : SelfNs)
      Sum += static_cast<double>(PerCall[static_cast<size_t>(C)]) / 1e9;
    return Sum;
  };
  uint64_t ParsedBytes = 0, DynInstrs = 0;
  std::vector<double> OptimizeMs, HitMs, MissMs;
  for (const PassResult *P : L.T) {
    ParsedBytes += P->Totals.ParsedBytes;
    DynInstrs += P->Totals.DynInstrs;
    for (size_t I = P->SpanFrom; I != P->SpanTo; ++I)
      if (S.spans()[I].C == Call::Optimize)
        OptimizeMs.push_back(
            static_cast<double>(S.spans()[I].EndNs - S.spans()[I].StartNs) /
            1e6);
    for (size_t I = 0; I != P->FrontendHit.size(); ++I)
      (P->FrontendHit[I] ? HitMs : MissMs).push_back(P->CellMs[I]);
  }
  const PassTotals &T0 = L.T.front()->Totals;
  double Cells = static_cast<double>(L.T.front()->CellMs.size());
  auto Throughput = [](const std::vector<const PassResult *> &Ps) {
    double N = 0, Wall = 0;
    for (const PassResult *P : Ps) {
      N += static_cast<double>(P->CellMs.size());
      Wall += P->WallSeconds;
    }
    return ratio(N, Wall);
  };

  // Table 1 overheads: per suite program, the median interpret time of the
  // naive (or LLS/PRX) build over the unchecked build's; geometric mean.
  double NaiveRatio = 0, LlsRatio = 0;
  if (L.ExecCells) {
    const std::vector<ExecCell> &EC = *L.ExecCells;
    std::vector<std::vector<double>> Times(EC.size());
    for (const PassResult *P : L.T)
      for (size_t J = 0; J != P->CellMs.size(); ++J)
        Times[P->CellIdx[J]].push_back(P->CellMs[J]);
    double LogNaive = 0, LogLls = 0;
    unsigned N = 0;
    for (size_t Prog = 0; Prog != L.Programs->size(); ++Prog) {
      if (!(*L.Programs)[Prog].Suite)
        continue;
      double Unchecked = 0, Naive = 0, Lls = 0;
      for (size_t I = 0; I != EC.size(); ++I) {
        if (EC[I].Prog != Prog)
          continue;
        if (EC[I].Kind == BuildKind::Unchecked)
          Unchecked = median(Times[I]);
        else if (EC[I].Kind == BuildKind::Naive)
          Naive = median(Times[I]);
        else if (EC[I].Opts.Opt.Scheme == PlacementScheme::LLS &&
                 EC[I].Opts.Source == CheckSource::PRX)
          Lls = median(Times[I]);
      }
      if (Unchecked > 0 && Naive > 0 && Lls > 0) {
        LogNaive += std::log(Naive / Unchecked);
        LogLls += std::log(Lls / Unchecked);
        ++N;
      }
    }
    if (N) {
      NaiveRatio = std::exp(LogNaive / N);
      LlsRatio = std::exp(LogLls / N);
    }
  }

  auto Work = [&](const char *Name) {
    auto It = L.T.front()->Work.find(Name);
    return static_cast<double>(It == L.T.front()->Work.end() ? 0
                                                              : It->second);
  };
  double ParseSeconds = SumSelfSeconds(Call::Parse);
  double ExecSeconds = SumSelfSeconds(Call::Interpret);
  std::vector<Metric> &M = O.Metrics;
  auto AddSelf = [&](const char *Name, Call C) {
    M.push_back({Name, SelfMs(C), "ms/pass", Scale::Time});
  };
  auto AddCount = [&](const char *Name, uint64_t V, const char *Unit) {
    M.push_back({Name, static_cast<double>(V), Unit});
  };
  auto AddRatio = [&](const char *Name, double Num, double Den) {
    M.push_back({Name, ratio(Num, Den), "ratio"});
  };
  AddSelf("lang.parse_ms", Call::Parse);
  M.push_back({"lang.parse_mb_per_s",
               ratio(static_cast<double>(ParsedBytes) / 1e6, ParseSeconds),
               "MB/s", Scale::Rate});
  AddSelf("lang.sema_ms", Call::Sema);
  AddSelf("frontend.lower_ms", Call::Lower);
  AddCount("frontend.ir_instrs", T0.LoweredInstrs, "instrs/pass");
  AddSelf("ir.verify_ms", Call::Verify);
  AddSelf("ir.clone_ms", Call::Clone);
  AddSelf("checks.inx_ms", Call::Inx);
  AddSelf("opt.optimize_ms", Call::Optimize);
  M.push_back({"opt.optimize_ms_p99", quantile(OptimizeMs, 0.99), "ms",
               Scale::Time});
  for (const char *Name : WorkCounters)
    M.push_back({std::string("work.") + Name, Work(Name), "count/pass"});
  AddCount("opt.checks_deleted", T0.ChecksDeleted, "count/pass");
  AddCount("opt.checks_inserted", T0.ChecksInserted, "count/pass");
  AddSelf("audit.audit_ms", Call::Audit);
  AddCount("audit.findings", T0.Findings, "count/pass");
  AddSelf("cache.lookup_ms", Call::CacheLookup);
  AddRatio("cache.frontend_hit_ratio", static_cast<double>(T0.FrontendHits),
           static_cast<double>(T0.FrontendHits + T0.FrontendMisses));
  AddRatio("cache.analysis_hit_ratio", static_cast<double>(T0.AnalysisHits),
           static_cast<double>(T0.AnalysisHits + T0.AnalysisMisses));
  AddCount("cache.bytes", T0.CacheBytes, "bytes");
  AddCount("cache.evictions", T0.CacheEvictions, "count");
  AddSelf("driver.self_ms", Call::Cell);
  M.push_back({"driver.compile_ms_hit", median(HitMs), "ms", Scale::Time});
  M.push_back({"driver.compile_ms_miss", median(MissMs), "ms", Scale::Time});
  AddSelf("obs.record_ms", Call::ObsRecord);
  M.push_back({"obs.provenance_events",
               ratio(static_cast<double>(T0.ProvenanceEvents), Cells),
               "events/cell"});
  M.push_back({"obs.remarks", ratio(static_cast<double>(T0.Remarks), Cells),
               "remarks/cell"});
  AddSelf("interp.exec_ms", Call::Interpret);
  AddCount("interp.dyn_instrs", T0.DynInstrs, "cost-units/pass");
  AddCount("interp.dyn_checks", T0.DynChecks, "count/pass");
  M.push_back({"interp.minstr_per_s",
               ratio(static_cast<double>(DynInstrs) / 1e6, ExecSeconds),
               "Mcost-units/s", Scale::Rate});
  M.push_back({"interp.naive_overhead_ratio", NaiveRatio, "ratio"});
  M.push_back({"interp.lls_overhead_ratio", LlsRatio, "ratio"});
  double Untraced = Throughput(L.U), Traced = Throughput(L.T);
  M.push_back(
      {"trace.overhead_pct", 100.0 * (1.0 - ratio(Traced, Untraced)), "%"});
}

template <typename Cell>
std::vector<std::string> names(const std::vector<Cell> &Cells) {
  std::vector<std::string> N;
  for (const Cell &C : Cells)
    N.push_back(C.Name);
  return N;
}

/// The timed passes of an untraced run, pooled.
struct Timed {
  std::vector<double> CellMs;
  double WallSeconds = 0;
  PassResult First;
};

/// Untraced passes for \p A.Seconds; \p Pass(Order) runs one.
template <typename PassFn>
Timed timeUntraced(const Args &A, std::mt19937_64 &Rng, Outcome &O,
                   const std::vector<std::string> &CellNames, PassFn Pass) {
  Timed T;
  timedPasses(A.Seconds, O.Cal, [&](unsigned N) {
    PassResult P = Pass(shuffled(CellNames.size(), Rng), nullptr);
    notePass(O, A.Workload, CellNames, P, false, "pass " + std::to_string(N));
    countFailures(O, P, CellNames.size());
    T.CellMs.insert(T.CellMs.end(), P.CellMs.begin(), P.CellMs.end());
    T.WallSeconds += P.WallSeconds;
    if (N == 0)
      T.First = std::move(P);
  });
  return T;
}

/// Alternates untraced and traced passes for \p A.Seconds (at least one
/// traced), then derives the per-layer metrics and writes the spans.
template <typename PassFn>
void timeTraced(const Args &A, std::mt19937_64 &Rng, Outcome &O,
                const std::vector<std::string> &CellNames, LayerInputs L,
                PassFn Pass) {
  SpanRecorder Spans(true);
  std::vector<PassResult> Untraced, Traced;
  auto Run = [&](bool T, const std::string &Where) {
    PassResult P = Pass(shuffled(CellNames.size(), Rng), T ? &Spans : nullptr);
    notePass(O, A.Workload, CellNames, P, T, Where);
    countFailures(O, P, CellNames.size());
    (T ? Traced : Untraced).push_back(std::move(P));
  };
  timedPasses(A.Seconds, O.Cal, [&](unsigned N) {
    Run(N % 2 == 1, "pass " + std::to_string(N));
  });
  if (Traced.empty())
    Run(true, "traced pass");
  L.Spans = &Spans;
  for (const PassResult &P : Traced)
    L.T.push_back(&P);
  for (const PassResult &P : Untraced)
    L.U.push_back(&P);
  addPerLayer(O, L);
  std::error_code EC;
  std::filesystem::create_directories(A.OutDir + "/traces", EC);
  Spans.writeChromeTrace(A.OutDir + "/traces/" + A.Workload + ".json");
}

/// compile_sweep and audit_sweep_cached.
bool runSweep(const Args &A, bool Audited, std::mt19937_64 &Rng,
              Outcome &O) {
  std::vector<Program> Programs;
  std::vector<CompileCell> Cells;
  std::vector<double> SetupSeconds;
  std::string Err;
  // Set-up: load the programs, build the cell table and run one warm-up
  // pass, so lazy initialisation and allocator growth are not timed.
  for (int Rep = 0; Rep != (A.Trace ? 1 : 3); ++Rep) {
    int64_t T0 = nowNs();
    Programs.clear();
    if (!loadPrograms(A.CorpusDir, /*WithCorpus=*/false, Programs, Err)) {
      std::fprintf(stderr, "rcbench: %s\n", Err.c_str());
      return false;
    }
    Cells = sweepCells(Programs, Audited);
    PassResult Warm =
        runSweepPass(Cells, shuffled(Cells.size(), Rng), Audited, nullptr);
    SetupSeconds.push_back(secondsSince(T0));
    O.Cal.sample();
    notePass(O, A.Workload, names(Cells), Warm, false,
             "warm-up pass " + std::to_string(Rep));
  }
  auto Pass = [&](const std::vector<size_t> &Order, SpanRecorder *Spans) {
    return runSweepPass(Cells, Order, Audited, Spans);
  };

  if (!A.Trace) {
    Timed T = timeUntraced(A, Rng, O, names(Cells), Pass);
    const PassTotals &First = T.First.Totals;
    addEndToEnd(O, SetupSeconds, T.CellMs, Cells.size(), T.WallSeconds,
                First.ChecksAfter,
                100.0 * (1.0 - ratio(static_cast<double>(First.ChecksAfter),
                                     static_cast<double>(First.ChecksBefore))));
    return true;
  }
  O.IdentityDiffs =
      checkSweepIdentity(Cells, shuffled(Cells.size(), Rng), Audited);
  timeTraced(A, Rng, O, names(Cells), LayerInputs(), Pass);
  return true;
}

bool runExecute(const Args &A, std::mt19937_64 &Rng, Outcome &O) {
  std::vector<Program> Programs;
  std::vector<ExecCell> Cells;
  std::vector<Reference> Refs;
  std::vector<double> SetupSeconds;
  std::string Err;
  // Set-up: compile every build and run the reference builds once.
  for (int Rep = 0; Rep != (A.Trace ? 1 : 3); ++Rep) {
    int64_t T0 = nowNs();
    Programs.clear();
    if (!loadPrograms(A.CorpusDir, /*WithCorpus=*/true, Programs, Err)) {
      std::fprintf(stderr, "rcbench: %s\n", Err.c_str());
      return false;
    }
    Cells = executeCells(Programs);
    Refs = computeReferences(Programs, Cells);
    SetupSeconds.push_back(secondsSince(T0));
    O.Cal.sample();
  }
  auto Pass = [&](const std::vector<size_t> &Order, SpanRecorder *Spans) {
    return runExecutePass(Cells, Refs, Order, Spans);
  };

  if (!A.Trace) {
    Timed T = timeUntraced(A, Rng, O, names(Cells), Pass);
    // Dynamic checks removed relative to the naive build, over the ten
    // suite programs and every optimized build of each.
    const std::vector<uint64_t> &DynChecks = T.First.DynChecks;
    uint64_t StaticLeft = 0;
    double Naive = 0, Left = 0;
    for (size_t I = 0; I != Cells.size(); ++I) {
      const ExecCell &C = Cells[I];
      StaticLeft += C.Stats.ChecksAfter;
      if (C.Kind != BuildKind::Optimized || !Programs[C.Prog].Suite)
        continue;
      for (size_t J = 0; J != Cells.size(); ++J)
        if (Cells[J].Prog == C.Prog && Cells[J].Kind == BuildKind::Naive)
          Naive += static_cast<double>(DynChecks[J]);
      Left += static_cast<double>(DynChecks[I]);
    }
    addEndToEnd(O, SetupSeconds, T.CellMs, Cells.size(), T.WallSeconds,
                StaticLeft, 100.0 * (1.0 - ratio(Left, Naive)));
    return true;
  }
  O.IdentityDiffs = checkExecuteIdentity(Programs, Cells);
  LayerInputs L;
  L.ExecCells = &Cells;
  L.Programs = &Programs;
  timeTraced(A, Rng, O, names(Cells), L, Pass);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload compile_sweep|audit_sweep_cached|"
                 "execute_suite --seed N --seconds S --trace 0|1 "
                 "--corpus DIR --out DIR --source-sha HEX\n",
                 Argv[0]);
    return 2;
  }

  std::mt19937_64 Rng(A.Seed);
  Outcome O;
  for (int I = 0; I != 3; ++I)
    O.Cal.sample();
  bool Ran = A.Workload == "execute_suite"
                 ? runExecute(A, Rng, O)
                 : runSweep(A, A.Workload == "audit_sweep_cached", Rng, O);
  if (!Ran)
    return 1;
  O.Exact.persist(A.OutDir + "/determinism", A.SourceSha);

  for (const auto &[Failure, Passes] : O.Failures)
    std::fprintf(stderr, "rcbench: FAILED in %llu pass(es): %s\n",
                 static_cast<unsigned long long>(Passes), Failure.c_str());
  for (const std::string &D : O.IdentityDiffs)
    std::fprintf(stderr,
                 "rcbench: traced composition differs from compileSource: "
                 "%s\n",
                 D.c_str());
  for (const std::string &P : O.Exact.Problems)
    std::fprintf(stderr, "rcbench: %s\n", P.c_str());
  double F = O.Cal.factor();
  std::fprintf(stderr,
               "rcbench: calibration kernel median %.3f ms over %zu samples "
               "(nominal %.1f ms, factor %.4f)\n",
               O.Cal.medianMs(), O.Cal.samples(), Calibration::NominalMs, F);
  std::fprintf(stderr, "rcbench: %-32s %16s %16s\n", "metric", "reported",
               "raw");
  for (const Metric &M : O.Metrics)
    std::fprintf(stderr, "rcbench: %-32s %16.6f %16.6f %s\n", M.Name.c_str(),
                 M.calibrated(F), M.Value, M.Unit);

  // The host and build this result belongs to, and the seed, echoed on
  // the line before the result.
  obs::JsonWriter H;
  H.beginObject();
  H.key("host");
  obs::writeBenchEnv(H, obs::captureBenchEnv());
  H.kv("source_sha", A.SourceSha);
  H.kv("workload", A.Workload);
  H.kv("seed", A.Seed);
  H.kv("seconds", A.Seconds);
  H.kv("trace", A.Trace);
  H.key("calibration");
  H.beginObject();
  H.kv("kernel_ms_median", O.Cal.medianMs());
  H.kv("nominal_ms", Calibration::NominalMs);
  H.kv("factor", F);
  H.kv("samples", static_cast<uint64_t>(O.Cal.samples()));
  H.endObject();
  H.key("raw");
  H.beginObject();
  for (const Metric &M : O.Metrics)
    if (M.S != Scale::None)
      H.kv(M.Name, M.Value);
  H.endObject();
  H.endObject();

  bool Correct = O.IdentityDiffs.empty() && O.Exact.Problems.empty();
  obs::JsonWriter W;
  W.beginObject();
  W.kv("correct", Correct);
  W.kv("attempted", O.Attempted);
  W.kv("failed", O.Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : O.Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.kv("value", M.calibrated(F));
    W.kv("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n%s\n", H.str().c_str(), W.str().c_str());
  return Correct ? 0 : 1;
}
