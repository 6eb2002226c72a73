#include "driver/BatchCompiler.h"

#include "support/ThreadPool.h"

#include <future>

using namespace nascent;

namespace {

/// Compiles one job on the calling thread, bracketing it in a snapshot
/// pair so Work holds exactly this job's stat growth. On a worker thread
/// the snapshots see the stable merged base plus the worker's own shard;
/// on the main thread (serial mode) they see base plus the main shard —
/// either way the delta is the job's own work, bit-identical across
/// --jobs values.
BatchJobResult runOne(const BatchJob &Job) {
  static const std::string Empty;
  BatchJobResult R;
  obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
  R.Result = compileSource(Job.Source ? *Job.Source : Empty, Job.Opts);
  R.Work = obs::StatRegistry::global().snapshot().deltaFrom(Before);
  return R;
}

} // namespace

std::vector<BatchJobResult>
BatchCompiler::run(const std::vector<BatchJob> &Batch) const {
  std::vector<BatchJobResult> Results(Batch.size());
  if (NumJobs <= 1) {
    for (size_t I = 0, E = Batch.size(); I != E; ++I)
      Results[I] = runOne(Batch[I]);
    return Results;
  }

  std::vector<std::future<void>> Pending;
  Pending.reserve(Batch.size());
  {
    ThreadPool Pool(NumJobs);
    for (size_t I = 0, E = Batch.size(); I != E; ++I)
      Pending.push_back(Pool.submit(
          [&Results, &Batch, I] { Results[I] = runOne(Batch[I]); }));
    // The pool destructor drains and joins here, flushing every worker's
    // stat shard — run() returns with the registry quiescent and exact.
  }
  for (std::future<void> &F : Pending)
    F.get();
  return Results;
}

SweepGrid nascent::buildSweepGrid(const std::vector<NamedSource> &Programs,
                                  const PipelineOptions &Base) {
  SweepGrid G;
  for (const NamedSource &P : Programs) {
    for (PlacementScheme Scheme : AllPlacementSchemes) {
      for (ImplicationMode Mode : AllImplicationModes) {
        PipelineOptions PO = Base;
        PO.Opt.Scheme = Scheme;
        PO.Opt.Implications = Mode;
        G.Jobs.push_back({P.Text, std::move(PO)});
        G.Cells.push_back({P.Name, Scheme, Mode});
      }
    }
  }
  return G;
}

unsigned nascent::resolveJobCount(unsigned Requested) {
  return Requested == 0 ? ThreadPool::defaultWorkers() : Requested;
}

bool nascent::parseCountFlag(const std::string &Text, unsigned Max,
                             unsigned &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
    if (V > Max) // also bounds overflow: V stays below 10 * 2^32
      return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

bool nascent::parseJobCount(const std::string &Text, unsigned &Out) {
  // Far above any sane worker count.
  return parseCountFlag(Text, 4096, Out);
}
