#include "Composed.h"

#include "audit/TrapSafetyAuditor.h"
#include "cache/ArtifactCache.h"
#include "checks/INXSynthesis.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <sstream>

using namespace nascent;
using namespace rcbench;

// Keep this function call for call in step with compileSource
// (src/driver/Pipeline.cpp); checkIdentity() fails the traced run if the
// two drift apart.
ComposedResult rcbench::composedCompile(const std::string &Source,
                                        const PipelineOptions &Opts,
                                        SpanRecorder &Spans) {
  ComposedResult R;
  if (Opts.Telemetry.Remarks)
    R.Remarks.enable(Opts.Telemetry.RemarkFilter);
  if (Opts.Telemetry.Provenance)
    R.Provenance.enable();

  cache::ArtifactCache *Cache =
      Opts.Cache.Enabled
          ? (Opts.Cache.Cache ? Opts.Cache.Cache
                              : &cache::ArtifactCache::global())
          : nullptr;
  support::Hash128 FrontKey;
  std::unique_ptr<Module> M;
  if (Cache) {
    std::shared_ptr<const cache::FrontendArtifact> FA;
    {
      ScopedSpan S(Spans, Call::CacheLookup);
      FrontKey = cache::hashFrontendKey(Source, Opts.Lowering,
                                        static_cast<unsigned>(Opts.Source));
      FA = Cache->findFrontend(FrontKey);
    }
    if (FA) {
      ScopedSpan S(Spans, Call::Clone);
      M = FA->Snapshot->clone();
      R.FrontendHit = true;
    }
  }

  if (!M) {
    std::unique_ptr<ProgramAST> AST;
    {
      ScopedSpan S(Spans, Call::Parse);
      Parser P(Source, R.Diags);
      AST = P.parseProgram();
    }
    R.ParsedBytes = Source.size();
    if (R.Diags.hasErrors())
      return R;
    {
      ScopedSpan S(Spans, Call::Sema);
      Sema Se(*AST, R.Diags);
      M = Se.run();
    }
    if (!M || R.Diags.hasErrors())
      return R;
    {
      ScopedSpan S(Spans, Call::Lower);
      lowerProgram(*AST, *M, Opts.Lowering);
    }
    {
      ScopedSpan S(Spans, Call::Measure);
      R.LoweredInstrs = countStatic(*M).Instrs;
    }
    {
      ScopedSpan S(Spans, Call::ObsRecord);
      obs::recordInsertedChecks(*M, "Lowering", R.Provenance);
    }
    bool VerifyOk;
    {
      ScopedSpan S(Spans, Call::Verify);
      VerifyOk = verifyModule(*M, R.Diags);
    }
    if (!VerifyOk)
      return R;
    if (Cache && R.Diags.diagnostics().empty()) {
      std::unique_ptr<Module> Snap;
      {
        ScopedSpan S(Spans, Call::Clone);
        Snap = M->clone();
      }
      ScopedSpan S(Spans, Call::CacheLookup);
      Cache->storeFrontend(FrontKey, std::move(Snap));
    }
  } else {
    ScopedSpan S(Spans, Call::ObsRecord);
    obs::recordInsertedChecks(*M, "Lowering", R.Provenance);
  }

  if (Opts.Source == CheckSource::INX) {
    ScopedSpan S(Spans, Call::Inx);
    for (Function *F : M->functions())
      synthesizeINXChecks(*F, &R.Provenance);
  }

  if (Opts.Optimize) {
    std::unique_ptr<Module> Snapshot;
    if (Opts.Audit) {
      ScopedSpan S(Spans, Call::Clone);
      Snapshot = M->clone();
    }
    {
      ScopedSpan S(Spans, Call::Optimize);
      obs::TraceCollector Trace;
      RangeCheckOptions OC = Opts.Opt;
      OC.Remarks = &R.Remarks;
      OC.Trace = &Trace;
      OC.Provenance = &R.Provenance;
      OC.Cache = Cache;
      OC.ModuleKey = FrontKey;
      R.Stats = optimizeModule(*M, OC, R.Diags);
    }
    bool PostOk;
    {
      ScopedSpan S(Spans, Call::Verify);
      DiagnosticEngine VerifyDiags;
      PostOk = verifyModule(*M, VerifyDiags);
      if (!PostOk)
        R.Diags.error(SourceLocation(),
                      "internal error: optimizer produced malformed IR:\n" +
                          VerifyDiags.render());
    }
    if (!PostOk)
      return R;
    if (Opts.Audit) {
      ScopedSpan S(Spans, Call::Audit);
      AuditOptions AO;
      AO.Scheme = Opts.Opt.Scheme;
      R.Audit = auditModulePair(*Snapshot, *M, AO);
      if (!R.Audit.clean())
        R.Audit.emitTo(R.Diags);
    }
  }

  {
    ScopedSpan S(Spans, Call::ObsRecord);
    obs::recordResidualChecks(*M, R.Provenance);
  }
  R.M = std::move(M);
  R.Success = true;
  return R;
}

std::string rcbench::checkIdentity(const CompileResult &Ref,
                                   const ComposedResult &Got) {
  if (Ref.Success != Got.Success)
    return "success flag";
  std::ostringstream A, B;
  Ref.Stats.print(A);
  Got.Stats.print(B);
  if (A.str() != B.str())
    return "OptimizerStats";
  if (Ref.M && Got.M && printModule(*Ref.M) != printModule(*Got.M))
    return "printed IR";
  if (static_cast<bool>(Ref.M) != static_cast<bool>(Got.M))
    return "module presence";
  if (Ref.Provenance.toJson() != Got.Provenance.toJson())
    return "provenance JSON";
  if (Ref.Audit.numFindings() != Got.Audit.numFindings())
    return "audit findings";
  if (Ref.Diags.render() != Got.Diags.render())
    return "diagnostics";
  return "";
}
