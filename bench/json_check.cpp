//===----------------------------------------------------------------------===//
///
/// \file
/// json_check: runs a command, captures its stdout, and verifies the
/// output is a single well-formed bench document — not just parsable
/// JSON, but a known schemaVersion with every required envelope field
/// (harness, env, config) and a plausible runs/googleBenchmark payload
/// (obs/BenchSchema.h). The bench-smoke CTest entries use it to validate
/// every harness's --json mode:
///
///   json_check ./table2_schemes --json --tiny
///
/// A document carrying a "provenance" member is instead validated as a
/// check-lifecycle provenance envelope (obs/Provenance.h): every event
/// well-formed, every witness-tag reference resolved, every lifecycle
/// terminal. The provenance-smoke entries drive mfc -provenance-json
/// through this path.
///
/// A document carrying a "profileVersion" member is validated as an
/// execution-profile document (obs/Profile.h): either a single "profile"
/// object whose advertised totals reconcile with the per-function
/// structure, or a profdiff "programs" comparison report. The
/// profile-smoke entries drive mfc -profile-json and profdiff --json
/// through this path.
///
/// A document whose "tool" is "sweep" is validated as a `sweep --json`
/// report: every run names its program, scheme and mode and carries its
/// stats, and "runCount" equals the number of runs.
///
/// Additionally, a document carrying a "cacheStats" member (mfc -cache
/// -stats-json, docs/caching.md) has that block checked for shape: the
/// one frontend tier present with non-negative hit/miss counters, no
/// other tier, and the byte gauge within the advertised budget. The
/// cache-smoke entries rely on this.
///
/// Exits 0 on a valid document, 1 on a parse/validation failure or a
/// failing command.
///
//===----------------------------------------------------------------------===//

#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "obs/Profile.h"
#include "obs/Provenance.h"

#include <cstdio>
#include <string>

using namespace nascent;

namespace {

/// Validates the "cacheStats" block emitted by ArtifactCache::
/// writeStatsJson: {"frontend":{"hits","misses"},"bytes","maxBytes",
/// "evictions"} and no "analysis" tier, every counter a non-negative
/// number and the live byte gauge within the advertised budget.
bool validateCacheStats(const obs::JsonValue &CS, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = "cacheStats: " + Msg;
    return false;
  };
  if (!CS.isObject())
    return Fail("not an object");
  const obs::JsonValue *Frontend = CS.get("frontend");
  if (!Frontend || !Frontend->isObject())
    return Fail("frontend missing");
  for (const char *Counter : {"hits", "misses"}) {
    const obs::JsonValue *C = Frontend->get(Counter);
    if (!C || !C->isNumber() || C->Number < 0)
      return Fail(std::string("frontend.") + Counter + " missing or negative");
  }
  if (CS.get("analysis"))
    return Fail("unexpected analysis tier");
  for (const char *Field : {"bytes", "maxBytes", "evictions"}) {
    const obs::JsonValue *F = CS.get(Field);
    if (!F || !F->isNumber() || F->Number < 0)
      return Fail(std::string(Field) + " missing or negative");
  }
  if (CS.get("bytes")->Number > CS.get("maxBytes")->Number)
    return Fail("bytes exceeds maxBytes");
  return true;
}

/// Validates a `sweep --json` document: {"schemaVersion", "tool":"sweep",
/// "runs":[{"program","scheme","impl","stats",...}], "runCount" equal to
/// the number of runs, "failures", "configs":[...]}.
bool validateSweepDocument(const obs::JsonValue &Doc, std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = "sweep: " + Msg;
    return false;
  };
  const obs::JsonValue *Version = Doc.get("schemaVersion");
  if (!Version || !Version->isNumber() ||
      Version->Number != static_cast<double>(obs::BenchSchemaVersion))
    return Fail("missing or unknown schemaVersion");
  const obs::JsonValue *Runs = Doc.get("runs");
  if (!Runs || !Runs->isArray() || Runs->Array.empty())
    return Fail("'runs' is not a non-empty array");
  for (size_t I = 0; I != Runs->Array.size(); ++I) {
    const obs::JsonValue &Run = Runs->Array[I];
    std::string Where = "runs[" + std::to_string(I) + "]";
    if (!Run.isObject())
      return Fail(Where + " is not an object");
    for (const char *Key : {"program", "scheme", "impl"})
      if (const obs::JsonValue *F = Run.get(Key); !F || !F->isString())
        return Fail(Where + " missing string field '" + Key + "'");
    if (const obs::JsonValue *F = Run.get("stats"); !F || !F->isObject())
      return Fail(Where + " missing object field 'stats'");
  }
  const obs::JsonValue *Count = Doc.get("runCount");
  if (!Count || !Count->isNumber() ||
      Count->Number != static_cast<double>(Runs->Array.size()))
    return Fail("'runCount' does not equal the number of runs");
  if (const obs::JsonValue *F = Doc.get("failures"); !F || !F->isNumber())
    return Fail("missing numeric field 'failures'");
  if (const obs::JsonValue *F = Doc.get("configs"); !F || !F->isArray())
    return Fail("missing array field 'configs'");
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_check COMMAND [ARGS...]\n");
    return 2;
  }

  std::string Cmd;
  for (int I = 1; I < argc; ++I) {
    if (I > 1)
      Cmd += ' ';
    Cmd += argv[I];
  }

  FILE *P = popen(Cmd.c_str(), "r");
  if (!P) {
    std::fprintf(stderr, "json_check: cannot run '%s'\n", Cmd.c_str());
    return 1;
  }
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (Status != 0) {
    std::fprintf(stderr, "json_check: '%s' exited with status %d\n",
                 Cmd.c_str(), Status);
    return 1;
  }

  obs::JsonValue V;
  std::string Err;
  if (!obs::parseJson(Out, V, &Err)) {
    std::fprintf(stderr, "json_check: '%s' output is not valid JSON: %s\n",
                 Cmd.c_str(), Err.c_str());
    return 1;
  }
  bool Ok;
  if (const obs::JsonValue *Tool = V.get("tool");
      Tool && Tool->isString() && Tool->String == "sweep")
    Ok = validateSweepDocument(V, &Err);
  else if (V.get("profileVersion"))
    Ok = obs::validateProfileDocument(V, &Err);
  else if (V.get("provenance"))
    Ok = obs::validateProvenanceDocument(V, &Err);
  else
    Ok = obs::validateBenchDocument(V, &Err);
  if (Ok && V.get("cacheStats"))
    Ok = validateCacheStats(*V.get("cacheStats"), &Err);
  if (!Ok) {
    std::fprintf(stderr,
                 "json_check: '%s' output fails schema validation: %s\n",
                 Cmd.c_str(), Err.c_str());
    return 1;
  }
  std::printf("json_check: %s: ok (%zu bytes, schemaVersion %lld)\n",
              Cmd.c_str(), Out.size(),
              static_cast<long long>(obs::BenchSchemaVersion));
  return 0;
}
