//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned bench record schema. Every machine-readable document the
/// project emits (`--json` harness output, `mfc -stats-json`,
/// `sweep --json`) is stamped with `schemaVersion`; bench documents
/// additionally carry the harness name, an environment block (compiler,
/// build type, flags, sanitizers, git revision, CPU), and the repetition
/// config, so a baseline file read months later still says what produced
/// it. `validateBenchDocument` is the structural half of the regression
/// gate: json_check rejects unknown versions and missing required fields,
/// not just unparsable text.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_BENCHSCHEMA_H
#define NASCENT_OBS_BENCHSCHEMA_H

#include <cstdint>
#include <string>

namespace nascent {
namespace obs {

class JsonWriter;
struct JsonValue;

/// Version of the bench/stats document schema. Bump on any incompatible
/// shape change and teach validateBenchDocument/benchdiff the new shape.
constexpr int64_t BenchSchemaVersion = 1;

/// Where a measurement ran: everything that could plausibly explain a
/// perf delta that is not a code change.
struct BenchEnv {
  std::string Compiler;      ///< compiler id + version ("GNU 12.2.0")
  std::string BuildType;     ///< CMAKE_BUILD_TYPE at configure time
  std::string CxxFlags;      ///< CMAKE_CXX_FLAGS at configure time
  std::string Sanitize;      ///< NASCENT_SANITIZE config ("" when off)
  std::string GitSha;        ///< HEAD revision, "unknown" outside a repo
  std::string Cpu;           ///< CPU model string from /proc/cpuinfo
  uint64_t HardwareThreads = 0;
};

/// Captures the current environment. The git revision is resolved by
/// running `git rev-parse HEAD` in the working directory; everything else
/// is compile-time definitions or /proc.
BenchEnv captureBenchEnv();

/// {"compiler":...,"buildType":...,"cxxFlags":...,"sanitize":...,
///  "gitSha":...,"cpu":...,"hardwareThreads":...}
void writeBenchEnv(JsonWriter &W, const BenchEnv &Env);

/// Reads the writeBenchEnv shape; unknown keys are ignored, missing keys
/// leave the default.
bool readBenchEnv(const JsonValue &V, BenchEnv &Out);

/// Structural validation of one bench document: top-level object with a
/// known schemaVersion, a harness name, an env block with every required
/// field, a config block, and either a "runs" array (table harnesses,
/// each element carrying a "run" object with the measured fields) or a
/// "googleBenchmark" object (the wrapped google-benchmark harnesses).
/// On failure returns false and describes the first problem in \p Err.
bool validateBenchDocument(const JsonValue &Doc, std::string *Err);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_BENCHSCHEMA_H
