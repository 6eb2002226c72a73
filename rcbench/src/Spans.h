//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recording for the traced benchmark run. Each span is one
/// call into a compiler layer (or one whole cell), with its start, end and
/// the span that caused it; spans of one cell share the cell id. Spans are
/// kept in memory while the benchmark runs and written out as a Chrome
/// trace_event file when it ends.
///
//===----------------------------------------------------------------------===//

#ifndef RCBENCH_SPANS_H
#define RCBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rcbench {

/// The public call a span wraps. Each call belongs to one src/ layer.
enum class Call : uint8_t {
  Cell,        ///< one whole cell (driver: the composition glue)
  Parse,       ///< lang: Parser::parseProgram
  Sema,        ///< lang: Sema::run
  Lower,       ///< frontend: lowerProgram
  Verify,      ///< ir: verifyModule
  Clone,       ///< ir: Module::clone
  Inx,         ///< checks: synthesizeINXChecks
  Optimize,    ///< opt: optimizeModule
  Audit,       ///< audit: auditModulePair
  CacheLookup, ///< cache: hashFrontendKey / findFrontend / storeFrontend
  ObsRecord,   ///< obs: recordInsertedChecks / recordResidualChecks
  Interpret,   ///< interp: interpret
  Measure,     ///< the benchmark's own counting; tracing overhead
  NumCalls
};

const char *callName(Call C);
/// The src/ layer a call belongs to ("lang", "ir", ...).
const char *callLayer(Call C);

struct Span {
  Call C;
  uint32_t Parent; ///< index of the causing span; NoParent for a root
  uint32_t CellId;
  int64_t StartNs;
  int64_t EndNs;
  static constexpr uint32_t NoParent = ~uint32_t(0);
};

/// Appends spans; open spans form a stack, so a span opened while another
/// is open records it as its parent. Disabled recorders record nothing.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled = false) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  void setCell(uint32_t Id) { CellId = Id; }

  uint32_t begin(Call C);
  void end(uint32_t Idx);

  const std::vector<Span> &spans() const { return All; }
  size_t size() const { return All.size(); }

  /// Self time (own duration minus direct children's) summed per call
  /// over spans [From, To), in nanoseconds.
  std::vector<int64_t> selfTimesNs(size_t From, size_t To) const;

  /// Writes spans as Chrome trace_event JSON (one complete event each).
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  uint32_t CellId = 0;
  std::vector<Span> All;
  std::vector<uint32_t> Open;
};

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII span around one call.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, Call C)
      : R(R), Idx(R.enabled() ? R.begin(C) : Span::NoParent) {}
  ~ScopedSpan() {
    if (Idx != Span::NoParent)
      R.end(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Index of this span, NoParent when the recorder is disabled.
  uint32_t index() const { return Idx; }

private:
  SpanRecorder &R;
  uint32_t Idx;
};

} // namespace rcbench

#endif // RCBENCH_SPANS_H
