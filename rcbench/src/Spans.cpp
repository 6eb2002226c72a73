#include "Spans.h"

#include <cstdio>

using namespace rcbench;

namespace {

struct CallInfo {
  const char *Name;
  const char *Layer;
};

constexpr CallInfo Calls[] = {
    {"cell", "driver"},          {"parse", "lang"},
    {"sema", "lang"},            {"lower", "frontend"},
    {"verify", "ir"},            {"clone", "ir"},
    {"inx", "checks"},           {"optimize", "opt"},
    {"audit", "audit"},          {"cache-lookup", "cache"},
    {"obs-record", "obs"},       {"interpret", "interp"},
    {"measure", "bench"},
};
static_assert(sizeof(Calls) / sizeof(Calls[0]) ==
              static_cast<size_t>(Call::NumCalls));

} // namespace

const char *rcbench::callName(Call C) {
  return Calls[static_cast<size_t>(C)].Name;
}

const char *rcbench::callLayer(Call C) {
  return Calls[static_cast<size_t>(C)].Layer;
}

uint32_t SpanRecorder::begin(Call C) {
  uint32_t Idx = static_cast<uint32_t>(All.size());
  uint32_t Parent = Open.empty() ? Span::NoParent : Open.back();
  All.push_back({C, Parent, CellId, nowNs(), 0});
  Open.push_back(Idx);
  return Idx;
}

void SpanRecorder::end(uint32_t Idx) {
  All[Idx].EndNs = nowNs();
  Open.pop_back();
}

std::vector<int64_t> SpanRecorder::selfTimesNs(size_t From, size_t To) const {
  std::vector<int64_t> Self(To - From);
  for (size_t I = From; I != To; ++I)
    Self[I - From] = All[I].EndNs - All[I].StartNs;
  for (size_t I = From; I != To; ++I) {
    uint32_t P = All[I].Parent;
    if (P != Span::NoParent && P >= From && P < To)
      Self[P - From] -= All[I].EndNs - All[I].StartNs;
  }
  std::vector<int64_t> PerCall(static_cast<size_t>(Call::NumCalls), 0);
  for (size_t I = From; I != To; ++I)
    PerCall[static_cast<size_t>(All[I].C)] += Self[I - From];
  return PerCall;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Epoch = All.empty() ? 0 : All.front().StartNs;
  std::fputs("{\"traceEvents\":[", F);
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"cell\":%u}}",
                 I ? "," : "", callName(S.C), callLayer(S.C),
                 static_cast<double>(S.StartNs - Epoch) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                 S.Parent == Span::NoParent ? -1LL
                                            : static_cast<long long>(S.Parent),
                 S.CellId);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
