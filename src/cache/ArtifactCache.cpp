#include "cache/ArtifactCache.h"

#include "obs/Json.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace nascent;
using namespace nascent::cache;
using support::Hash128;
using support::StableHasher;

ArtifactCache::ArtifactCache(uint64_t MaxBytes) : MaxBytes(MaxBytes) {}

ArtifactCache &ArtifactCache::global() {
  // Leaked, like the stat registry: worker threads may still hold entry
  // references while the process shuts down.
  static ArtifactCache *C = new ArtifactCache();
  return *C;
}

void ArtifactCache::FrontendClaim::release() {
  if (!Cache)
    return;
  // A build that stored its snapshot has already landed; one that gave up
  // (diagnostics, verify failure) lands empty here, so its waiters build
  // for themselves. Until it lands, F is the flight in flight on Key.
  Shard &S = Cache->shardFor(Key);
  {
    std::lock_guard<std::mutex> L(S.Mu);
    if (!F->Done)
      land(S, Key, nullptr);
  }
  Cache = nullptr;
  F.reset();
}

void ArtifactCache::land(Shard &S, const Hash128 &Key,
                         std::shared_ptr<const FrontendArtifact> Result) {
  auto It = S.InFlight.find(Key);
  if (It == S.InFlight.end())
    return;
  It->second->Done = true;
  It->second->Result = std::move(Result);
  S.InFlight.erase(It);
  S.Landed.notify_all();
}

std::shared_ptr<const FrontendArtifact>
ArtifactCache::lookup(const Hash128 &Key, FrontendClaim *Claim) {
  Shard &S = shardFor(Key);
  std::unique_lock<std::mutex> L(S.Mu);
  std::shared_ptr<const FrontendArtifact> A;
  if (auto It = S.Map.find(Key); It != S.Map.end()) {
    A = It->second;
  } else if (auto FI = S.InFlight.find(Key); FI != S.InFlight.end()) {
    std::shared_ptr<Flight> F = FI->second;
    S.Landed.wait(L, [&] { return F->Done; });
    A = F->Result;
  } else if (Claim) {
    Claim->Cache = this;
    Claim->Key = Key;
    Claim->F = std::make_shared<Flight>();
    S.InFlight.emplace(Key, Claim->F);
  }
  (A ? FrontendHits : FrontendMisses).fetch_add(1, std::memory_order_relaxed);
  return A;
}

std::shared_ptr<const FrontendArtifact>
ArtifactCache::findFrontend(const Hash128 &Key) {
  return lookup(Key, nullptr);
}

std::shared_ptr<const FrontendArtifact>
ArtifactCache::findFrontend(const Hash128 &Key, FrontendClaim &Claim) {
  assert(!Claim.Cache && "a claim holds at most one key");
  return lookup(Key, &Claim);
}

void ArtifactCache::storeFrontend(const Hash128 &Key,
                                  std::unique_ptr<const Module> Snapshot) {
  auto A = std::make_shared<FrontendArtifact>();
  A->Bytes = approxModuleBytes(*Snapshot);
  A->Snapshot = std::move(Snapshot);
  uint64_t Bytes = A->Bytes;

  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto [It, Inserted] = S.Map.emplace(Key, std::move(A));
  // A concurrent duplicate build stores second: the first store wins.
  std::shared_ptr<const FrontendArtifact> Stored = It->second;
  if (Inserted) {
    S.Order.emplace_back(Key, Bytes);
    S.Bytes += Bytes;
    TotalBytes.fetch_add(Bytes, std::memory_order_relaxed);
    // FIFO eviction against this shard's slice of the budget. Evicted
    // entries stay alive through any shared_ptr a reader already holds.
    uint64_t ShardBudget = MaxBytes / NumShards;
    while (S.Bytes > ShardBudget && S.Order.size() > 1 &&
           !(S.Order.front().first == Key)) {
      auto [Oldest, OldBytes] = S.Order.front();
      S.Order.pop_front();
      S.Map.erase(Oldest);
      S.Bytes -= OldBytes < S.Bytes ? OldBytes : S.Bytes;
      TotalBytes.fetch_sub(OldBytes, std::memory_order_relaxed);
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  land(S, Key, std::move(Stored));
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats S;
  S.FrontendHits = FrontendHits.load(std::memory_order_relaxed);
  S.FrontendMisses = FrontendMisses.load(std::memory_order_relaxed);
  S.Bytes = TotalBytes.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  return S;
}

void ArtifactCache::resetStats() {
  FrontendHits = FrontendMisses = 0;
  Evictions = 0;
}

void ArtifactCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> L(S.Mu);
    S.Map.clear();
    S.Order.clear();
    S.Bytes = 0;
  }
  TotalBytes = 0;
}

void ArtifactCache::writeStatsJson(obs::JsonWriter &W) const {
  Stats S = stats();
  W.beginObject();
  W.key("frontend").beginObject();
  W.kv("hits", S.FrontendHits);
  W.kv("misses", S.FrontendMisses);
  W.endObject();
  W.kv("bytes", S.Bytes);
  W.kv("maxBytes", MaxBytes);
  W.kv("evictions", S.Evictions);
  W.endObject();
}

std::string ArtifactCache::summaryLine() const {
  Stats S = stats();
  return formatString(
      "cache: frontend %llu/%llu hits, %.1f KB, %llu evictions",
      static_cast<unsigned long long>(S.FrontendHits),
      static_cast<unsigned long long>(S.FrontendHits + S.FrontendMisses),
      static_cast<double>(S.Bytes) / 1024.0,
      static_cast<unsigned long long>(S.Evictions));
}

Hash128 nascent::cache::hashFrontendKey(const std::string &Source,
                                        const LoweringOptions &Lowering,
                                        unsigned CheckSourceKind) {
  StableHasher H;
  H.str(Source);
  H.boolean(Lowering.InsertChecks);
  H.boolean(Lowering.SyntacticAtoms);
  H.u64(CheckSourceKind);
  return H.digest();
}

uint64_t nascent::cache::approxModuleBytes(const Module &M) {
  uint64_t B = sizeof(Module);
  for (const Function *F : M.functions()) {
    B += sizeof(Function) + F->name().size();
    B += F->symbols().size() * (sizeof(Symbol) + 16);
    B += F->doLoops().size() * sizeof(DoLoopInfo);
    for (const auto &BB : *F) {
      B += sizeof(BasicBlock) + BB->name().size();
      for (const Instruction &I : BB->instructions()) {
        B += sizeof(Instruction);
        B += (I.Operands.size() + I.Indices.size()) * sizeof(Value);
        B += I.Guards.size() * sizeof(CheckExpr);
        B += (I.Check.expr().terms().size() + 2) * 16;
        B += I.Origin.ArrayName.size() + I.Callee.size();
      }
    }
  }
  return B;
}
