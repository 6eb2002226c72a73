//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed compilation cache shared across a BatchCompiler
/// batch (docs/caching.md). It holds one kind of artifact: a verified
/// post-lowering Module snapshot keyed by (source bytes, lowering options,
/// check source). On a hit the pipeline clones the snapshot and skips
/// parse/sema/lower/verify; everything after the frontend runs every time.
///
/// Builds are single-flight: the first lookup that misses a key takes it
/// in flight (FrontendClaim), and concurrent lookups of that key wait for
/// that one build instead of repeating it.
///
/// Thread safety: the map is sharded by key with one mutex per shard; the
/// hot path (one lookup per compile) never takes a global lock. Entries
/// are immutable once stored and handed out as shared_ptr<const>, so
/// readers on other workers are safe even while a shard evicts. Eviction
/// is per-shard FIFO against a byte budget.
///
/// Hit/miss/byte counters are plain atomics on the cache itself, NOT
/// StatRegistry stats: the registry's snapshot deltas are the byte-exact
/// work maps the determinism gates compare, and cache counters would make
/// a cache-on run's work maps differ from cache-off. See docs/caching.md.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CACHE_ARTIFACTCACHE_H
#define NASCENT_CACHE_ARTIFACTCACHE_H

#include "frontend/Lowering.h"
#include "ir/Function.h"
#include "support/Hash.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace nascent {

namespace obs {
class JsonWriter;
}

namespace cache {

/// A cached frontend result: the verified post-lowering module (before
/// INX synthesis and before optimization), ready to clone.
struct FrontendArtifact {
  std::unique_ptr<const Module> Snapshot;
  uint64_t Bytes = 0;
};

/// The thread-safe, content-addressed artifact cache.
class ArtifactCache {
  struct Flight;

public:
  /// Hit/miss/size counters.
  struct Stats {
    uint64_t FrontendHits = 0;
    uint64_t FrontendMisses = 0;
    uint64_t Bytes = 0;
    uint64_t Evictions = 0;

    /// 0. Read by no src/ code; goes with rcbench's next change (ROADMAP 4/5).
    uint64_t analysisHits() const { return 0; }
    /// 0. Read by no src/ code; goes with rcbench's next change (ROADMAP 4/5).
    uint64_t analysisMisses() const { return 0; }
  };

  /// A key taken in flight by a lookup that missed (see findFrontend).
  /// Lookups of the key wait until storeFrontend publishes it or the claim
  /// is released; in the second case they build for themselves.
  class FrontendClaim {
  public:
    FrontendClaim() = default;
    FrontendClaim(const FrontendClaim &) = delete;
    FrontendClaim &operator=(const FrontendClaim &) = delete;
    ~FrontendClaim() { release(); }

    /// Gives the key up if nothing was stored under it yet; a no-op after
    /// storeFrontend or a previous release.
    void release();

  private:
    friend class ArtifactCache;
    ArtifactCache *Cache = nullptr;
    support::Hash128 Key;
    std::shared_ptr<Flight> F;
  };

  /// \p MaxBytes caps the stored snapshots, enforced per shard
  /// FIFO-oldest-first.
  explicit ArtifactCache(uint64_t MaxBytes = DefaultMaxBytes);

  /// The process-global cache, shared by every pipeline that enables
  /// caching without supplying its own instance.
  static ArtifactCache &global();

  /// The snapshot stored under \p Key, or null. If a claimed build of
  /// \p Key is in flight, waits for it first and returns what it stored.
  std::shared_ptr<const FrontendArtifact>
  findFrontend(const support::Hash128 &Key);

  /// As findFrontend, but a miss with no build in flight also takes \p Key
  /// in flight through the empty \p Claim: the caller builds the snapshot
  /// and stores it with storeFrontend, and concurrent lookups wait for it.
  std::shared_ptr<const FrontendArtifact>
  findFrontend(const support::Hash128 &Key, FrontendClaim &Claim);

  /// Stores \p Snapshot under \p Key (the first store wins) and wakes the
  /// lookups waiting for \p Key.
  void storeFrontend(const support::Hash128 &Key,
                     std::unique_ptr<const Module> Snapshot);

  Stats stats() const;
  void resetStats();

  /// Drops every entry and zeroes the byte gauge. Counters are left to
  /// resetStats(); builds in flight are unaffected.
  void clear();

  uint64_t maxBytes() const { return MaxBytes; }

  /// {"frontend":{"hits":..,"misses":..},"bytes":..,"maxBytes":..,
  ///  "evictions":..}
  void writeStatsJson(obs::JsonWriter &W) const;

  /// One human-readable summary line (no trailing newline), e.g.
  /// "cache: frontend 260/270 hits, 1.2 KB, 0 evictions".
  std::string summaryLine() const;

private:
  static constexpr uint64_t DefaultMaxBytes = 256ull << 20;
  static constexpr size_t NumShards = 16;

  /// One claimed build: Done once it stored its snapshot (Result) or
  /// gave up (Result null).
  struct Flight {
    bool Done = false;
    std::shared_ptr<const FrontendArtifact> Result;
  };

  struct Shard {
    std::mutex Mu;
    /// Notified whenever a build in this shard lands.
    std::condition_variable Landed;
    std::unordered_map<support::Hash128,
                       std::shared_ptr<const FrontendArtifact>,
                       support::Hash128Hasher>
        Map;
    /// Insertion order for FIFO eviction, with each entry's byte estimate.
    std::deque<std::pair<support::Hash128, uint64_t>> Order;
    uint64_t Bytes = 0;
    /// The claimed builds in flight, by key.
    std::unordered_map<support::Hash128, std::shared_ptr<Flight>,
                       support::Hash128Hasher>
        InFlight;
  };

  Shard &shardFor(const support::Hash128 &Key) {
    return Shards[Key.Lo % NumShards];
  }

  std::shared_ptr<const FrontendArtifact>
  lookup(const support::Hash128 &Key, FrontendClaim *Claim);

  /// Ends the flight on \p Key, if any, with \p Result and wakes its
  /// waiters. The caller holds the shard's mutex.
  static void land(Shard &S, const support::Hash128 &Key,
                   std::shared_ptr<const FrontendArtifact> Result);

  uint64_t MaxBytes;
  std::array<Shard, NumShards> Shards;

  std::atomic<uint64_t> FrontendHits{0}, FrontendMisses{0};
  std::atomic<uint64_t> TotalBytes{0};
  std::atomic<uint64_t> Evictions{0};
};

/// The cache key: the source bytes, the lowering options, and the
/// check-source kind. The check source does not change the snapshot
/// (INX synthesis runs on the clone), but it keeps PRX and INX compiles
/// of one source in separate entries.
support::Hash128 hashFrontendKey(const std::string &Source,
                                 const LoweringOptions &Lowering,
                                 unsigned CheckSourceKind);

/// Rough retained size of a snapshot, for the byte budget.
uint64_t approxModuleBytes(const Module &M);

} // namespace cache
} // namespace nascent

#endif // NASCENT_CACHE_ARTIFACTCACHE_H
