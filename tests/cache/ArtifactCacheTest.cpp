//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the content-addressed artifact cache (docs/caching.md):
/// key stability and discrimination, first-store-wins sharing, FIFO
/// eviction under a byte budget (with evicted entries surviving through
/// held references), exact hit/miss reconciliation when the pipeline
/// compiles the same source repeatedly, and single-flight builds when it
/// compiles one source on many threads at once.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "driver/Pipeline.h"
#include "suite/Suite.h"
#include "support/Hash.h"

#include "gtest/gtest.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace nascent;
using support::Hash128;

namespace {

TEST(ArtifactCache, FrontendKeyIsStableAndDiscriminates) {
  LoweringOptions L;
  Hash128 A = cache::hashFrontendKey("program p\nend program", L, 0);
  Hash128 B = cache::hashFrontendKey("program p\nend program", L, 0);
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.isZero());
  EXPECT_EQ(A.hex().size(), 32u);

  // Any key component changing must change the key: the source bytes,
  // each lowering option, and the check-source kind (PRX and INX compiles
  // of one source keep separate entries).
  EXPECT_NE(cache::hashFrontendKey("program q\nend program", L, 0), A);
  LoweringOptions NoChecks = L;
  NoChecks.InsertChecks = false;
  EXPECT_NE(cache::hashFrontendKey("program p\nend program", NoChecks, 0), A);
  EXPECT_NE(cache::hashFrontendKey("program p\nend program", L, 1), A);
}

TEST(ArtifactCache, StableHasherIsOrderAndLengthSensitive) {
  support::StableHasher H1, H2, H3;
  H1.str("ab");
  H1.str("c");
  H2.str("a");
  H2.str("bc");
  H3.str("abc");
  // Length-prefixed fields: concatenation cannot alias a shifted split.
  EXPECT_NE(H1.digest(), H2.digest());
  EXPECT_NE(H2.digest(), H3.digest());
  // digest() is non-destructive.
  EXPECT_EQ(H3.digest(), H3.digest());
}

/// The verified post-lowering module of a suite program, as the pipeline
/// would store it.
std::unique_ptr<const Module> frontendSnapshot(const char *Name) {
  const SuiteProgram *P = findSuiteProgram(Name);
  EXPECT_NE(P, nullptr);
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileSource(P->Source, PO);
  EXPECT_TRUE(R.Success);
  return std::move(R.M);
}

TEST(ArtifactCache, FirstStoreWinsAndEntriesAreShared) {
  cache::ArtifactCache C;
  Hash128 Key{1, 2};
  std::unique_ptr<const Module> First = frontendSnapshot("vortex");
  const Module *FirstPtr = First.get();
  C.storeFrontend(Key, std::move(First));
  // A concurrent duplicate build stores second: the original entry wins
  // so every reader shares one artifact.
  C.storeFrontend(Key, frontendSnapshot("vortex"));
  std::shared_ptr<const cache::FrontendArtifact> A = C.findFrontend(Key);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Snapshot.get(), FirstPtr);
  EXPECT_EQ(C.findFrontend(Key), A);
}

TEST(ArtifactCache, EvictionIsFifoWithinBudgetAndKeepsLiveReaders) {
  // A 16-byte budget gives each shard a 1-byte slice, so every store
  // overflows its shard and evicts all older entries in it. Keys with
  // equal Lo % 16 land in one shard, making the FIFO order observable.
  cache::ArtifactCache C(/*MaxBytes=*/16);
  Hash128 K1{16, 0}, K2{32, 0}, K3{48, 0};

  C.storeFrontend(K1, frontendSnapshot("vortex"));
  std::shared_ptr<const cache::FrontendArtifact> Held = C.findFrontend(K1);
  ASSERT_NE(Held, nullptr);

  C.storeFrontend(K2, frontendSnapshot("vortex"));
  C.storeFrontend(K3, frontendSnapshot("vortex"));

  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.Evictions, 2u);
  // Oldest entries are gone, the newest survives (the just-stored entry
  // is never evicted, even over budget).
  EXPECT_EQ(C.findFrontend(K1), nullptr);
  EXPECT_EQ(C.findFrontend(K2), nullptr);
  EXPECT_NE(C.findFrontend(K3), nullptr);
  // The held reference outlives the eviction.
  EXPECT_FALSE(Held->Snapshot->functions().empty());
  EXPECT_EQ(Held->Bytes, cache::approxModuleBytes(*Held->Snapshot));

  C.clear();
  EXPECT_EQ(C.findFrontend(K3), nullptr);
  EXPECT_EQ(C.stats().Bytes, 0u);
}

TEST(ArtifactCache, PipelineHitsAndMissesReconcileExactly) {
  // K identical compiles against a fresh cache: the first misses, each
  // later compile hits. The cache has no other tier, so that is every
  // lookup there is.
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  cache::ArtifactCache C;
  constexpr unsigned K = 4;
  for (unsigned I = 0; I != K; ++I) {
    PipelineOptions PO;
    PO.Opt.Scheme = PlacementScheme::NI;
    PO.Cache.Enabled = true;
    PO.Cache.Cache = &C;
    CompileResult R = compileSource(P->Source, PO);
    ASSERT_TRUE(R.Success);
  }
  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.FrontendMisses, 1u);
  EXPECT_EQ(S.FrontendHits, K - 1);
  EXPECT_GT(S.Bytes, 0u);

  C.resetStats();
  S = C.stats();
  EXPECT_EQ(S.FrontendHits + S.FrontendMisses + S.Evictions, 0u);
  EXPECT_GT(S.Bytes, 0u); // resetStats keeps the contents (and the gauge)
}

TEST(ArtifactCache, ConcurrentCompilesOfOneSourceBuildItOnce) {
  // N threads released together compile one source against one fresh
  // cache. The first lookup claims the key and the rest wait for its
  // build, so the frontend is built exactly once whatever the schedule.
  // The source is large enough (500 loops, a few ms to build) that the
  // threads' lookups overlap the first build even when the scheduler
  // time-slices them on one core.
  std::string Source = "program big\n  integer i, n\n  real a(100)\n  n = 90\n";
  for (unsigned L = 0; L != 500; ++L)
    Source += "  do i = 1, n\n    a(i) = real(i) * 0.5 + a(i + " +
              std::to_string(L % 10) + ")\n  end do\n";
  Source += "  print a(45)\nend program\n";
  cache::ArtifactCache C;
  constexpr unsigned N = 8;
  std::atomic<unsigned> Arrived{0};
  std::atomic<unsigned> Succeeded{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&] {
      PipelineOptions PO;
      PO.Optimize = false;
      PO.Cache.Enabled = true;
      PO.Cache.Cache = &C;
      ++Arrived;
      while (Arrived.load() != N)
        std::this_thread::yield();
      if (compileSource(Source, PO).Success)
        ++Succeeded;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Succeeded.load(), N);
  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.FrontendMisses, 1u);
  EXPECT_EQ(S.FrontendHits, N - 1);
}

TEST(ArtifactCache, ConcurrentCompilesOfABrokenSourceEachReportIt) {
  // A compile that fails stores nothing: its claim is released on the
  // early return, so no thread waits forever and each reports the error.
  const std::string Source = "program broken\n  integer\nend program\n";
  cache::ArtifactCache C;
  constexpr unsigned N = 4;
  std::atomic<unsigned> Failed{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&] {
      PipelineOptions PO;
      PO.Cache.Enabled = true;
      PO.Cache.Cache = &C;
      CompileResult R = compileSource(Source, PO);
      if (!R.Success && R.Diags.hasErrors())
        ++Failed;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failed.load(), N);
  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.FrontendMisses, N);
  EXPECT_EQ(S.FrontendHits, 0u);
  EXPECT_EQ(S.Bytes, 0u);
}

TEST(ArtifactCache, ReleasedClaimLetsWaitersBuildForThemselves) {
  // A build that stores nothing (a compile with diagnostics) releases its
  // claim: a lookup waiting on the key, or arriving after, gets nothing
  // and counts a miss, and the key can be claimed and stored again.
  cache::ArtifactCache C;
  Hash128 Key{7, 7};
  cache::ArtifactCache::FrontendClaim Claim;
  EXPECT_EQ(C.findFrontend(Key, Claim), nullptr);
  std::shared_ptr<const cache::FrontendArtifact> Seen;
  std::thread Waiter([&] { Seen = C.findFrontend(Key); });
  Claim.release();
  Waiter.join();
  EXPECT_EQ(Seen, nullptr);
  EXPECT_EQ(C.stats().FrontendMisses, 2u);

  cache::ArtifactCache::FrontendClaim Again;
  EXPECT_EQ(C.findFrontend(Key, Again), nullptr);
  C.storeFrontend(Key, frontendSnapshot("vortex"));
  EXPECT_NE(C.findFrontend(Key), nullptr);
  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.FrontendMisses, 3u);
  EXPECT_EQ(S.FrontendHits, 1u);
}

TEST(ArtifactCache, LookupWaitsForTheClaimedBuild) {
  // A lookup that arrives while a claimed build is in flight returns the
  // snapshot that build stores, and counts a hit.
  cache::ArtifactCache C;
  Hash128 Key{9, 9};
  cache::ArtifactCache::FrontendClaim Claim;
  EXPECT_EQ(C.findFrontend(Key, Claim), nullptr);
  std::shared_ptr<const cache::FrontendArtifact> Seen;
  std::thread Waiter([&] { Seen = C.findFrontend(Key); });
  std::unique_ptr<const Module> M = frontendSnapshot("vortex");
  const Module *Stored = M.get();
  C.storeFrontend(Key, std::move(M));
  Waiter.join();
  ASSERT_NE(Seen, nullptr);
  EXPECT_EQ(Seen->Snapshot.get(), Stored);
  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.FrontendMisses, 1u);
  EXPECT_EQ(S.FrontendHits, 1u);
}

} // namespace
