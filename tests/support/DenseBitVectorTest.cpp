#include "support/DenseBitVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace nascent;

TEST(DenseBitVector, EmptyVector) {
  DenseBitVector V;
  EXPECT_EQ(V.size(), 0u);
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.none());
  EXPECT_EQ(V.count(), 0u);
  EXPECT_EQ(V.findNext(0), DenseBitVector::npos);
}

TEST(DenseBitVector, SetResetTest) {
  DenseBitVector V(130);
  EXPECT_FALSE(V.test(0));
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(DenseBitVector, InitialValueTrue) {
  DenseBitVector V(70, true);
  EXPECT_EQ(V.count(), 70u);
  EXPECT_TRUE(V.test(69));
}

TEST(DenseBitVector, SetAllRespectsSize) {
  // The unused high bits of the last word must stay clear so count and
  // equality remain exact.
  DenseBitVector V(65);
  V.setAll();
  EXPECT_EQ(V.count(), 65u);
  DenseBitVector W(65, true);
  EXPECT_EQ(V, W);
}

TEST(DenseBitVector, FindNextSkipsWords) {
  DenseBitVector V(256);
  V.set(3);
  V.set(200);
  EXPECT_EQ(V.findNext(0), 3u);
  EXPECT_EQ(V.findNext(4), 200u);
  EXPECT_EQ(V.findNext(201), DenseBitVector::npos);
}

TEST(DenseBitVector, SetAlgebra) {
  DenseBitVector A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);

  DenseBitVector Or = A;
  Or |= B;
  EXPECT_TRUE(Or.test(1));
  EXPECT_TRUE(Or.test(50));
  EXPECT_TRUE(Or.test(99));
  EXPECT_EQ(Or.count(), 3u);

  DenseBitVector And = A;
  And &= B;
  EXPECT_EQ(And.count(), 1u);
  EXPECT_TRUE(And.test(50));

  DenseBitVector Diff = A;
  Diff.andNot(B);
  EXPECT_EQ(Diff.count(), 1u);
  EXPECT_TRUE(Diff.test(1));
}

TEST(DenseBitVector, ResizePreservesAndClears) {
  DenseBitVector V(64);
  V.set(10);
  V.resize(128);
  EXPECT_TRUE(V.test(10));
  EXPECT_FALSE(V.test(100));
  V.resize(8);
  EXPECT_EQ(V.size(), 8u);
}

TEST(DenseBitVector, ForEachSetBitOrder) {
  DenseBitVector V(300);
  std::vector<size_t> Expected = {0, 63, 64, 128, 299};
  for (size_t B : Expected)
    V.set(B);
  std::vector<size_t> Seen;
  V.forEachSetBit([&](size_t B) { Seen.push_back(B); });
  EXPECT_EQ(Seen, Expected);
}

namespace {

/// Sizes on both sides of the one-inline-word boundary (64 bits).
const size_t BoundarySizes[] = {0, 1, 63, 64, 65, 128, 129};

/// A deterministic pattern over \p N bits that sets the last bit and, for
/// distinct \p Seed values, differs in the first word.
DenseBitVector pattern(size_t N, unsigned Seed) {
  DenseBitVector V(N);
  for (size_t I = 0; I < N; ++I)
    if ((I * 7 + Seed) % 3 == 0)
      V.set(I);
  if (N != 0)
    V.set(N - 1);
  return V;
}

/// The set bits of \p V, read one at a time.
std::vector<size_t> bitsOf(const DenseBitVector &V) {
  std::vector<size_t> Out;
  for (size_t I = 0; I != V.size(); ++I)
    if (V.test(I))
      Out.push_back(I);
  return Out;
}

/// The set bits of \p V, read through findNext.
std::vector<size_t> foundBits(const DenseBitVector &V) {
  std::vector<size_t> Out;
  V.forEachSetBit([&](size_t I) { Out.push_back(I); });
  return Out;
}

} // namespace

TEST(DenseBitVector, ExactAtRepresentationBoundary) {
  for (size_t N : BoundarySizes) {
    SCOPED_TRACE("size " + std::to_string(N));
    DenseBitVector V(N);
    EXPECT_EQ(V.size(), N);
    EXPECT_TRUE(V.none());
    EXPECT_EQ(V.count(), 0u);
    EXPECT_EQ(V.findNext(0), DenseBitVector::npos);

    V.setAll();
    EXPECT_EQ(V.count(), N);
    EXPECT_EQ(V, DenseBitVector(N, true));
    EXPECT_NE(V, DenseBitVector(N + 1, true));
    EXPECT_EQ(V.findNext(0), N == 0 ? DenseBitVector::npos : 0);
    EXPECT_EQ(V.findNext(N), DenseBitVector::npos);
    if (N != 0) {
      EXPECT_EQ(V.findNext(N - 1), N - 1);
    }

    V.resetAll();
    EXPECT_TRUE(V.none());
    EXPECT_EQ(V, DenseBitVector(N));
    if (N != 0) {
      V.set(N - 1);
      EXPECT_EQ(V.count(), 1u);
      EXPECT_EQ(V.findNext(0), N - 1);
      EXPECT_NE(V, DenseBitVector(N));
    }

    DenseBitVector P = pattern(N, 0);
    EXPECT_EQ(foundBits(P), bitsOf(P));
    EXPECT_EQ(P.count(), bitsOf(P).size());
  }
}

TEST(DenseBitVector, CopyAndMoveAcrossRepresentations) {
  for (size_t From : BoundarySizes) {
    for (size_t To : BoundarySizes) {
      SCOPED_TRACE("from " + std::to_string(From) + " to " +
                   std::to_string(To));
      const DenseBitVector Src = pattern(From, 1);
      const std::vector<size_t> Want = bitsOf(Src);

      DenseBitVector Copied(Src);
      EXPECT_EQ(Copied, Src);
      DenseBitVector Moved(std::move(Copied));
      EXPECT_EQ(Moved.size(), From);
      EXPECT_EQ(bitsOf(Moved), Want);
      Copied = pattern(To, 2); // a moved-from vector is reusable
      EXPECT_EQ(Copied, pattern(To, 2));

      DenseBitVector CopyAssigned = pattern(To, 2);
      CopyAssigned = Src;
      EXPECT_EQ(CopyAssigned.size(), From);
      EXPECT_EQ(bitsOf(CopyAssigned), Want);
      EXPECT_EQ(bitsOf(Src), Want); // the source is untouched

      DenseBitVector MoveAssigned = pattern(To, 2);
      DenseBitVector Temp = Src;
      MoveAssigned = std::move(Temp);
      EXPECT_EQ(MoveAssigned.size(), From);
      EXPECT_EQ(bitsOf(MoveAssigned), Want);

      // The assigned-to vectors own their bits: writing one leaves the
      // source and the other copies alone.
      if (From != 0) {
        CopyAssigned.reset(From - 1);
        MoveAssigned.reset(From - 1);
        EXPECT_TRUE(Src.test(From - 1));
        EXPECT_TRUE(Moved.test(From - 1));
      }
    }
  }
}

TEST(DenseBitVector, SelfAssignmentKeepsBits) {
  for (size_t N : BoundarySizes) {
    SCOPED_TRACE("size " + std::to_string(N));
    DenseBitVector V = pattern(N, 1);
    const std::vector<size_t> Want = bitsOf(V);
    DenseBitVector &Alias = V;
    V = Alias;
    EXPECT_EQ(V.size(), N);
    EXPECT_EQ(bitsOf(V), Want);
    V = std::move(Alias);
    EXPECT_EQ(V.size(), N);
    EXPECT_EQ(bitsOf(V), Want);
  }
}

TEST(DenseBitVector, ResizeAcrossTheInlineWord) {
  for (size_t From : BoundarySizes) {
    for (size_t To : BoundarySizes) {
      SCOPED_TRACE("from " + std::to_string(From) + " to " +
                   std::to_string(To));
      DenseBitVector V(From, true);
      V.resize(To);
      size_t Kept = std::min(From, To);
      EXPECT_EQ(V.size(), To);
      EXPECT_EQ(V.count(), Kept);
      for (size_t I = 0; I != To; ++I)
        EXPECT_EQ(V.test(I), I < Kept) << "bit " << I;
      // Bits cut off by a shrink stay clear when the vector grows again.
      V.resize(200);
      EXPECT_EQ(V.count(), Kept);
      EXPECT_EQ(V.findNext(Kept), DenseBitVector::npos);
      V.resize(From);
      EXPECT_EQ(V.count(), Kept);
    }
  }
  // A shrink within one heap buffer, then a regrow into it.
  DenseBitVector V(300, true);
  V.resize(100);
  V.resize(300);
  EXPECT_EQ(V.count(), 100u);
  EXPECT_EQ(V.findNext(100), DenseBitVector::npos);
}

TEST(DenseBitVector, SwapAcrossRepresentations) {
  for (size_t A : BoundarySizes) {
    for (size_t B : BoundarySizes) {
      SCOPED_TRACE(std::to_string(A) + " <-> " + std::to_string(B));
      DenseBitVector X = pattern(A, 1), Y = pattern(B, 2);
      std::swap(X, Y);
      EXPECT_EQ(X, pattern(B, 2));
      EXPECT_EQ(Y, pattern(A, 1));
    }
  }
}

TEST(DenseBitVector, WordOpsCountOnePerCallWhateverTheSize) {
  // The exact work counters (support.bitvector.word_ops) rely on this:
  // one unit per |=, &=, andNot, count or == call, nothing for copies,
  // moves or single-bit operations.
  auto Delta = [](auto Fn) {
    uint64_t Before = DenseBitVector::threadWordOps();
    Fn();
    return DenseBitVector::threadWordOps() - Before;
  };
  for (size_t N : {size_t(1), size_t(64), size_t(65), size_t(300)}) {
    SCOPED_TRACE("size " + std::to_string(N));
    DenseBitVector A = pattern(N, 1);
    const DenseBitVector B = pattern(N, 2);
    bool Eq = false;
    size_t Sink = 0;

    EXPECT_EQ(Delta([&] { A |= B; }), 1u);
    EXPECT_EQ(Delta([&] { A &= B; }), 1u);
    EXPECT_EQ(Delta([&] { A.andNot(B); }), 1u);
    EXPECT_EQ(Delta([&] { Sink += A.count(); }), 1u);
    EXPECT_EQ(Delta([&] { Eq = A == B; }), 1u);
    EXPECT_EQ(Delta([&] { Eq = A != B; }), 1u);

    EXPECT_EQ(Delta([&] { DenseBitVector C(B); Sink += C.size(); }), 0u);
    EXPECT_EQ(Delta([&] {
                DenseBitVector C(B);
                DenseBitVector D(std::move(C));
                Sink += D.size();
              }),
              0u);
    EXPECT_EQ(Delta([&] { A = B; }), 0u);
    EXPECT_EQ(Delta([&] { A = DenseBitVector(N); }), 0u);
    EXPECT_EQ(Delta([&] { Eq = A.test(N - 1); }), 0u);
    EXPECT_EQ(Delta([&] { A.set(N - 1); }), 0u);
    EXPECT_EQ(Delta([&] { A.reset(N - 1); }), 0u);
    EXPECT_EQ(Delta([&] { Sink += A.findNext(0); }), 0u);
    EXPECT_EQ(Delta([&] { Eq = A.any(); }), 0u);
    EXPECT_EQ(Delta([&] {
                B.forEachSetBit([&](size_t I) { Sink += I; });
              }),
              0u);
    (void)Eq;
    (void)Sink;
  }
}

/// Property sweep: random operations agree with std::set semantics.
class BitVectorRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorRandomTest, MatchesReferenceSet) {
  std::mt19937 Rng(GetParam());
  const size_t N = 200;
  DenseBitVector V(N);
  std::set<size_t> Ref;
  for (int Step = 0; Step != 500; ++Step) {
    size_t Bit = Rng() % N;
    if (Rng() % 2) {
      V.set(Bit);
      Ref.insert(Bit);
    } else {
      V.reset(Bit);
      Ref.erase(Bit);
    }
  }
  EXPECT_EQ(V.count(), Ref.size());
  for (size_t B = 0; B != N; ++B)
    EXPECT_EQ(V.test(B), Ref.count(B) != 0) << "bit " << B;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorRandomTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));
