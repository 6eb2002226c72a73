//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, word-packed bit vector used by the data-flow solvers. The
/// range-check availability/anticipatability problems operate over the
/// "check universe", so set operations (and/or/and-not) must be fast.
///
/// A vector of up to 64 bits keeps its one word inline, so the common
/// case (every check universe of the benchmark suite fits in one word)
/// never touches the heap; a larger vector owns a heap buffer of words.
/// The representation is chosen by size alone.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_DENSEBITVECTOR_H
#define NASCENT_SUPPORT_DENSEBITVECTOR_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace nascent {

/// Fixed-universe dense bit vector with word-parallel set algebra.
///
/// All binary operations require both operands to have the same size; this
/// is asserted, because the data-flow solvers always size their vectors to
/// the check universe.
class DenseBitVector {
public:
  DenseBitVector() = default;
  explicit DenseBitVector(size_t NumBits, bool InitialValue = false);

  DenseBitVector(const DenseBitVector &O) : NumBits(O.NumBits) {
    if (O.isInline())
      Inline = O.Inline;
    else
      copyToHeap(O);
  }

  DenseBitVector(DenseBitVector &&O) noexcept { steal(O); }

  DenseBitVector &operator=(const DenseBitVector &O) {
    if (isInline() && O.isInline()) {
      NumBits = O.NumBits;
      Inline = O.Inline;
    } else if (this != &O) {
      assignSlow(O);
    }
    return *this;
  }

  DenseBitVector &operator=(DenseBitVector &&O) noexcept {
    if (this != &O) {
      release();
      steal(O);
    }
    return *this;
  }

  ~DenseBitVector() { release(); }

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p NumBits; new bits are cleared.
  void resize(size_t NumBits);

  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / 64] >> (Idx % 64)) & 1;
  }

  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void reset(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  /// Sets every bit.
  void setAll() {
    for (size_t I = 0, E = numWords(); I != E; ++I)
      Words[I] = ~uint64_t(0);
    clearUnusedBits();
  }

  /// Clears every bit.
  void resetAll() {
    for (size_t I = 0, E = numWords(); I != E; ++I)
      Words[I] = 0;
  }

  /// Returns true if any bit is set.
  bool any() const {
    for (size_t I = 0, E = numWords(); I != E; ++I)
      if (Words[I] != 0)
        return true;
    return false;
  }

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Number of set bits.
  size_t count() const {
    ++WordOpCount;
    size_t N = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I)
      N += static_cast<size_t>(std::popcount(Words[I]));
    return N;
  }

  /// Index of the first set bit at or after \p From, or npos if none.
  size_t findNext(size_t From) const {
    if (From >= NumBits)
      return npos;
    size_t WordIdx = From / 64;
    uint64_t W = Words[WordIdx] & (~uint64_t(0) << (From % 64));
    for (size_t E = numWords();;) {
      if (W != 0) {
        size_t Bit = WordIdx * 64 + static_cast<size_t>(std::countr_zero(W));
        return Bit < NumBits ? Bit : npos;
      }
      if (++WordIdx == E)
        return npos;
      W = Words[WordIdx];
    }
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

  DenseBitVector &operator|=(const DenseBitVector &RHS) {
    ++WordOpCount;
    assert(NumBits == RHS.NumBits && "bit vector size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      Words[I] |= RHS.Words[I];
    return *this;
  }

  DenseBitVector &operator&=(const DenseBitVector &RHS) {
    ++WordOpCount;
    assert(NumBits == RHS.NumBits && "bit vector size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      Words[I] &= RHS.Words[I];
    return *this;
  }

  /// this = this & ~RHS. Returns *this.
  DenseBitVector &andNot(const DenseBitVector &RHS) {
    ++WordOpCount;
    assert(NumBits == RHS.NumBits && "bit vector size mismatch");
    for (size_t I = 0, E = numWords(); I != E; ++I)
      Words[I] &= ~RHS.Words[I];
    return *this;
  }

  friend bool operator==(const DenseBitVector &A, const DenseBitVector &B) {
    ++WordOpCount;
    if (A.NumBits != B.NumBits)
      return false;
    for (size_t I = 0, E = A.numWords(); I != E; ++I)
      if (A.Words[I] != B.Words[I])
        return false;
    return true;
  }
  friend bool operator!=(const DenseBitVector &A, const DenseBitVector &B) {
    return !(A == B);
  }

  /// Iterates over set bits, calling \p Fn with each index in order.
  template <typename CallableT> void forEachSetBit(CallableT Fn) const {
    for (size_t I = findNext(0); I != npos; I = findNext(I + 1))
      Fn(I);
  }

  /// Cumulative count of word-parallel operations performed by every
  /// vector in the process: one per |=, &=, andNot, count or == call,
  /// whatever the vector's size; copies, moves and single-bit operations
  /// are not counted. The telemetry layer (src/obs) surfaces this as the
  /// "support.bitvector.word_ops" gauge; support sits below obs in the
  /// layering, so the raw total lives here.
  ///
  /// The count is kept per thread (a plain thread-local add on the hot
  /// path) plus an atomic total retired from exited threads; wordOps()
  /// returns retired + the calling thread's live count. Like the stat
  /// shards in obs/StatRegistry, the total is exact once every writer
  /// thread has been joined (its shard flush calls retireThreadOps()).
  static uint64_t wordOps();

  /// The calling thread's live op count only — no retired total, so a
  /// before/after delta around a single-threaded computation is exact even
  /// while other threads exit (their shard flush mutates the retired
  /// total).
  static uint64_t threadWordOps() { return WordOpCount; }

  /// Folds the calling thread's live op count into the retired total and
  /// zeroes it. Called by the obs-layer thread-shard flush at thread exit.
  static void retireThreadOps();

private:
  size_t numWords() const { return (NumBits + 63) / 64; }

  /// True when the bits live in Inline (NumBits <= 64).
  bool isInline() const { return Capacity == 0; }

  /// Clears any bits in the last word beyond NumBits so that whole-word
  /// operations (count, ==) remain exact.
  void clearUnusedBits() {
    if (NumBits % 64 != 0)
      Words[NumBits / 64] &= (uint64_t(1) << (NumBits % 64)) - 1;
    else if (NumBits == 0)
      Inline = 0;
  }

  /// Gives this (NumBits already set, > 64) a heap buffer holding a copy of
  /// \p O's words.
  void copyToHeap(const DenseBitVector &O);

  /// Copy assignment when either side is on the heap.
  void assignSlow(const DenseBitVector &O);

  /// Frees the heap buffer, if any; leaves the fields stale.
  void release() {
    if (!isInline())
      delete[] Words;
  }

  /// Takes \p O's bits and leaves \p O empty. The heap buffer, if any,
  /// changes owner; this's storage must already be released.
  void steal(DenseBitVector &O) {
    NumBits = O.NumBits;
    Capacity = O.Capacity;
    if (O.isInline()) {
      Words = &Inline;
      Inline = O.Inline;
    } else {
      Words = O.Words;
    }
    O.Words = &O.Inline;
    O.NumBits = 0;
    O.Capacity = 0;
    O.Inline = 0;
  }

  /// The calling thread's word-parallel operation count; one increment per
  /// call, not per word, so the hot solver loops pay a single thread-local
  /// add. Retired into the process-wide total when the thread's stat shard
  /// flushes (obs/StatRegistry calls retireThreadOps()).
  static inline thread_local uint64_t WordOpCount = 0;

  /// The words: &Inline for a vector of up to 64 bits, else a heap buffer
  /// of Capacity words.
  uint64_t *Words = &Inline;
  size_t NumBits = 0;
  /// Heap buffer length in words; 0 exactly when the bits are inline.
  size_t Capacity = 0;
  uint64_t Inline = 0;
};

} // namespace nascent

#endif // NASCENT_SUPPORT_DENSEBITVECTOR_H
