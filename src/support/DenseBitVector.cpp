#include "support/DenseBitVector.h"

#include <algorithm>
#include <atomic>

using namespace nascent;

namespace {
/// Op counts retired from exited threads (see retireThreadOps()).
std::atomic<uint64_t> RetiredWordOps{0};
} // namespace

uint64_t DenseBitVector::wordOps() {
  return RetiredWordOps.load(std::memory_order_relaxed) + WordOpCount;
}

void DenseBitVector::retireThreadOps() {
  RetiredWordOps.fetch_add(WordOpCount, std::memory_order_relaxed);
  WordOpCount = 0;
}

DenseBitVector::DenseBitVector(size_t NumBits, bool InitialValue)
    : NumBits(NumBits) {
  if (NumBits > 64) {
    Capacity = numWords();
    Words = new uint64_t[Capacity];
  }
  if (InitialValue)
    setAll();
  else
    resetAll();
}

void DenseBitVector::copyToHeap(const DenseBitVector &O) {
  Capacity = numWords();
  Words = new uint64_t[Capacity];
  std::copy_n(O.Words, Capacity, Words);
}

void DenseBitVector::assignSlow(const DenseBitVector &O) {
  if (O.isInline()) {
    release();
    Words = &Inline;
    Capacity = 0;
    Inline = O.Inline;
  } else {
    if (Capacity < O.numWords()) {
      // Allocate before releasing so a failed allocation leaves *this intact.
      uint64_t *Buffer = new uint64_t[O.numWords()];
      release();
      Words = Buffer;
      Capacity = O.numWords();
    }
    std::copy_n(O.Words, O.numWords(), Words);
  }
  NumBits = O.NumBits;
}

void DenseBitVector::resize(size_t NewNumBits) {
  size_t OldWords = numWords();
  if (NewNumBits <= 64) {
    if (!isInline()) {
      uint64_t First = Words[0];
      release();
      Words = &Inline;
      Capacity = 0;
      Inline = First;
    }
  } else {
    size_t NewWords = (NewNumBits + 63) / 64;
    if (NewWords > Capacity) {
      uint64_t *Grown = new uint64_t[NewWords];
      std::copy_n(Words, OldWords, Grown);
      release();
      Words = Grown;
      Capacity = NewWords;
    }
    std::fill(Words + OldWords, Words + std::max(OldWords, NewWords),
              uint64_t(0));
  }
  NumBits = NewNumBits;
  clearUnusedBits();
}
