#include "Calibration.h"

#include "Spans.h"

#include <algorithm>

using namespace rcbench;

namespace {
// About 1 MB in all, so the kernel barely moves the run's peak RSS.
constexpr size_t NumKeys = 1 << 15;
constexpr size_t TableSize = 1 << 16; // power of two, load factor 1/2
constexpr int Rounds = 8;
} // namespace

Calibration::Calibration() : Keys(NumKeys), Sorted(NumKeys), Table(TableSize) {
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (uint64_t &K : Keys) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    K = X | 1; // 0 marks an empty table slot
  }
}

// Branchy comparison sorting and random-access hash probing over
// preallocated memory: no allocation, so the compiler's heap state cannot
// change the kernel's cost.
void Calibration::sample() {
  int64_t T0 = nowNs();
  const size_t Mask = TableSize - 1;
  for (int R = 0; R != Rounds; ++R) {
    std::copy(Keys.begin(), Keys.end(), Sorted.begin());
    std::sort(Sorted.begin(), Sorted.end());
    std::fill(Table.begin(), Table.end(), 0);
    for (uint64_t K : Keys) {
      size_t Slot = (K * 0xff51afd7ed558ccdull + R) >> 40 & Mask;
      while (Table[Slot] && Table[Slot] != K)
        Slot = (Slot + 1) & Mask;
      Table[Slot] = K;
    }
    for (size_t I = 0; I < NumKeys; I += 7)
      Sink += Sorted[I] ^ Table[(Sorted[I] >> 7) & Mask];
  }
  Ms.push_back(static_cast<double>(nowNs() - T0) / 1e6);
}

double Calibration::medianMs() const {
  if (Ms.empty())
    return NominalMs;
  std::vector<double> V = Ms;
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}

double Calibration::factor() const { return NominalMs / medianMs(); }
