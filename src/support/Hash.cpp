#include "support/Hash.h"

#include "support/StringUtils.h"

#include <cstring>

using namespace nascent;
using namespace nascent::support;

namespace {

// FNV-1a constants for the first lane; the second lane uses an
// independently seeded offset and a golden-ratio multiplier so the two
// 64-bit digests do not degenerate into one.
constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t FnvPrime = 0x00000100000001b3ull;
constexpr uint64_t Lane2Offset = 0x9ae16a3b2f90404full;
constexpr uint64_t Lane2Prime = 0x9e3779b97f4a7c15ull;

inline void mixByte(uint64_t &A, uint64_t &B, uint8_t Byte) {
  A = (A ^ Byte) * FnvPrime;
  B = (B ^ Byte) * Lane2Prime;
  B ^= B >> 29;
}

} // namespace

StableHasher::StableHasher() : A(FnvOffset), B(Lane2Offset) {}

void StableHasher::bytes(const void *Data, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != N; ++I)
    mixByte(A, B, P[I]);
  Length += N;
}

void StableHasher::u64(uint64_t V) {
  // Explicit little-endian decomposition: byte-order independent by
  // construction, no memcpy of host-order words.
  uint8_t Buf[8];
  for (int I = 0; I != 8; ++I)
    Buf[I] = static_cast<uint8_t>(V >> (8 * I));
  bytes(Buf, 8);
}

void StableHasher::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void StableHasher::str(const std::string &S) {
  u64(S.size());
  bytes(S.data(), S.size());
}

Hash128 StableHasher::digest() const {
  // Finalise copies so digest() can be called mid-stream: fold the length
  // in and avalanche each lane.
  uint64_t X = A, Y = B;
  uint64_t L = Length;
  auto Avalanche = [](uint64_t V) {
    V ^= V >> 33;
    V *= 0xff51afd7ed558ccdull;
    V ^= V >> 33;
    V *= 0xc4ceb9fe1a85ec53ull;
    V ^= V >> 33;
    return V;
  };
  X = Avalanche(X ^ L);
  Y = Avalanche(Y + (L * Lane2Prime));
  return Hash128{X, Y};
}

std::string Hash128::hex() const {
  return formatString("%016llx%016llx", static_cast<unsigned long long>(Hi),
                      static_cast<unsigned long long>(Lo));
}

Hash128 nascent::support::hashBytes(const void *Data, size_t N) {
  StableHasher H;
  H.bytes(Data, N);
  return H.digest();
}

Hash128 nascent::support::hashString(const std::string &S) {
  return hashBytes(S.data(), S.size());
}
