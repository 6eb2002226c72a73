//===----------------------------------------------------------------------===//
///
/// \file
/// The language's integer arithmetic: 64-bit two's complement that wraps
/// on overflow (docs/LANGUAGE.md). Each operation is carried out on
/// uint64_t, where C++ defines wrap-around, and converted back, which is
/// modular since C++20; so none of them is undefined for any operands.
/// The interpreter computes with these, and the C back end emits C helpers
/// (nck_add, nck_idiv, ...) with the same definitions.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_SUPPORT_WRAPPING_H
#define NASCENT_SUPPORT_WRAPPING_H

#include <cstdint>

namespace nascent {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// -A; -INT64_MIN wraps to INT64_MIN.
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(uint64_t(0) - static_cast<uint64_t>(A));
}

/// |A|; |INT64_MIN| wraps to INT64_MIN.
inline int64_t wrapAbs(int64_t A) { return A < 0 ? wrapNeg(A) : A; }

/// A / B truncated toward zero, for B != 0; INT64_MIN / -1 wraps to
/// INT64_MIN instead of trapping.
inline int64_t wrapDiv(int64_t A, int64_t B) {
  return B == -1 ? wrapNeg(A) : A / B;
}

/// The remainder of wrapDiv, for B != 0 (the dividend's sign); anything
/// mod -1 is 0.
inline int64_t wrapMod(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

} // namespace nascent

#endif // NASCENT_SUPPORT_WRAPPING_H
