//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar and array types for the Nascent IR. Arrays carry their declared
/// per-dimension bounds, which is what the range checks compare against.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_TYPE_H
#define NASCENT_IR_TYPE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nascent {

/// The scalar types of the mini-Fortran language and its IR.
enum class ScalarType {
  Int,  ///< 64-bit signed integer ("integer")
  Real, ///< double-precision float ("real")
  Bool, ///< logical value ("logical")
};

/// One array dimension with inclusive declared bounds [Lower, Upper].
struct ArrayDim {
  int64_t Lower = 1;
  int64_t Upper = 1;

  /// Number of elements in this dimension, or -1 when that does not fit in
  /// int64_t. Semantic analysis rejects zero-extent and overflowing
  /// dimensions, so a verified module never holds either.
  int64_t extent() const {
    assert(Upper >= Lower && "malformed array dimension");
    int64_t N;
    if (__builtin_sub_overflow(Upper, Lower, &N) ||
        __builtin_add_overflow(N, 1, &N))
      return -1;
    return N;
  }
};

/// Shape of an array: element type plus one ArrayDim per dimension, listed
/// from the first (fastest varying, Fortran order) to the last.
struct ArrayShape {
  ScalarType Element = ScalarType::Real;
  std::vector<ArrayDim> Dims;

  size_t rank() const { return Dims.size(); }

  /// Total number of elements, or -1 when that (or any extent) does not
  /// fit in int64_t; semantic analysis rejects such shapes.
  int64_t elementCount() const {
    int64_t N = 1;
    for (const ArrayDim &D : Dims) {
      int64_t E = D.extent();
      if (E < 0 || __builtin_mul_overflow(N, E, &N))
        return -1;
    }
    return N;
  }
};

/// Returns a printable name for \p T.
inline const char *scalarTypeName(ScalarType T) {
  switch (T) {
  case ScalarType::Int:
    return "integer";
  case ScalarType::Real:
    return "real";
  case ScalarType::Bool:
    return "logical";
  }
  return "?";
}

} // namespace nascent

#endif // NASCENT_IR_TYPE_H
