//===----------------------------------------------------------------------===//
///
/// \file
/// A generic iterative bit-vector data-flow solver. The range-check
/// optimizer instantiates it four ways: availability (forward/intersect),
/// anticipatability (backward/intersect), and the LCM "later/isolated"
/// systems. Blocks transfer via Out = Gen | (In & ~Kill).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_DATAFLOW_H
#define NASCENT_ANALYSIS_DATAFLOW_H

#include "ir/Function.h"
#include "support/DenseBitVector.h"

#include <vector>

namespace nascent {

/// Description of one bit-vector data-flow problem over a function's CFG.
struct DataflowProblem {
  enum class Direction { Forward, Backward };
  enum class Meet { Intersect, Union };

  Direction Dir = Direction::Forward;
  Meet MeetOp = Meet::Intersect;
  size_t UniverseSize = 0;

  /// Per-block Gen and Kill sets, indexed by BlockID, each sized to
  /// UniverseSize.
  std::vector<DenseBitVector> Gen;
  std::vector<DenseBitVector> Kill;

  /// Value at the CFG boundary: the entry's In for forward problems, the
  /// Out of exit blocks (Ret/Trap) for backward problems. Defaults to the
  /// empty set when left unsized.
  DenseBitVector Boundary;
};

/// Solution: In = set at block entry, Out = set at block exit, regardless
/// of direction.
struct DataflowResult {
  std::vector<DenseBitVector> In;
  std::vector<DenseBitVector> Out;
};

/// Solves \p P to its maximal (Intersect) or minimal (Union) fixpoint.
/// Predecessor lists of \p F must be current.
DataflowResult solveDataflow(const Function &F, const DataflowProblem &P);

} // namespace nascent

#endif // NASCENT_ANALYSIS_DATAFLOW_H
