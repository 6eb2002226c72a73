//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and the loop nesting forest. The preheader
/// insertion schemes walk loops inner-to-outer so checks hoist to the
/// outermost loop possible (paper section 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_LOOPINFO_H
#define NASCENT_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <memory>
#include <vector>

namespace nascent {

/// One natural loop: the union of all back-edge natural loops sharing a
/// header.
struct Loop {
  BlockID Header = InvalidBlock;
  /// Latches: sources of back edges into the header.
  std::vector<BlockID> Latches;
  /// All member blocks (header included), in discovery order.
  std::vector<BlockID> Blocks;
  /// Parent loop in the nesting forest; null for top-level loops.
  Loop *Parent = nullptr;
  /// Directly nested loops.
  std::vector<Loop *> SubLoops;
  /// Nesting depth (1 = outermost).
  unsigned Depth = 1;
  /// Unique predecessor of the header from outside the loop, when there is
  /// exactly one and it has the header as its only successor; otherwise
  /// InvalidBlock. The front end guarantees a preheader for do/while loops.
  BlockID Preheader = InvalidBlock;
  /// Index into Function::doLoops() when this loop carries front-end
  /// do-loop metadata; -1 otherwise (e.g. while loops).
  int DoLoopIndex = -1;
  /// Position in the owning LoopInfo's loop list: a dense key for side
  /// tables indexed by loop.
  unsigned Index = 0;

  bool contains(BlockID B) const;
};

/// Loop forest for one function.
class LoopInfo {
public:
  LoopInfo(const Function &F, const DominatorTree &DT);

  /// All loops, innermost first (safe order for inner-to-outer hoisting).
  const std::vector<Loop *> &loopsInnermostFirst() const {
    return InnerFirst;
  }

  /// Top-level loops.
  const std::vector<Loop *> &topLevelLoops() const { return TopLevel; }

  /// Innermost loop containing \p B; null when B is not in any loop.
  Loop *loopFor(BlockID B) const {
    return B < BlockLoop.size() ? BlockLoop[B] : nullptr;
  }

  /// Number of loops; Loop::Index ranges over [0, numLoops()).
  size_t numLoops() const { return Loops.size(); }

private:
  void discoverLoop(const Function &F, const DominatorTree &DT,
                    BlockID Header, const std::vector<BlockID> &Latches);
  void buildForest();
  void findPreheaders(const Function &F);
  void attachDoLoopMetadata(const Function &F);

  std::vector<std::unique_ptr<Loop>> Loops;
  std::vector<Loop *> TopLevel;
  std::vector<Loop *> InnerFirst;
  std::vector<Loop *> BlockLoop; ///< innermost loop per block
};

} // namespace nascent

#endif // NASCENT_ANALYSIS_LOOPINFO_H
