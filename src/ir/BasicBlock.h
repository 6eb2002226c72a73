//===----------------------------------------------------------------------===//
///
/// \file
/// Basic blocks: straight-line instruction sequences ending in exactly one
/// terminator. Successors are derived from the terminator; predecessor
/// lists are (re)computed by Function::recomputePreds after CFG edits.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_BASICBLOCK_H
#define NASCENT_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <string>
#include <vector>

namespace nascent {

/// A block's successor ids, held by value: at most two (a Br's true then
/// false target, or a Jump's target), so walking a CFG allocates nothing.
class SuccessorList {
public:
  const BlockID *begin() const { return Ids; }
  const BlockID *end() const { return Ids + N; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  BlockID operator[](size_t I) const {
    assert(I < N && "successor index out of range");
    return Ids[I];
  }

private:
  friend class BasicBlock;

  BlockID Ids[2] = {InvalidBlock, InvalidBlock};
  uint32_t N = 0;
};

/// One CFG node. Blocks are owned by their Function and addressed by their
/// dense BlockID.
class BasicBlock {
public:
  BasicBlock(BlockID ID, std::string Name) : ID(ID), Name(std::move(Name)) {}

  BlockID id() const { return ID; }
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  std::vector<Instruction> &instructions() { return Insts; }
  const std::vector<Instruction> &instructions() const { return Insts; }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  /// The terminator, which must exist for a well-formed block.
  const Instruction &terminator() const {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }
  Instruction &terminator() {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }

  /// True once a terminator has been appended.
  bool hasTerminator() const {
    return !Insts.empty() && Insts.back().isTerminator();
  }

  /// Appends \p I; asserts the block is not already terminated.
  void append(Instruction I) {
    assert(!hasTerminator() && "appending past the terminator");
    Insts.push_back(std::move(I));
  }

  /// Inserts \p I before position \p Pos (0 = block start).
  void insertAt(size_t Pos, Instruction I) {
    assert(Pos <= Insts.size() && "insert position out of range");
    Insts.insert(Insts.begin() + static_cast<ptrdiff_t>(Pos), std::move(I));
  }

  /// Inserts \p I immediately before the terminator. The block must be
  /// terminated.
  void insertBeforeTerminator(Instruction I) {
    assert(hasTerminator() && "block has no terminator");
    Insts.insert(Insts.end() - 1, std::move(I));
  }

  /// Successor block ids, derived from the terminator: a Br's true then
  /// false target (one id when both are equal), a Jump's target, none for
  /// Ret/Trap or an unterminated block.
  SuccessorList successors() const {
    SuccessorList S;
    if (Insts.empty())
      return S;
    const Instruction &T = Insts.back();
    if (T.Op == Opcode::Br || T.Op == Opcode::Jump) {
      S.Ids[S.N++] = T.TrueTarget;
      if (T.Op == Opcode::Br && T.FalseTarget != T.TrueTarget)
        S.Ids[S.N++] = T.FalseTarget;
    }
    return S;
  }

  /// Predecessors; valid only after Function::recomputePreds.
  const std::vector<BlockID> &preds() const { return Preds; }

private:
  friend class Function;

  BlockID ID;
  std::string Name;
  std::vector<Instruction> Insts;
  std::vector<BlockID> Preds;
};

} // namespace nascent

#endif // NASCENT_IR_BASICBLOCK_H
