//===- ml/FlatTree.h - Compiled branch-free decision-tree form ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of a trained DecisionTree, built once per Planner by
/// DecisionTree::compile() and consumed on every selection it makes.
/// Where the interpreted tree walks heap-allocated TreeNode structs
/// (pointer-chasing a 40-byte node per level), the flat form stores the
/// per-node fields in structure-of-arrays vectors laid out level by
/// level (breadth-first), so the nodes of one level sit contiguously —
/// a whole level of a typical selector tree fits in one or two cache
/// lines and the next level is a forward prefetchable stride away.
///
/// predict() is branch-free: leaves are self-loops (Left == Right ==
/// self), so the walk is a counted loop of exactly depth() steps whose
/// body is one compare and one conditional select — the compiler lowers
/// the ternary to cmov, and the loop trip count is independent of the
/// input. Semantics are bit-identical to the interpreted
/// DecisionTree::predict, including NaN handling: `x <= t` is false for
/// NaN, sending NaN features right at every level in both forms. The
/// interpreted walk remains the reference oracle; flat_tree_test fuzzes
/// the two against each other.
///
/// predict() takes a raw `const double*` so callers can pass stack
/// scratch instead of a heap-backed std::vector — the compiled select
/// path does zero heap allocation.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_ML_FLATTREE_H
#define SEER_ML_FLATTREE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace seer {

class DecisionTree;

/// A compiled decision tree: SoA node arrays in level order with a
/// branch-free fixed-trip-count predict. Value type; cheap to move.
class FlatTree {
public:
  FlatTree() = default;

  /// Compiles \p Tree into flat form. An untrained (empty) tree compiles
  /// to an empty FlatTree (empty() == true; predict on it asserts).
  static FlatTree compile(const DecisionTree &Tree);

  /// Predicts the class of the feature vector at \p Features, which must
  /// have at least arity() elements. Bit-identical to the interpreted
  /// DecisionTree::predict on the source tree for every input, including
  /// NaN and infinities.
  // seer-hot-begin(flat-tree-predict): tools/seer_lint.py forbids heap
  // allocation and unordered-container iteration inside this region.
  uint32_t predict(const double *Features) const {
    assert(!empty() && "predict on an empty FlatTree");
    uint32_t Node = 0;
    // Leaves self-loop, so the walk always runs exactly Depth steps and
    // the body is a compare + conditional select (cmov), never a branch
    // on data. Depth == 0 (single-leaf tree) never reads Features.
    for (uint32_t Level = 0; Level < Depth; ++Level) {
      const uint32_t Next =
          Features[Feature[Node]] <= Threshold[Node] ? Left[Node] : Right[Node];
      Node = Next;
    }
    return LeafClass[Node];
  }
  // seer-hot-end(flat-tree-predict)

  /// True for a default-constructed / compiled-from-empty tree.
  bool empty() const { return LeafClass.empty(); }

  /// Number of nodes (== the source tree's node count).
  size_t numNodes() const { return LeafClass.size(); }

  /// Depth of the source tree (0 for a single leaf); the exact trip
  /// count of every predict().
  uint32_t depth() const { return Depth; }

  /// Feature arity of the source tree (featureNames().size()).
  uint32_t arity() const { return Arity; }

  /// Number of classes of the source tree.
  uint32_t numClasses() const { return NumClasses; }

private:
  /// Per-node SoA arrays, level-order (node 0 is the root, then the
  /// root's children, then their children, ...). For leaves Feature is
  /// 0, Threshold is the source threshold field (unused), and
  /// Left == Right == the node's own index.
  std::vector<uint32_t> Feature;
  std::vector<double> Threshold;
  std::vector<uint32_t> Left;
  std::vector<uint32_t> Right;
  /// Majority class per node; the answer once the walk settles on a leaf.
  std::vector<uint32_t> LeafClass;
  uint32_t Depth = 0;
  uint32_t Arity = 0;
  uint32_t NumClasses = 0;
};

} // namespace seer

#endif // SEER_ML_FLATTREE_H
