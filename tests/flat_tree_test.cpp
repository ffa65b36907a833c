//===- tests/flat_tree_test.cpp - Compiled-tree contracts -----------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The compiled-hot-path contract: FlatTree::predict is bit-identical to
// the interpreted DecisionTree::predict oracle over randomized trained
// trees and parse()-built edge trees (single leaf, shared-child DAGs),
// under fuzzed feature vectors including NaN, infinities and exact
// thresholds; the zero-heap-allocation guarantee on the repeat-stream
// compiled select path; and the single allocation (the product) of a
// prepared plan's run, both asserted with the global operator-new counter
// idiom from obs_test. The ASan/UBSan and TSan CI jobs both run this
// binary.
//
//===----------------------------------------------------------------------===//

#include "core/ExecutionPlan.h"
#include "core/Features.h"
#include "core/SeerTrainer.h"
#include "kernels/KernelRegistry.h"
#include "ml/Dataset.h"
#include "ml/DecisionTree.h"
#include "ml/FlatTree.h"
#include "sim/GpuSimulator.h"
#include "sparse/Generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <string>
#include <vector>

using namespace seer;

//===----------------------------------------------------------------------===//
// Allocation counting (for the repeat-stream zero-allocation guarantee)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GlobalAllocations{0};

/// Both new forms allocate here, so once inlined every block visibly
/// comes from malloc and goes back to free.
void *countedMalloc(std::size_t Size) {
  GlobalAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedMalloc(Size); }
void *operator new[](std::size_t Size) { return countedMalloc(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

uint64_t allocationCount() {
  return GlobalAllocations.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// A random classification dataset: \p Arity features, labels in
/// [0, NumClasses). Deterministic per seed.
Dataset randomDataset(std::mt19937 &Rng, size_t Arity, uint32_t NumClasses,
                      size_t NumSamples) {
  Dataset Data;
  for (size_t F = 0; F < Arity; ++F)
    Data.FeatureNames.push_back("f" + std::to_string(F));
  std::uniform_real_distribution<double> Value(-100.0, 100.0);
  std::uniform_int_distribution<uint32_t> Label(0, NumClasses - 1);
  for (size_t I = 0; I < NumSamples; ++I) {
    std::vector<double> Row(Arity);
    for (double &V : Row)
      V = Value(Rng);
    Data.addSample("s" + std::to_string(I), std::move(Row), Label(Rng));
  }
  return Data;
}

/// Fuzzed feature vectors for \p Tree: uniform randoms, the adversarial
/// IEEE values at every position, and every threshold the tree actually
/// tests (the `<=` boundary itself).
std::vector<std::vector<double>> fuzzVectors(std::mt19937 &Rng,
                                             const DecisionTree &Tree) {
  const size_t Arity = Tree.featureNames().size();
  std::vector<std::vector<double>> Vectors;
  std::uniform_real_distribution<double> Value(-150.0, 150.0);
  for (int I = 0; I < 64; ++I) {
    std::vector<double> V(Arity);
    for (double &X : V)
      X = Value(Rng);
    Vectors.push_back(std::move(V));
  }
  const double Special[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            -0.0,
                            0.0,
                            1e308,
                            -1e308};
  for (double S : Special) {
    // S everywhere, and S at one position with randoms elsewhere.
    Vectors.push_back(std::vector<double>(Arity, S));
    for (size_t P = 0; P < Arity; ++P) {
      std::vector<double> V(Arity);
      for (double &X : V)
        X = Value(Rng);
      V[P] = S;
      Vectors.push_back(std::move(V));
    }
  }
  for (const TreeNode &N : Tree.nodes())
    if (!N.isLeaf()) {
      Vectors.push_back(std::vector<double>(Arity, N.Threshold));
      std::vector<double> V(Arity);
      for (double &X : V)
        X = Value(Rng);
      V[N.FeatureIndex] = N.Threshold;
      Vectors.push_back(std::move(V));
    }
  return Vectors;
}

/// Asserts flat == interpreted over the fuzz set.
void expectEquivalent(const DecisionTree &Tree, std::mt19937 &Rng) {
  const FlatTree Flat = Tree.compile();
  EXPECT_FALSE(Flat.empty());
  EXPECT_EQ(Flat.depth(), Tree.depth());
  EXPECT_EQ(Flat.arity(), Tree.featureNames().size());
  EXPECT_EQ(Flat.numClasses(), Tree.numClasses());
  const auto Vectors = fuzzVectors(Rng, Tree);
  for (const std::vector<double> &V : Vectors)
    ASSERT_EQ(Flat.predict(V.data()), Tree.predict(V))
        << "divergence on a " << Tree.nodes().size() << "-node tree";
}

//===----------------------------------------------------------------------===//
// FlatTree <-> DecisionTree equivalence
//===----------------------------------------------------------------------===//

TEST(FlatTreeTest, MatchesInterpretedOnRandomizedTrainedTrees) {
  std::mt19937 Rng(20240207);
  const size_t Arities[] = {1, 2, 4, 8};
  const uint32_t Classes[] = {2, 3, 9};
  const uint32_t Depths[] = {1, 3, 8};
  for (size_t Arity : Arities)
    for (uint32_t NumClasses : Classes)
      for (uint32_t MaxDepth : Depths) {
        const Dataset Data = randomDataset(Rng, Arity, NumClasses, 200);
        TreeConfig Config;
        Config.MaxDepth = MaxDepth;
        const DecisionTree Tree = DecisionTree::train(Data, Config);
        expectEquivalent(Tree, Rng);
      }
}

TEST(FlatTreeTest, SingleLeafTreeNeverReadsFeatures) {
  // A depth-0 tree: predict must return the leaf class without touching
  // the feature vector (the flat walk's trip count is 0).
  DecisionTree Tree;
  std::string Error;
  ASSERT_TRUE(DecisionTree::parse("tree 3 2 1\n"
                                  "feature a\n"
                                  "feature b\n"
                                  "node 0 0 -1 -1 2 5 0\n",
                                  Tree, &Error))
      << Error;
  const FlatTree Flat = Tree.compile();
  EXPECT_EQ(Flat.depth(), 0u);
  EXPECT_EQ(Flat.numNodes(), 1u);
  const double NaNs[2] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(Flat.predict(NaNs), 2u);
  EXPECT_EQ(Flat.predict(nullptr), 2u); // trip count 0: no read at all
}

TEST(FlatTreeTest, SharedChildDagCompilesByDuplication) {
  // parse() only requires children to be forward and in range, so a
  // hand-written tree file may share a subtree between parents (a DAG).
  // compile() unrolls such sharing by duplication; predictions must
  // still match the interpreted walk exactly.
  DecisionTree Tree;
  std::string Error;
  ASSERT_TRUE(DecisionTree::parse("tree 2 1 3\n"
                                  "feature x\n"
                                  "node 0 0 1 2 0 10 0.5\n"
                                  "node 0 -5 2 2 0 5 0.5\n" // both arms -> 2
                                  "node 0 0 -1 -1 1 5 0\n",
                                  Tree, &Error))
      << Error;
  const FlatTree Flat = Tree.compile();
  // Node 2 is reachable through three edges (root's right arm and both
  // arms of node 1), so the flat form carries three copies of it.
  EXPECT_EQ(Flat.numNodes(), 5u);
  std::mt19937 Rng(7);
  std::uniform_real_distribution<double> Value(-10.0, 10.0);
  for (int I = 0; I < 100; ++I) {
    const std::vector<double> V = {Value(Rng)};
    ASSERT_EQ(Flat.predict(V.data()), Tree.predict(V));
  }
}

TEST(FlatTreeTest, EmptyTreeCompilesToEmptyFlatTree) {
  const DecisionTree Untrained;
  EXPECT_TRUE(Untrained.compile().empty());
  EXPECT_TRUE(FlatTree().empty());
}

TEST(FlatTreeTest, NaNRoutesRightAtEveryLevelInBothForms) {
  // `x <= t` is false for NaN, so NaN must follow the all-right path in
  // both the interpreted and the compiled walk.
  DecisionTree Tree;
  std::string Error;
  ASSERT_TRUE(DecisionTree::parse("tree 4 1 5\n"
                                  "feature x\n"
                                  "node 0 0 1 2 0 20 0.7\n"
                                  "node 0 -1 -1 -1 1 10 0\n"
                                  "node 0 1 3 4 0 10 0.5\n"
                                  "node 0 0 -1 -1 2 5 0\n"
                                  "node 0 0 -1 -1 3 5 0\n",
                                  Tree, &Error))
      << Error;
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> V = {NaN};
  EXPECT_EQ(Tree.predict(V), 3u); // right, right
  EXPECT_EQ(Tree.compile().predict(V.data()), 3u);
}

//===----------------------------------------------------------------------===//
// Zero-allocation repeat-stream compiled selection
//===----------------------------------------------------------------------===//

/// Models whose selector splits on rows at ~500: small matrices route
/// known, large ones gathered, so the repeat stream below exercises both
/// compiled routes deterministically.
SeerModels syntheticModels(const KernelRegistry &Registry) {
  std::mt19937 Rng(99);
  SeerModels Models;
  Models.KernelNames = Registry.names();
  TreeConfig Config;
  Config.MaxDepth = 6;

  const uint32_t NumKernels = static_cast<uint32_t>(Registry.size());
  Dataset Known = randomDataset(Rng, features::KnownArity, NumKernels, 300);
  Known.FeatureNames = features::knownNames();
  Models.Known = DecisionTree::train(Known, Config);

  Dataset Gathered =
      randomDataset(Rng, features::GatheredArity, NumKernels, 300);
  Gathered.FeatureNames = features::gatheredNames();
  Models.Gathered = DecisionTree::train(Gathered, Config);

  Dataset Selector;
  Selector.FeatureNames = features::knownNames();
  std::uniform_real_distribution<double> Rows(0.0, 1000.0);
  for (int I = 0; I < 300; ++I) {
    const double R = Rows(Rng);
    Selector.addSample("m" + std::to_string(I), {R, R, R * 8, 1.0},
                 R > 500.0 ? SeerModels::SelectGathered
                           : SeerModels::SelectKnown);
  }
  Models.Selector = DecisionTree::train(Selector, Config);
  return Models;
}

TEST(CompiledSelectTest, RepeatStreamSelectionDoesZeroHeapAllocation) {
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerModels Models = syntheticModels(Registry);
  const Planner Plan(Models, Registry, Sim);

  KnownFeatures Small;
  Small.NumRows = 100;
  Small.NumCols = 100;
  Small.Nnz = 800;
  KnownFeatures Large;
  Large.NumRows = 900;
  Large.NumCols = 900;
  Large.Nnz = 7200;
  GatheredFeatures Gathered;
  Gathered.MaxRowDensity = 0.1;
  Gathered.MinRowDensity = 0.001;
  Gathered.MeanRowDensity = 0.01;
  Gathered.VarRowDensity = 0.002;

  // Warm-up: lazily initialized statics on the path.
  const SelectionResult WarmKnown = Plan.selectPrecollected(Small, Gathered, 1);
  const SelectionResult WarmGathered =
      Plan.selectPrecollected(Large, Gathered, 1);
  EXPECT_FALSE(WarmKnown.UsedGatheredModel);
  EXPECT_TRUE(WarmGathered.UsedGatheredModel);
  EXPECT_LT(WarmKnown.KernelIndex, Registry.size());
  EXPECT_LT(WarmGathered.KernelIndex, Registry.size());

  const uint64_t Before = allocationCount();
  uint64_t Picks = 0;
  for (int I = 0; I < 1000; ++I) {
    Picks += Plan.selectPrecollected(Small, Gathered, 1).KernelIndex;
    Picks += Plan.selectPrecollected(Large, Gathered, 1 + (I & 3)).KernelIndex;
  }
  EXPECT_EQ(allocationCount(), Before)
      << "compiled repeat-stream selection must not touch the heap";
  // Repeat-stream determinism: same inputs, same picks.
  EXPECT_EQ(Plan.selectPrecollected(Small, Gathered, 1).KernelIndex,
            WarmKnown.KernelIndex);
  (void)Picks;
}

TEST(PreparedRunTest, RunAllocatesOnlyTheProduct) {
  // A prepared plan already holds its launch time, so Planner::run is the
  // SpMV alone: the one heap allocation it may make is the Y it returns.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const Planner Pipeline(Registry, Sim);
  const CsrMatrix M = genPowerLaw(2048, 2048, 1.8, 1, 256, 11);
  const AnalyzedMatrix A = Pipeline.analyze(M);
  const std::vector<double> X(M.numCols(), 1.0);
  for (size_t K = 0; K < Registry.size(); ++K) {
    const ExecutionPlan Plan = Pipeline.planForKernel(A, K);
    // Warm-up: lazily initialized statics on the run path.
    (void)Pipeline.run(Plan, A, X);
    const uint64_t Before = allocationCount();
    const SpmvRun Run = Pipeline.run(Plan, A, X);
    EXPECT_EQ(allocationCount() - Before, 1u) << Registry.kernel(K).name();
    EXPECT_EQ(Run.Y.size(), M.numRows());
    EXPECT_EQ(Run.Timing.TotalMs, Plan.IterationMs);
  }
}

TEST(CompiledSelectTest, CompiledAndInterpretedSelectionsAreBitIdentical) {
  // The Planner selects through the flat trees it compiled at
  // construction; the reference is the Fig. 3 rule walked here with the
  // interpreted DecisionTree::predict.
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerModels Models = syntheticModels(Registry);
  const Planner Fast(Models, Registry, Sim);
  const double ConsultMs = Planner::InferenceOverheadUs * 1e-3;

  std::mt19937 Rng(123);
  std::uniform_int_distribution<uint32_t> Dim(1, 2000);
  std::uniform_real_distribution<double> Density(0.0, 1.0);
  size_t GatheredRoutes = 0;
  for (int I = 0; I < 200; ++I) {
    KnownFeatures Known;
    Known.NumRows = Dim(Rng);
    Known.NumCols = Dim(Rng);
    Known.Nnz = static_cast<uint64_t>(Known.NumRows) * (1 + Dim(Rng) % 16);
    GatheredFeatures Gathered;
    Gathered.MaxRowDensity = Density(Rng);
    Gathered.MinRowDensity = Density(Rng) * 0.01;
    Gathered.MeanRowDensity = Density(Rng) * 0.1;
    Gathered.VarRowDensity = Density(Rng) * 0.05;
    const uint32_t Iterations = 1 + (I % 40);
    const SelectionResult A =
        Fast.selectPrecollected(Known, Gathered, Iterations);

    const std::vector<double> KnownVec =
        features::knownVector(Known, Iterations);
    const bool UseGathered =
        Models.Selector.predict(KnownVec) == SeerModels::SelectGathered;
    const uint32_t Kernel =
        UseGathered ? Models.Gathered.predict(features::gatheredVector(
                          Known, Gathered, Iterations))
                    : Models.Known.predict(KnownVec);
    GatheredRoutes += UseGathered;
    ASSERT_EQ(A.KernelIndex, Kernel);
    ASSERT_EQ(A.UsedGatheredModel, UseGathered);
    ASSERT_EQ(A.InferenceMs, ConsultMs + ConsultMs); // selector + model
    ASSERT_EQ(A.FeatureCollectionMs, 0.0); // precollected: never charged
    ASSERT_EQ(Fast.route(Known, Iterations).UseGathered, UseGathered);
  }
  // Both routes were exercised.
  EXPECT_GT(GatheredRoutes, 0u);
  EXPECT_LT(GatheredRoutes, 200u);
}

} // namespace
