//===- core/MultiStageSelector.cpp -----------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "core/MultiStageSelector.h"

#include "kernels/FeatureKernels.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>
#include <unordered_map>

using namespace seer;

std::vector<std::string> features::cheapNames() {
  return {"rows",        "cols",        "nnz",
          "iterations",  "max_density", "mean_density"};
}

std::vector<double> features::cheapVector(const KnownFeatures &Known,
                                          const GatheredFeatures &Cheap,
                                          double Iterations) {
  return {static_cast<double>(Known.NumRows),
          static_cast<double>(Known.NumCols),
          static_cast<double>(Known.Nnz),
          Iterations,
          Cheap.MaxRowDensity,
          Cheap.MeanRowDensity};
}

std::vector<MultiStageBenchmark>
seer::augmentWithCheapTier(const std::vector<MatrixBenchmark> &Benchmarks,
                           const std::vector<MatrixSpec> &Specs,
                           const GpuSimulator &Sim, uint32_t Parallelism) {
  std::unordered_map<std::string, const MatrixSpec *> SpecsByName;
  for (const MatrixSpec &Spec : Specs)
    SpecsByName.emplace(Spec.Name, &Spec);

  std::vector<MultiStageBenchmark> Out(Benchmarks.size());
  parallelFor(Parallelism, Benchmarks.size(), [&](size_t I) {
    const MatrixBenchmark &Bench = Benchmarks[I];
    const auto It = SpecsByName.find(Bench.Name);
    assert(It != SpecsByName.end() && "benchmark without a matching spec");
    MultiStageBenchmark Extended;
    Extended.Base = Bench;
    const CsrMatrix M = It->second->Build();
    const FeatureCollectionResult Cheap = collectCheapFeatures(M, Sim);
    Extended.CheapFeatures = Cheap.Features;
    Extended.CheapCollectionMs = Cheap.CollectionMs;
    Out[I] = std::move(Extended);
  });
  return Out;
}

namespace {

/// Builds the per-tier kernel-classification dataset.
Dataset buildTierDataset(const std::vector<MultiStageBenchmark> &Benchmarks,
                         const std::vector<uint32_t> &IterationCounts,
                         uint32_t Tier) {
  Dataset Data;
  switch (Tier) {
  case MultiStageModels::TierKnown:
    Data.FeatureNames = features::knownNames();
    break;
  case MultiStageModels::TierCheap:
    Data.FeatureNames = features::cheapNames();
    break;
  default:
    Data.FeatureNames = features::gatheredNames();
    break;
  }
  for (const MultiStageBenchmark &Bench : Benchmarks) {
    for (uint32_t Iterations : IterationCounts) {
      std::vector<double> Row;
      switch (Tier) {
      case MultiStageModels::TierKnown:
        Row = features::knownVector(Bench.Base.Known, Iterations);
        break;
      case MultiStageModels::TierCheap:
        Row = features::cheapVector(Bench.Base.Known, Bench.CheapFeatures,
                                    Iterations);
        break;
      default:
        Row = features::gatheredVector(Bench.Base.Known, Bench.Base.Gathered,
                                       Iterations);
        break;
      }
      Data.addSample(Bench.Base.Name + "@" + std::to_string(Iterations),
                     std::move(Row),
                     static_cast<uint32_t>(
                         Bench.Base.fastestKernel(Iterations)));
      std::vector<double> Costs;
      for (const KernelMeasurement &M : Bench.Base.PerKernel)
        Costs.push_back(M.totalMs(Iterations));
      Data.Costs.push_back(std::move(Costs));
    }
  }
  return Data;
}

/// End-to-end cost of routing \p Bench through \p Tier with the given
/// tier models at \p Iterations.
double tierPathCost(const MultiStageModels &Models,
                    const MultiStageBenchmark &Bench, uint32_t Tier,
                    uint32_t Iterations, size_t *PickOut = nullptr) {
  const double Iters = static_cast<double>(Iterations);
  std::vector<double> Row;
  double CollectionMs = 0.0;
  switch (Tier) {
  case MultiStageModels::TierKnown:
    Row = features::knownVector(Bench.Base.Known, Iters);
    break;
  case MultiStageModels::TierCheap:
    Row = features::cheapVector(Bench.Base.Known, Bench.CheapFeatures, Iters);
    CollectionMs = Bench.CheapCollectionMs;
    break;
  default:
    Row = features::gatheredVector(Bench.Base.Known, Bench.Base.Gathered,
                                   Iters);
    CollectionMs = Bench.Base.FeatureCollectionMs;
    break;
  }
  const uint32_t Pick = Models.TierModels[Tier].predict(Row);
  assert(Pick < Bench.Base.PerKernel.size() && "tier model out of range");
  if (PickOut)
    *PickOut = Pick;
  return CollectionMs + Bench.Base.PerKernel[Pick].totalMs(Iters);
}

/// Builds the 3-class tier-selector dataset using the given tier models.
Dataset
buildTierSelectorDataset(const std::vector<MultiStageBenchmark> &Benchmarks,
                         const std::vector<uint32_t> &IterationCounts,
                         const MultiStageModels &Models) {
  Dataset Data;
  Data.FeatureNames = features::knownNames();
  for (const MultiStageBenchmark &Bench : Benchmarks) {
    for (uint32_t Iterations : IterationCounts) {
      double Costs[MultiStageModels::NumTiers];
      uint32_t Best = 0;
      for (uint32_t Tier = 0; Tier < MultiStageModels::NumTiers; ++Tier) {
        Costs[Tier] = tierPathCost(Models, Bench, Tier, Iterations);
        if (Costs[Tier] < Costs[Best])
          Best = Tier;
      }
      double Worst = Costs[0];
      for (double C : Costs)
        Worst = std::max(Worst, C);
      Data.addWeightedSample(
          Bench.Base.Name + "@" + std::to_string(Iterations),
          features::knownVector(Bench.Base.Known, Iterations), Best,
          /*Weight=*/Worst - Costs[Best]);
      Data.Costs.push_back({Costs[0], Costs[1], Costs[2]});
    }
  }
  return Data;
}

} // namespace

MultiStageModels seer::trainMultiStageModels(
    const std::vector<MultiStageBenchmark> &Benchmarks,
    const std::vector<std::string> &KernelNames,
    const TrainerConfig &Config) {
  assert(!Benchmarks.empty() && "cannot train on an empty benchmark set");
  MultiStageModels Models;
  Models.KernelNames = KernelNames;

  TreeConfig TierConfigs[3] = {Config.KnownTree, Config.GatheredTree,
                               Config.GatheredTree};
  TreeConfig SelectorConfig = Config.SelectorTree;
  for (TreeConfig &Tree : TierConfigs)
    Tree.Parallelism = Config.Parallelism;
  SelectorConfig.Parallelism = Config.Parallelism;
  for (uint32_t Tier = 0; Tier < MultiStageModels::NumTiers; ++Tier)
    Models.TierModels[Tier] = DecisionTree::train(
        buildTierDataset(Benchmarks, Config.IterationCounts, Tier),
        TierConfigs[Tier]);

  // Cross-fitted selector labels, as in the two-tier trainer: folds are
  // independent, so they train concurrently; per-fold datasets are
  // concatenated in fold order, keeping the result thread-count-invariant.
  const uint32_t NumFolds =
      Benchmarks.size() >= 2 * CrossFitFolds ? CrossFitFolds : 1;
  std::vector<Dataset> FoldDatasets(NumFolds);
  parallelFor(Config.Parallelism, NumFolds, [&](size_t Fold) {
    std::vector<MultiStageBenchmark> FoldIn, FoldOut;
    for (size_t I = 0; I < Benchmarks.size(); ++I)
      ((I % NumFolds == Fold) ? FoldOut : FoldIn).push_back(Benchmarks[I]);
    if (FoldIn.empty())
      FoldIn = FoldOut;
    MultiStageModels FoldModels;
    for (uint32_t Tier = 0; Tier < MultiStageModels::NumTiers; ++Tier)
      FoldModels.TierModels[Tier] = DecisionTree::train(
          buildTierDataset(FoldIn, Config.IterationCounts, Tier),
          TierConfigs[Tier]);
    FoldDatasets[Fold] = buildTierSelectorDataset(
        FoldOut, Config.IterationCounts, FoldModels);
  });
  Dataset SelectorData;
  SelectorData.FeatureNames = features::knownNames();
  for (const Dataset &FoldData : FoldDatasets) {
    SelectorData.Rows.insert(SelectorData.Rows.end(), FoldData.Rows.begin(),
                             FoldData.Rows.end());
    SelectorData.Labels.insert(SelectorData.Labels.end(),
                               FoldData.Labels.begin(),
                               FoldData.Labels.end());
    SelectorData.SampleNames.insert(SelectorData.SampleNames.end(),
                                    FoldData.SampleNames.begin(),
                                    FoldData.SampleNames.end());
    SelectorData.Weights.insert(SelectorData.Weights.end(),
                                FoldData.Weights.begin(),
                                FoldData.Weights.end());
    SelectorData.Costs.insert(SelectorData.Costs.end(),
                              FoldData.Costs.begin(), FoldData.Costs.end());
  }
  Models.Selector = DecisionTree::train(SelectorData, SelectorConfig);
  return Models;
}

MultiStageOutcome
seer::evaluateMultiStageCase(const MultiStageModels &Models,
                             const MultiStageBenchmark &Bench,
                             uint32_t Iterations) {
  MultiStageOutcome Outcome;
  const std::vector<double> KnownVec =
      features::knownVector(Bench.Base.Known, Iterations);
  Outcome.Tier = Models.Selector.predict(KnownVec);
  assert(Outcome.Tier < MultiStageModels::NumTiers && "bad tier label");
  size_t Pick = 0;
  Outcome.TotalMs =
      tierPathCost(Models, Bench, Outcome.Tier, Iterations, &Pick);
  Outcome.KernelIndex = Pick;
  Outcome.OverheadMs =
      Outcome.Tier == MultiStageModels::TierKnown
          ? 0.0
          : (Outcome.Tier == MultiStageModels::TierCheap
                 ? Bench.CheapCollectionMs
                 : Bench.Base.FeatureCollectionMs);
  Outcome.Correct = Pick == Bench.Base.fastestKernel(Iterations);
  return Outcome;
}
