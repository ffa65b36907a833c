//===- core/SeerTrainer.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "core/SeerTrainer.h"

#include "ml/TreeCodegen.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>

using namespace seer;

namespace {

/// Sample name for a (matrix, iteration-count) pair.
std::string sampleName(const MatrixBenchmark &Bench, uint32_t Iterations) {
  return Bench.Name + "@" + std::to_string(Iterations);
}

} // namespace

namespace {

/// Per-kernel total costs for one (matrix, iterations) case: the class
/// cost rows that make tree leaves pick the cheapest-in-expectation
/// kernel rather than the most frequent one.
std::vector<double> kernelCostRow(const MatrixBenchmark &Bench,
                                  uint32_t Iterations) {
  std::vector<double> Costs;
  Costs.reserve(Bench.PerKernel.size());
  for (const KernelMeasurement &M : Bench.PerKernel)
    Costs.push_back(M.totalMs(Iterations));
  return Costs;
}

} // namespace

Dataset
seer::buildKnownDataset(const std::vector<MatrixBenchmark> &Benchmarks,
                        const std::vector<uint32_t> &IterationCounts) {
  Dataset Data;
  Data.FeatureNames = features::knownNames();
  for (const MatrixBenchmark &Bench : Benchmarks) {
    for (uint32_t Iterations : IterationCounts) {
      Data.addSample(sampleName(Bench, Iterations),
                     features::knownVector(Bench.Known, Iterations),
                     static_cast<uint32_t>(Bench.fastestKernel(Iterations)));
      Data.Costs.push_back(kernelCostRow(Bench, Iterations));
    }
  }
  return Data;
}

Dataset
seer::buildGatheredDataset(const std::vector<MatrixBenchmark> &Benchmarks,
                           const std::vector<uint32_t> &IterationCounts) {
  Dataset Data;
  Data.FeatureNames = features::gatheredNames();
  for (const MatrixBenchmark &Bench : Benchmarks) {
    for (uint32_t Iterations : IterationCounts) {
      Data.addSample(sampleName(Bench, Iterations),
                     features::gatheredVector(Bench.Known, Bench.Gathered,
                                              Iterations),
                     static_cast<uint32_t>(Bench.fastestKernel(Iterations)));
      Data.Costs.push_back(kernelCostRow(Bench, Iterations));
    }
  }
  return Data;
}

Dataset
seer::buildSelectorDataset(const std::vector<MatrixBenchmark> &Benchmarks,
                           const std::vector<uint32_t> &IterationCounts,
                           const DecisionTree &Known,
                           const DecisionTree &Gathered) {
  Dataset Data;
  Data.FeatureNames = features::knownNames();
  for (const MatrixBenchmark &Bench : Benchmarks) {
    for (uint32_t Iterations : IterationCounts) {
      const std::vector<double> KnownVec =
          features::knownVector(Bench.Known, Iterations);
      const std::vector<double> GatheredVec = features::gatheredVector(
          Bench.Known, Bench.Gathered, Iterations);

      // End-to-end cost of each path, per Fig. 3: the gathered path pays
      // feature collection before it can even predict.
      const uint32_t KnownPick = Known.predict(KnownVec);
      const uint32_t GatheredPick = Gathered.predict(GatheredVec);
      assert(KnownPick < Bench.PerKernel.size() &&
             GatheredPick < Bench.PerKernel.size() &&
             "model predicted an unknown kernel label");
      const double KnownCost =
          Bench.PerKernel[KnownPick].totalMs(Iterations);
      const double GatheredCost =
          Bench.FeatureCollectionMs +
          Bench.PerKernel[GatheredPick].totalMs(Iterations);

      const uint32_t Label = GatheredCost < KnownCost
                                 ? SeerModels::SelectGathered
                                 : SeerModels::SelectKnown;
      // Weight by the stake: routing wrong on a case where the paths cost
      // the same is free; routing wrong where the known model would pick a
      // pathological kernel costs the full difference. The weighted Gini
      // then minimizes expected runtime loss, not raw misroutes; the cost
      // rows make leaves resolve to the cheaper path in expectation.
      const double Stake = std::abs(KnownCost - GatheredCost);
      Data.addWeightedSample(sampleName(Bench, Iterations), KnownVec, Label,
                             Stake);
      Data.Costs.push_back({KnownCost, GatheredCost});
    }
  }
  return Data;
}

namespace {

/// Merges selector datasets (same feature schema).
void appendDataset(Dataset &Into, const Dataset &From) {
  assert(Into.FeatureNames == From.FeatureNames && "schema mismatch");
  Into.Rows.insert(Into.Rows.end(), From.Rows.begin(), From.Rows.end());
  Into.Labels.insert(Into.Labels.end(), From.Labels.begin(),
                     From.Labels.end());
  Into.SampleNames.insert(Into.SampleNames.end(), From.SampleNames.begin(),
                          From.SampleNames.end());
  Into.Weights.insert(Into.Weights.end(), From.Weights.begin(),
                      From.Weights.end());
  Into.Costs.insert(Into.Costs.end(), From.Costs.begin(), From.Costs.end());
}

} // namespace

SeerModels
seer::trainSeerModels(const std::vector<MatrixBenchmark> &Benchmarks,
                      const std::vector<std::string> &KernelNames,
                      const TrainerConfig &Config) {
  assert(!Benchmarks.empty() && "cannot train on an empty benchmark set");
  SeerModels Models;
  Models.KernelNames = KernelNames;

  // The config-level Parallelism knob governs every tree trained here.
  TreeConfig KnownTree = Config.KnownTree;
  TreeConfig GatheredTree = Config.GatheredTree;
  TreeConfig SelectorTree = Config.SelectorTree;
  KnownTree.Parallelism = Config.Parallelism;
  GatheredTree.Parallelism = Config.Parallelism;
  SelectorTree.Parallelism = Config.Parallelism;

  const Dataset KnownData =
      buildKnownDataset(Benchmarks, Config.IterationCounts);
  Models.Known = DecisionTree::train(KnownData, KnownTree);

  const Dataset GatheredData =
      buildGatheredDataset(Benchmarks, Config.IterationCounts);
  Models.Gathered = DecisionTree::train(GatheredData, GatheredTree);

  // Selector labels must reflect how the sub-models behave on data they
  // were NOT fitted to; labeling the training set with models trained on
  // that same set would make the known path look optimistically good and
  // the selector would under-collect at deployment. Cross-fit: partition
  // the benchmarks into folds, label each fold with sub-models trained on
  // the other folds. Folds are independent, so they train concurrently;
  // the per-fold datasets are concatenated in fold order afterwards, so
  // the selector's training set is identical at every thread count.
  const uint32_t NumFolds =
      Benchmarks.size() >= 2 * CrossFitFolds ? CrossFitFolds : 1;
  std::vector<Dataset> FoldDatasets(NumFolds);
  parallelFor(Config.Parallelism, NumFolds, [&](size_t Fold) {
    std::vector<MatrixBenchmark> FoldIn, FoldOut;
    for (size_t I = 0; I < Benchmarks.size(); ++I)
      ((I % NumFolds == Fold) ? FoldOut : FoldIn).push_back(Benchmarks[I]);
    if (FoldIn.empty())
      FoldIn = FoldOut; // single-fold degenerate case
    const DecisionTree FoldKnown = DecisionTree::train(
        buildKnownDataset(FoldIn, Config.IterationCounts), KnownTree);
    const DecisionTree FoldGathered = DecisionTree::train(
        buildGatheredDataset(FoldIn, Config.IterationCounts), GatheredTree);
    FoldDatasets[Fold] = buildSelectorDataset(
        FoldOut, Config.IterationCounts, FoldKnown, FoldGathered);
  });
  Dataset SelectorData;
  SelectorData.FeatureNames = features::knownNames();
  for (const Dataset &FoldData : FoldDatasets)
    appendDataset(SelectorData, FoldData);
  Models.Selector = DecisionTree::train(SelectorData, SelectorTree);
  return Models;
}

std::optional<SeerModels> seer::seer(const CsvTable &Runtime,
                                     const CsvTable &Preprocessing,
                                     const CsvTable &Features,
                                     const TrainerConfig &Config,
                                     std::string *ErrorMessage) {
  const auto Benchmarks =
      Benchmarker::fromCsv(Runtime, Preprocessing, Features, ErrorMessage);
  if (!Benchmarks)
    return std::nullopt;
  std::vector<std::string> KernelNames(Runtime.columns().begin() + 1,
                                       Runtime.columns().end());
  return trainSeerModels(*Benchmarks, KernelNames, Config);
}

bool seer::emitModelHeaders(const SeerModels &Models,
                            const std::string &Directory,
                            std::string *ErrorMessage) {
  CodegenOptions KnownOpts;
  KnownOpts.FunctionName = "seer_known_predict";
  KnownOpts.ClassNames = Models.KernelNames;
  if (!writeTreeHeader(Models.Known, KnownOpts, Directory + "/seer_known.h",
                       ErrorMessage))
    return false;

  CodegenOptions GatheredOpts;
  GatheredOpts.FunctionName = "seer_gathered_predict";
  GatheredOpts.ClassNames = Models.KernelNames;
  if (!writeTreeHeader(Models.Gathered, GatheredOpts,
                       Directory + "/seer_gathered.h", ErrorMessage))
    return false;

  CodegenOptions SelectorOpts;
  SelectorOpts.FunctionName = "seer_selector_predict";
  SelectorOpts.ClassNames = {"known", "gathered"};
  return writeTreeHeader(Models.Selector, SelectorOpts,
                         Directory + "/seer_selector.h", ErrorMessage);
}
