//===- core/MultiStageSelector.h - Future-work multi-tier selector --------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's stated future work (Sec. III-C): "the classifier selector
/// could become a selector of a larger number of models where each class
/// of its output collects a different subset of the statistics." This
/// module implements that extension with three tiers:
///
///   tier 0 (known): no collection — rows/cols/nnz/iterations only;
///   tier 1 (cheap): one single-pass kernel collecting max + mean row
///            density (about half the cost of the full collection);
///   tier 2 (full):  the paper's complete max/min/mean/var statistics.
///
/// Training mirrors the two-tier pipeline: a kernel classifier per tier,
/// then a 3-class selector over the known features labeled with the
/// cheapest end-to-end tier (collection cost included), cross-fitted like
/// the main trainer. `bench/ablation_multistage` compares it against the
/// paper's two-tier selector.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_MULTISTAGESELECTOR_H
#define SEER_CORE_MULTISTAGESELECTOR_H

#include "core/Benchmarker.h"
#include "core/SeerTrainer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seer {

/// The trained three-tier model set.
struct MultiStageModels {
  /// Kernel classifiers, indexed by tier (0 = known, 1 = cheap, 2 = full).
  DecisionTree TierModels[3];
  /// 3-class tier selector over the known features.
  DecisionTree Selector;
  std::vector<std::string> KernelNames;

  static constexpr uint32_t TierKnown = 0;
  static constexpr uint32_t TierCheap = 1;
  static constexpr uint32_t TierFull = 2;
  static constexpr uint32_t NumTiers = 3;
};

/// Per-matrix measurements extended with the cheap tier's data. The cheap
/// features/cost are recomputed from the matrix spec (the standard
/// MatrixBenchmark doesn't carry them).
struct MultiStageBenchmark {
  MatrixBenchmark Base;
  /// Cheap-tier statistics (min/var fields are zero by construction).
  GatheredFeatures CheapFeatures;
  double CheapCollectionMs = 0.0;
};

/// Feature layout of the cheap tier: known + [max_density, mean_density].
namespace features {
std::vector<std::string> cheapNames();
std::vector<double> cheapVector(const KnownFeatures &Known,
                                const GatheredFeatures &Cheap,
                                double Iterations);
} // namespace features

/// Augments benchmarks with cheap-tier measurements by rebuilding each
/// matrix from \p Specs (matched by name) and running the cheap kernels.
/// \p Parallelism follows the pipeline-wide convention (1 = serial,
/// 0 = one worker per hardware thread); results are order-stable and
/// bit-identical at every setting.
std::vector<MultiStageBenchmark>
augmentWithCheapTier(const std::vector<MatrixBenchmark> &Benchmarks,
                     const std::vector<MatrixSpec> &Specs,
                     const GpuSimulator &Sim, uint32_t Parallelism = 1);

/// Trains the three tier models and the tier selector.
MultiStageModels
trainMultiStageModels(const std::vector<MultiStageBenchmark> &Benchmarks,
                      const std::vector<std::string> &KernelNames,
                      const TrainerConfig &Config = TrainerConfig());

/// Outcome of evaluating the multi-stage selector on one case.
struct MultiStageOutcome {
  uint32_t Tier = 0;
  size_t KernelIndex = 0;
  double OverheadMs = 0.0;
  double TotalMs = 0.0;
  bool Correct = false;
};

/// Evaluates the trained models on one benchmarked case.
MultiStageOutcome evaluateMultiStageCase(const MultiStageModels &Models,
                                         const MultiStageBenchmark &Bench,
                                         uint32_t Iterations);

} // namespace seer

#endif // SEER_CORE_MULTISTAGESELECTOR_H
