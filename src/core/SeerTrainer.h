//===- core/SeerTrainer.h - Training abstraction of Fig. 2 ----------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The training abstraction of Fig. 2. From the benchmarking measurements
/// it builds three decision trees:
///
///  1. the *known-feature* classifier — inputs: rows, cols, nnz,
///     iterations; label: the fastest kernel at that iteration count
///     (preprocessing amortization folded into the label, Section IV-E);
///  2. the *gathered-feature* classifier — the known features plus the
///     four dynamically computed row-density statistics;
///  3. the *classifier-selector* — inputs: known features; label: whether
///     the (feature-collection-cost-inclusive) gathered path or the free
///     known path yields lower total runtime for this input.
///
/// Selector labels depend on the other two trained models, so training is
/// strictly staged, exactly as the figure shows. The `seer()` entry point
/// reproduces the paper's `seer(runtime, preprocessing_data, features)`
/// call that consumes the benchmarking CSVs.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_SEERTRAINER_H
#define SEER_CORE_SEERTRAINER_H

#include "core/Benchmarker.h"
#include "core/Features.h"
#include "ml/DecisionTree.h"

#include <optional>
#include <string>
#include <vector>

namespace seer {

/// The trained model triple plus the label vocabulary. These trees are
/// the training artifact; the Planner compiles its own flat copies
/// (ml/FlatTree.h) once, at construction, and selects through those.
struct SeerModels {
  DecisionTree Known;
  DecisionTree Gathered;
  DecisionTree Selector;
  /// Kernel names, in label-index order.
  std::vector<std::string> KernelNames;

  /// Selector output classes.
  static constexpr uint32_t SelectKnown = 0;
  static constexpr uint32_t SelectGathered = 1;
};

/// Training configuration.
struct TrainerConfig {
  /// The known model sees only coarse features; a shallow tree with
  /// non-trivial leaves keeps it from extrapolating confidently into
  /// regions its features cannot distinguish (the paper's depth cap).
  TreeConfig KnownTree = {/*MaxDepth=*/7, /*MinSamplesSplit=*/8,
                          /*MinSamplesLeaf=*/4};
  TreeConfig GatheredTree = {/*MaxDepth=*/10, /*MinSamplesSplit=*/8,
                             /*MinSamplesLeaf=*/4};
  TreeConfig SelectorTree = {/*MaxDepth=*/6, /*MinSamplesSplit=*/8,
                             /*MinSamplesLeaf=*/4};
  /// Iteration counts replicated into the training data (the paper trains
  /// across iteration counts so amortization is learnable, Section IV-E).
  std::vector<uint32_t> IterationCounts = {1, 5, 19};
  /// Worker threads for training: cross-fit folds train concurrently and
  /// each tree evaluates its candidate features concurrently (1 = serial,
  /// 0 = one per hardware thread). Fold work is independent and fold
  /// datasets are concatenated in fold order, so the trained models are
  /// bit-identical at every setting.
  uint32_t Parallelism = 1;
};

/// Builds the fastest-kernel dataset over known features only.
Dataset buildKnownDataset(const std::vector<MatrixBenchmark> &Benchmarks,
                          const std::vector<uint32_t> &IterationCounts);

/// Builds the fastest-kernel dataset over known + gathered features.
Dataset buildGatheredDataset(const std::vector<MatrixBenchmark> &Benchmarks,
                             const std::vector<uint32_t> &IterationCounts);

/// Builds the selector dataset given already-trained sub-models.
Dataset buildSelectorDataset(const std::vector<MatrixBenchmark> &Benchmarks,
                             const std::vector<uint32_t> &IterationCounts,
                             const DecisionTree &Known,
                             const DecisionTree &Gathered);

/// Folds used to cross-fit the selector's training labels (see
/// trainSeerModels' implementation).
inline constexpr uint32_t CrossFitFolds = 4;

/// Trains all three models on \p Benchmarks (which should be the *training*
/// split; evaluation code keeps the test split aside). The selector's
/// labels are cross-fitted: each training sample is labeled using
/// sub-models trained on the other folds, so the routing decision reflects
/// out-of-sample sub-model behaviour.
SeerModels trainSeerModels(const std::vector<MatrixBenchmark> &Benchmarks,
                           const std::vector<std::string> &KernelNames,
                           const TrainerConfig &Config = TrainerConfig());

/// The paper's training-script entry point: consumes the three CSV tables
/// produced by GPU benchmarking + feature collection (Fig. 4) and returns
/// the trained models. \returns std::nullopt and fills \p ErrorMessage on
/// malformed tables.
std::optional<SeerModels> seer(const CsvTable &Runtime,
                               const CsvTable &Preprocessing,
                               const CsvTable &Features,
                               const TrainerConfig &Config = TrainerConfig(),
                               std::string *ErrorMessage = nullptr);

/// Writes the three models as C++ headers into \p Directory
/// (seer_known.h, seer_gathered.h, seer_selector.h), the deployment
/// artifact of Fig. 4. \returns false and fills \p ErrorMessage on I/O
/// failure.
bool emitModelHeaders(const SeerModels &Models, const std::string &Directory,
                      std::string *ErrorMessage);

} // namespace seer

#endif // SEER_CORE_SEERTRAINER_H
