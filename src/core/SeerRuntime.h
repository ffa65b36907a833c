//===- core/SeerRuntime.h - One-shot adapter over the Planner -------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-shot form of the Fig. 3 inference flow: a thin adapter over
/// core/ExecutionPlan.h's `Planner`, which owns the actual
/// route -> collect -> select -> prepare -> run pipeline (shared with the
/// Benchmarker and the serving layer, so the semantics exist once).
/// `select()` runs the selection stages with one-shot charging;
/// `execute()` additionally prepares the chosen kernel and runs the
/// iterations.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_SEERRUNTIME_H
#define SEER_CORE_SEERRUNTIME_H

#include "core/ExecutionPlan.h"
#include "core/SeerTrainer.h"
#include "kernels/KernelRegistry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace seer {

/// Full end-to-end execution report.
struct ExecutionReport {
  SelectionResult Selection;
  /// One-time preprocessing of the chosen kernel.
  double PreprocessMs = 0.0;
  /// Per-iteration runtime of the chosen kernel.
  double IterationMs = 0.0;
  /// Iterations executed.
  uint32_t Iterations = 1;
  /// The final product vector.
  std::vector<double> Y;

  /// End-to-end cost: selection overhead + preprocessing + iterations.
  double totalMs() const {
    return Selection.overheadMs() + PreprocessMs + Iterations * IterationMs;
  }
};

/// Drives trained models against new inputs (one-shot, no caching).
class SeerRuntime {
public:
  /// Per-inference decision-tree cost in microseconds.
  static constexpr double InferenceOverheadUs = Planner::InferenceOverheadUs;

  SeerRuntime(const SeerModels &Models, const KernelRegistry &Registry,
              const GpuSimulator &Sim);

  /// Runs the Fig. 3 selection flow for \p M at \p Iterations. Feature
  /// collection walks the matrix only when the selector routes gathered.
  SelectionResult select(const CsrMatrix &M, uint32_t Iterations) const;

  /// Fused variant: reuses an already-computed analysis of \p M for the
  /// gathered path instead of re-walking the matrix (the modeled
  /// collection cost is still charged). Used by execute(), which needs
  /// the full stats for the chosen kernel anyway.
  SelectionResult select(const CsrMatrix &M, uint32_t Iterations,
                         const MatrixStats &Stats) const;

  /// Serving-path variant: selection from features that were collected on
  /// an earlier request for the same matrix. No collection cost is charged
  /// (the serving layer's fingerprint cache paid it once, on first sight);
  /// the routing decision and the chosen kernel are bit-identical to the
  /// select() overloads because the cached gathered features are exactly
  /// what collectGatheredFeatures would recompute.
  SelectionResult selectPrecollected(const KnownFeatures &Known,
                                     const GatheredFeatures &Gathered,
                                     uint32_t Iterations) const;

  /// Selection + execution: analyzes once, plans, preprocesses the chosen
  /// kernel and runs \p Iterations SpMVs with the given operand.
  ExecutionReport execute(const CsrMatrix &M, const std::vector<double> &X,
                          uint32_t Iterations) const;

  /// The underlying pipeline, for callers that drive the stages
  /// explicitly.
  const Planner &planner() const { return Pipeline; }

private:
  Planner Pipeline;
};

} // namespace seer

#endif // SEER_CORE_SEERRUNTIME_H
