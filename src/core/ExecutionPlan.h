//===- core/ExecutionPlan.h - The one select->execute pipeline ------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single implementation of the paper's Fig. 3 inference flow. Every
/// consumer — the one-shot `SeerRuntime`, the `Benchmarker` sweep, the
/// concurrent `SeerServer`, and the session-based `SeerService` — is a
/// thin adapter over the `Planner` defined here, so the routing, feature
/// charging, preprocessing amortization and execution semantics exist in
/// exactly one place.
///
/// An `AnalyzedMatrix` (the matrix, its single-pass `MatrixStats`, and
/// optionally its content fingerprint) flows through explicit stages:
///
///   `route()`    consult the classifier-selector on the trivially known
///                features: answer from the known model, or pay for
///                collection and ask the gathered model?
///   `collect()`  the gathered row-density features plus their modeled
///                GPU collection cost (a fused re-read of the analysis,
///                never a second matrix walk);
///   `select()`   the kernel prediction itself — `plan()` fuses stages
///                route/collect/select into an `ExecutionPlan`;
///   `prepare()`  the chosen kernel's one-time state and launch time;
///   `run()`      one y = A * x against the prepared plan.
///
/// The resulting `ExecutionPlan` owns the route decision, the kernel
/// index, the preprocess-state reference, and the charge ledger: what
/// this plan was *charged* (a reused plan charges zero collection and,
/// if an earlier plan paid, zero preprocessing) alongside the *modeled*
/// intrinsic costs (what the stage would cost stand-alone, which the
/// one-shot tools report and the serving telemetry accumulates as
/// savings). Plans are value types; the preprocess state is shared, so
/// a cached plan can be reused concurrently — the serving layer stores
/// `PreparedKernel` fragments per (fingerprint, kernel) and rebuilds
/// bit-identical plans around them.
///
/// Charging modes:
///  - `CollectionCharging::Charged` — the Fig. 3 one-shot flow: a
///    gathered route pays the modeled collection cost.
///  - `CollectionCharging::Precollected` — the serving flow: the
///    features were paid for by an earlier request (fingerprint-cache
///    hit or session registration), so the plan charges zero while the
///    kernel choice stays bit-identical (the cached features are exactly
///    what collection would recompute).
///
/// Decision-tree inference is a handful of compares; its cost is modeled
/// as InferenceOverheadUs (the paper: "the cost of inference is
/// negligible but accounted for in our predictor").
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_EXECUTIONPLAN_H
#define SEER_CORE_EXECUTIONPLAN_H

#include "kernels/FeatureKernels.h"
#include "kernels/KernelRegistry.h"
#include "ml/FlatTree.h"
#include "sparse/MatrixStats.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace seer {

// The trained model triple (core/SeerTrainer.h). Forward-declared so this
// header can sit below the Benchmarker in the include graph: the trainer
// consumes the Benchmarker's sweep, whose plans are model-less.
struct SeerModels;

/// Content fingerprint of a CSR matrix given as the little-endian byte
/// images of its three arrays, at any alignment: xxHash64
/// (support/XxHash64.h) of the dimensions' image (rows u32, cols u32, nnz
/// u64), chained over the row offsets (u64 each), the column indices
/// (u32) and the values (IEEE-754 bits). The one definition behind
/// matrixFingerprint() and the balancer's in-frame routing key
/// (net/ShardRouter.h), so the two cannot disagree. The caller checks
/// that the spans' lengths match the dimensions.
uint64_t csrFingerprint(uint32_t Rows, uint32_t Cols, uint64_t Nnz,
                        std::string_view OffsetBytes,
                        std::string_view ColumnBytes,
                        std::string_view ValueBytes);

/// Content fingerprint of \p M: csrFingerprint() over its in-memory
/// arrays, which on a little-endian host are their wire images. O(nnz)
/// at memory speed: on a 32,768-row uniform matrix with 396k nonzeros it
/// costs 0.65x one CSR multiply and 0.4x the single-pass analysis (185,
/// 283 and 480 us on a 4-vCPU AMD EPYC at -O2). It is a bucket and
/// routing key, not an identity: see serve/FingerprintCache.h.
uint64_t matrixFingerprint(const CsrMatrix &M);

/// A matrix together with everything the pipeline derives from it once:
/// the single-pass analysis and, when a caller needs content addressing,
/// the fingerprint. The matrix itself is borrowed — the analyzed view
/// must not outlive it.
struct AnalyzedMatrix {
  const CsrMatrix *Matrix = nullptr;
  MatrixStats Stats;
  /// Content fingerprint; 0 until computed (analyze(WithFingerprint) or
  /// adopt()).
  uint64_t Fingerprint = 0;

  const CsrMatrix &matrix() const {
    assert(Matrix && "empty AnalyzedMatrix");
    return *Matrix;
  }
};

/// How a plan's collect() stage charges the modeled collection cost.
enum class CollectionCharging {
  /// The one-shot Fig. 3 flow: a gathered route pays for collection.
  Charged,
  /// The features were paid for by an earlier request (cache hit /
  /// session registration): charge zero, decide identically.
  Precollected,
};

/// Outcome of the route() stage alone.
struct RouteDecision {
  /// True when the classifier-selector sends this input to the
  /// gathered-feature model (collection must run or be served cached).
  bool UseGathered = false;
  /// Modeled cost of this selector consult.
  double InferenceMs = 0.0;
};

/// Outcome of the selection stages (route + collect + select). Cost
/// fields are *charged* costs under the plan's charging mode.
struct SelectionResult {
  /// Registry index of the chosen kernel.
  size_t KernelIndex = 0;
  /// True when the selector routed to the gathered-feature model.
  bool UsedGatheredModel = false;
  /// Cost paid for feature collection (0 on the known path and under
  /// CollectionCharging::Precollected).
  double FeatureCollectionMs = 0.0;
  /// Modeled decision-tree inference cost.
  double InferenceMs = 0.0;

  /// Total selection overhead.
  double overheadMs() const { return FeatureCollectionMs + InferenceMs; }
};

/// A reusable prepared-plan fragment: the preprocessed kernel state, its
/// intrinsic one-time cost and launch time, and whether some earlier plan
/// already paid it. This is exactly what the serving layer's fingerprint
/// cache stores per (matrix, kernel); `Planner::reusePrepared` rebuilds a
/// plan around it and `Planner::exportPrepared` turns a fresh plan back
/// into one.
struct PreparedKernel {
  /// Preprocessed state, shared with every plan that runs the kernel.
  std::shared_ptr<KernelState> State;
  /// Modeled one-time cost; valid whenever State is set.
  double PreprocessMs = 0.0;
  /// Modeled time of one launch (SpmvKernel::timing()'s TotalMs), kept
  /// alone because the cache charges each ledger slot's size.
  double IterationMs = 0.0;
  /// True once some plan was charged this kernel's preprocessing. A
  /// stashed state with Paid == false (e.g. left behind by an oracle
  /// sweep) is reusable but still owes its one-time cost.
  bool Paid = false;
};

/// One planned (and possibly prepared) execution: the route decision and
/// kernel choice, the preprocess-state reference, and the charge ledger.
struct ExecutionPlan {
  /// Iterations the plan was routed/selected for (Sec. IV-E axis).
  uint32_t Iterations = 1;
  /// Route + kernel choice with the *charged* selection costs.
  SelectionResult Selection;
  /// Intrinsic modeled collection cost of the gathered route (0 on the
  /// known route). Equal to Selection.FeatureCollectionMs when charged;
  /// still populated when a reused plan charged nothing, so adapters can
  /// report one-shot costs and the serving layer can account savings.
  double ModeledCollectionMs = 0.0;

  /// Prepared kernel state (null until prepare()/reusePrepared(), or for
  /// kernels that need none).
  std::shared_ptr<KernelState> State;
  /// True once the prepare() stage ran (or a prepared fragment was
  /// adopted) for this plan.
  bool Prepared = false;
  /// True when this plan reused preprocessing an earlier plan paid for;
  /// PreprocessMs is then 0.
  bool PreprocessAmortized = false;
  /// Charged one-time preprocessing cost.
  double PreprocessMs = 0.0;
  /// Intrinsic modeled preprocessing cost (charged or not).
  double ModeledPreprocessMs = 0.0;
  /// Modeled time of one launch, simulated once by prepare() or adopted
  /// with a cached fragment; run() charges it without simulating again.
  double IterationMs = 0.0;

  size_t kernelIndex() const { return Selection.KernelIndex; }
};

/// The one Fig. 3 pipeline, shared by every select->execute consumer.
///
/// Thread safety: a Planner is immutable after construction; every stage
/// is const and touches only its arguments, so one Planner may be shared
/// by any number of threads.
class Planner {
public:
  /// Per-inference decision-tree cost in microseconds (a few dozen
  /// compares on the host).
  static constexpr double InferenceOverheadUs = 0.5;

  /// A model-less planner: analyze/collect/prepare/run only. The
  /// Benchmarker sweeps kernels with this before any model exists;
  /// route/select/plan assert.
  Planner(const KernelRegistry &Registry, const GpuSimulator &Sim);

  /// The full planner over a trained model triple. Compiles the three
  /// trees once, here, and keeps only the compiled forms (ml/FlatTree.h):
  /// every selection predicts through them, bit-identical to the trees'
  /// own predict, and \p Models need not outlive the planner.
  Planner(const SeerModels &Models, const KernelRegistry &Registry,
          const GpuSimulator &Sim);

  /// Stage 0: the single-pass analysis (and optionally the content
  /// fingerprint) of \p M. O(nnz), paid once per AnalyzedMatrix.
  AnalyzedMatrix analyze(const CsrMatrix &M,
                         bool WithFingerprint = false) const;

  /// Adopts an analysis something else already paid for (the serving
  /// layer's fingerprint cache). \p Stats must be computeMatrixStats(M).
  static AnalyzedMatrix adopt(const CsrMatrix &M, const MatrixStats &Stats,
                              uint64_t Fingerprint = 0);

  /// Stage 1: the classifier-selector consult on the known features.
  RouteDecision route(const KnownFeatures &Known, uint32_t Iterations) const;

  /// Stage 2: the gathered features plus their modeled collection cost.
  /// A fused re-read of the analysis — bit-identical to a fresh
  /// collection, with no second matrix walk.
  FeatureCollectionResult collect(const AnalyzedMatrix &A) const;

  /// Stages 1-3 fused: route, collect (only when routed gathered, with
  /// the given charging), select. The returned plan is not yet prepared.
  ExecutionPlan plan(const AnalyzedMatrix &A, uint32_t Iterations,
                     CollectionCharging Charging) const;

  /// Lazy one-shot selection: collection walks the matrix only when the
  /// selector routes gathered, so the common known path never pays an
  /// O(nnz) analysis. Bit-identical to plan(analyze(M), ...).Selection.
  SelectionResult select(const CsrMatrix &M, uint32_t Iterations) const;

  /// Selection from features collected on an earlier request, without
  /// the matrix: zero collection charged, bit-identical choice. The
  /// serving layer's matrix-less fast path.
  SelectionResult selectPrecollected(const KnownFeatures &Known,
                                     const GatheredFeatures &Gathered,
                                     uint32_t Iterations) const;

  /// A plan for one explicit kernel, selection bypassed and prepared
  /// immediately: the Benchmarker's sweep and the serving layer's oracle
  /// probes are exactly this.
  ExecutionPlan planForKernel(const AnalyzedMatrix &A,
                              size_t KernelIndex) const;

  /// Stage 4: preprocess the plan's kernel fresh, charging the plan its
  /// one-time cost, and simulate its launch once (Plan.IterationMs).
  void prepare(ExecutionPlan &Plan, const AnalyzedMatrix &A) const;

  /// Stage 4, reuse form: rebuild the prepare() outcome from a cached
  /// fragment. With \p AlreadyPaid the plan is charged nothing
  /// (amortized); otherwise it adopts the state but still owes the
  /// one-time cost — the modeled charge is identical to recomputing.
  void reusePrepared(ExecutionPlan &Plan, const PreparedKernel &Prepared,
                     bool AlreadyPaid) const;

  /// The plan's prepared fragment, for caching. The plan must be
  /// prepared; the exported fragment is marked Paid (this plan was
  /// charged for it).
  PreparedKernel exportPrepared(const ExecutionPlan &Plan) const;

  /// Stage 5: one y = A * x against the prepared plan, through the
  /// kernel's RunThunk. Timing.TotalMs is the plan's IterationMs; the
  /// compute/memory/overhead breakdown comes from SpmvKernel::timing().
  SpmvRun run(const ExecutionPlan &Plan, const AnalyzedMatrix &A,
              const std::vector<double> &X) const;

  const KernelRegistry &registry() const { return Registry; }
  const GpuSimulator &simulator() const { return Sim; }

private:
  /// Shared body of the selection entry points. \p Collect runs only on
  /// the gathered route (templated, so the known route never pays for a
  /// std::function); \p Charge decides whether its modeled cost is
  /// charged, and \p ModeledOut (may be null) receives it either way.
  template <typename CollectFn>
  SelectionResult selectImpl(const KnownFeatures &Known, uint32_t Iterations,
                             const CollectFn &Collect, bool Charge,
                             double *ModeledOut) const;

  /// The compiled model triple (empty in a model-less planner).
  FlatTree KnownTree;
  FlatTree GatheredTree;
  FlatTree SelectorTree;
  const KernelRegistry &Registry;
  const GpuSimulator &Sim;
};

} // namespace seer

#endif // SEER_CORE_EXECUTIONPLAN_H
