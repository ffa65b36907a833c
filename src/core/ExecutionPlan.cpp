//===- core/ExecutionPlan.cpp ----------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "core/ExecutionPlan.h"

#include "core/Features.h"
#include "core/SeerTrainer.h"
#include "support/FaultInjector.h"
#include "support/Tracing.h"
#include "support/XxHash64.h"

#include <cstring>
#include <utility>

using namespace seer;

uint64_t seer::csrFingerprint(uint32_t Rows, uint32_t Cols, uint64_t Nnz,
                              std::string_view OffsetBytes,
                              std::string_view ColumnBytes,
                              std::string_view ValueBytes) {
  char Dims[16] = {};
  std::memcpy(Dims, &Rows, 4);
  std::memcpy(Dims + 4, &Cols, 4);
  std::memcpy(Dims + 8, &Nnz, 8);
  uint64_t H = xxHash64(std::string_view(Dims, sizeof(Dims)));
  H = xxHash64(OffsetBytes, H);
  H = xxHash64(ColumnBytes, H);
  return xxHash64(ValueBytes, H);
}

uint64_t seer::matrixFingerprint(const CsrMatrix &M) {
  const auto Bytes = [](const auto &V) {
    return std::string_view(reinterpret_cast<const char *>(V.data()),
                            V.size() * sizeof(V[0]));
  };
  return csrFingerprint(M.numRows(), M.numCols(), M.nnz(),
                        Bytes(M.rowOffsets()), Bytes(M.columnIndices()),
                        Bytes(M.values()));
}

Planner::Planner(const KernelRegistry &Registry, const GpuSimulator &Sim)
    : Registry(Registry), Sim(Sim) {}

Planner::Planner(const SeerModels &Models, const KernelRegistry &Registry,
                 const GpuSimulator &Sim)
    : KnownTree(Models.Known.compile()),
      GatheredTree(Models.Gathered.compile()),
      SelectorTree(Models.Selector.compile()), Registry(Registry), Sim(Sim) {
  assert(Models.KernelNames.size() == Registry.size() &&
         "models were trained for a different kernel registry");
}

namespace {

/// The trivially known features of \p M (they ship with the input).
KnownFeatures knownOf(const CsrMatrix &M) {
  KnownFeatures Known;
  Known.NumRows = M.numRows();
  Known.NumCols = M.numCols();
  Known.Nnz = M.nnz();
  return Known;
}

} // namespace

template <typename CollectFn>
SelectionResult Planner::selectImpl(const KnownFeatures &Known,
                                    uint32_t Iterations,
                                    const CollectFn &Collect, bool Charge,
                                    double *ModeledOut) const {
  SelectionResult Result;
  // Branch-free flat trees over stack feature scratch: zero heap
  // allocation per selection (flat_tree_test holds both this and the
  // bit-identity with the trees' own predict).
  // seer-hot-begin(select-compiled): tools/seer_lint.py forbids heap
  // allocation and unordered-container iteration in this region.
  double KnownVec[features::KnownArity];
  features::knownVectorInto(Known, Iterations, KnownVec);

  const uint32_t Choice = SelectorTree.predict(KnownVec);
  Result.InferenceMs = InferenceOverheadUs * 1e-3;

  if (Choice == SeerModels::SelectGathered) {
    // Pay for the collection kernels, then ask the gathered model.
    const FeatureCollectionResult Collection = Collect();
    Result.UsedGatheredModel = true;
    if (ModeledOut)
      *ModeledOut = Collection.CollectionMs;
    Result.FeatureCollectionMs = Charge ? Collection.CollectionMs : 0.0;
    Result.InferenceMs += InferenceOverheadUs * 1e-3;
    double GatheredVec[features::GatheredArity];
    features::gatheredVectorInto(Known, Collection.Features, Iterations,
                                 GatheredVec);
    Result.KernelIndex = GatheredTree.predict(GatheredVec);
  } else {
    Result.InferenceMs += InferenceOverheadUs * 1e-3;
    Result.KernelIndex = KnownTree.predict(KnownVec);
  }
  assert(Result.KernelIndex < Registry.size() &&
         "model predicted an out-of-range kernel");
  return Result;
  // seer-hot-end(select-compiled)
}

AnalyzedMatrix Planner::analyze(const CsrMatrix &M,
                                bool WithFingerprint) const {
  ScopedSpan Span(spanname::PlanAnalyze);
  Span.tag("nnz", static_cast<double>(M.nnz()));
  AnalyzedMatrix A;
  A.Matrix = &M;
  A.Stats = computeMatrixStats(M);
  if (WithFingerprint)
    A.Fingerprint = matrixFingerprint(M);
  return A;
}

AnalyzedMatrix Planner::adopt(const CsrMatrix &M, const MatrixStats &Stats,
                              uint64_t Fingerprint) {
  AnalyzedMatrix A;
  A.Matrix = &M;
  A.Stats = Stats;
  A.Fingerprint = Fingerprint;
  return A;
}

RouteDecision Planner::route(const KnownFeatures &Known,
                             uint32_t Iterations) const {
  assert(!SelectorTree.empty() && "route() needs a trained model triple");
  ScopedSpan Span(spanname::PlanRoute);
  RouteDecision R;
  R.InferenceMs = InferenceOverheadUs * 1e-3;
  double KnownVec[features::KnownArity];
  features::knownVectorInto(Known, Iterations, KnownVec);
  R.UseGathered = SelectorTree.predict(KnownVec) == SeerModels::SelectGathered;
  return R;
}

FeatureCollectionResult Planner::collect(const AnalyzedMatrix &A) const {
  ScopedSpan Span(spanname::PlanCollect);
  FeatureCollectionResult Collection =
      collectGatheredFeatures(A.matrix(), Sim, A.Stats.Gathered);
  Span.tag("modeled_ms", Collection.CollectionMs);
  return Collection;
}

ExecutionPlan Planner::plan(const AnalyzedMatrix &A, uint32_t Iterations,
                            CollectionCharging Charging) const {
  assert(!SelectorTree.empty() && "plan() needs a trained model triple");
  ScopedSpan Span(spanname::PlanSelect);
  ExecutionPlan Plan;
  Plan.Iterations = Iterations;
  Plan.Selection = selectImpl(
      A.Stats.Known, Iterations, [&] { return collect(A); },
      Charging == CollectionCharging::Charged, &Plan.ModeledCollectionMs);
  Span.tag("modeled_ms", Plan.Selection.overheadMs());
  return Plan;
}

SelectionResult Planner::select(const CsrMatrix &M,
                                uint32_t Iterations) const {
  assert(!SelectorTree.empty() && "select() needs a trained model triple");
  ScopedSpan Span(spanname::PlanSelect);
  SelectionResult Result =
      selectImpl(knownOf(M), Iterations,
                 [&] { return collectGatheredFeatures(M, Sim); },
                 /*Charge=*/true, /*ModeledOut=*/nullptr);
  Span.tag("modeled_ms", Result.overheadMs());
  return Result;
}

SelectionResult
Planner::selectPrecollected(const KnownFeatures &Known,
                            const GatheredFeatures &Gathered,
                            uint32_t Iterations) const {
  assert(!SelectorTree.empty() &&
         "selectPrecollected() needs a trained model triple");
  ScopedSpan Span(spanname::PlanSelect);
  SelectionResult Result =
      selectImpl(Known, Iterations,
                 [&] {
                   FeatureCollectionResult Collection;
                   Collection.Features = Gathered;
                   Collection.CollectionMs = 0.0; // paid earlier
                   return Collection;
                 },
                 /*Charge=*/false, /*ModeledOut=*/nullptr);
  Span.tag("modeled_ms", Result.overheadMs());
  return Result;
}

ExecutionPlan Planner::planForKernel(const AnalyzedMatrix &A,
                                     size_t KernelIndex) const {
  assert(KernelIndex < Registry.size() && "kernel index out of range");
  ExecutionPlan Plan;
  Plan.Selection.KernelIndex = KernelIndex;
  prepare(Plan, A);
  return Plan;
}

void Planner::prepare(ExecutionPlan &Plan, const AnalyzedMatrix &A) const {
  // prepare() cannot return Status (every adapter threads it through
  // value-returning stages), so an injected fault propagates as an
  // InjectedFaultError the serving layer catches at its request boundary.
  FaultInjector::instance().checkOrThrow(faultsite::KernelPrepare);
  ScopedSpan Span(spanname::PlanPrepare);
  const SpmvKernel &Kernel = Registry.kernel(Plan.kernelIndex());
  PreprocessResult Prep = Kernel.preprocess(A.matrix(), A.Stats, Sim);
  Span.tag("modeled_ms", Prep.TimeMs);
  Plan.State = std::move(Prep.State);
  Plan.Prepared = true;
  Plan.PreprocessAmortized = false;
  Plan.PreprocessMs = Prep.TimeMs;
  Plan.ModeledPreprocessMs = Prep.TimeMs;
  // The launch time never depends on the operand: simulate it once, here.
  Plan.IterationMs =
      Kernel.timing(A.matrix(), A.Stats, Plan.State.get(), Sim).TotalMs;
}

void Planner::reusePrepared(ExecutionPlan &Plan,
                            const PreparedKernel &Prepared,
                            bool AlreadyPaid) const {
  Plan.State = Prepared.State;
  Plan.Prepared = true;
  Plan.PreprocessAmortized = AlreadyPaid;
  Plan.PreprocessMs = AlreadyPaid ? 0.0 : Prepared.PreprocessMs;
  Plan.ModeledPreprocessMs = Prepared.PreprocessMs;
  Plan.IterationMs = Prepared.IterationMs;
}

PreparedKernel Planner::exportPrepared(const ExecutionPlan &Plan) const {
  assert(Plan.Prepared && "exporting an unprepared plan");
  PreparedKernel Prepared;
  Prepared.State = Plan.State;
  Prepared.PreprocessMs = Plan.ModeledPreprocessMs;
  Prepared.IterationMs = Plan.IterationMs;
  Prepared.Paid = true;
  return Prepared;
}

SpmvRun Planner::run(const ExecutionPlan &Plan, const AnalyzedMatrix &A,
                     const std::vector<double> &X) const {
  assert(Plan.Prepared && "running an unprepared plan");
  FaultInjector::instance().checkOrThrow(faultsite::PlanRun);
  ScopedSpan Span(spanname::PlanRun);
  // One indirect call to a direct-call body instead of the vtable.
  SpmvRun Run;
  Run.Y = Registry.runThunk(Plan.kernelIndex())(A.matrix(), Plan.State.get(),
                                                X, Sim);
  Run.Timing.TotalMs = Plan.IterationMs;
  Span.tag("modeled_ms", Plan.IterationMs);
  return Run;
}
