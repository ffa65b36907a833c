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
    : Models(&Models), Registry(Registry), Sim(Sim) {
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

/// Shared body of the selection entry points; \p Collect produces the
/// gathered features (and their modeled cost) only when the selector
/// routes to the gathered path. Templated so the common known path stays
/// allocation-free — selection is the overhead the paper models as
/// negligible, so it must not pay for a std::function it never calls.
/// \p Charge decides whether the gathered route's modeled collection
/// cost is charged to the result; \p ModeledOut (may be null) receives
/// the intrinsic cost either way.
template <typename CollectFn>
SelectionResult selectImpl(const SeerModels &Models,
                           const KernelRegistry &Registry,
                           const KnownFeatures &Known, uint32_t Iterations,
                           const CollectFn &Collect, bool Charge,
                           double *ModeledOut) {
  SelectionResult Result;
  if (Models.compiled()) {
    // Compiled path: branch-free flat trees over arena-backed feature
    // scratch — zero heap allocation per selection, bit-identical
    // decisions to the interpreted walk below (flat_tree_test fuzzes
    // the equivalence; the serving bit-identity gates hold it end to
    // end).
    PlanArena &Arena = Planner::scratchArena();
    PlanArena::Scope Scratch(Arena);
    double *KnownVec = Arena.array<double>(features::KnownArity);
    features::knownVectorInto(Known, Iterations, KnownVec);

    const uint32_t Choice = Models.SelectorFlat.predict(KnownVec);
    Result.InferenceMs = Planner::InferenceOverheadUs * 1e-3;

    if (Choice == SeerModels::SelectGathered) {
      const FeatureCollectionResult Collection = Collect();
      Result.UsedGatheredModel = true;
      if (ModeledOut)
        *ModeledOut = Collection.CollectionMs;
      Result.FeatureCollectionMs = Charge ? Collection.CollectionMs : 0.0;
      Result.InferenceMs += Planner::InferenceOverheadUs * 1e-3;
      double *GatheredVec = Arena.array<double>(features::GatheredArity);
      features::gatheredVectorInto(Known, Collection.Features, Iterations,
                                   GatheredVec);
      Result.KernelIndex = Models.GatheredFlat.predict(GatheredVec);
    } else {
      Result.InferenceMs += Planner::InferenceOverheadUs * 1e-3;
      Result.KernelIndex = Models.KnownFlat.predict(KnownVec);
    }
    assert(Result.KernelIndex < Registry.size() &&
           "model predicted an out-of-range kernel");
    (void)Registry;
    return Result;
  }

  // Interpreted reference path: heap-walking DecisionTree::predict, kept
  // as the oracle the compiled path is verified against.
  // Trivially known features are free: they ship with the input.
  const std::vector<double> KnownVec =
      features::knownVector(Known, Iterations);

  const uint32_t Choice = Models.Selector.predict(KnownVec);
  Result.InferenceMs = Planner::InferenceOverheadUs * 1e-3;

  if (Choice == SeerModels::SelectGathered) {
    // Pay for the collection kernels, then ask the gathered model.
    const FeatureCollectionResult Collection = Collect();
    Result.UsedGatheredModel = true;
    if (ModeledOut)
      *ModeledOut = Collection.CollectionMs;
    Result.FeatureCollectionMs = Charge ? Collection.CollectionMs : 0.0;
    Result.InferenceMs += Planner::InferenceOverheadUs * 1e-3;
    Result.KernelIndex = Models.Gathered.predict(features::gatheredVector(
        Known, Collection.Features, Iterations));
  } else {
    Result.InferenceMs += Planner::InferenceOverheadUs * 1e-3;
    Result.KernelIndex = Models.Known.predict(KnownVec);
  }
  assert(Result.KernelIndex < Registry.size() &&
         "model predicted an out-of-range kernel");
  (void)Registry;
  return Result;
}

} // namespace

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
  assert(Models && "route() needs a trained model triple");
  ScopedSpan Span(spanname::PlanRoute);
  RouteDecision R;
  R.InferenceMs = InferenceOverheadUs * 1e-3;
  if (Models->compiled()) {
    double KnownVec[features::KnownArity];
    features::knownVectorInto(Known, Iterations, KnownVec);
    R.UseGathered = Models->SelectorFlat.predict(KnownVec) ==
                    SeerModels::SelectGathered;
  } else {
    R.UseGathered =
        Models->Selector.predict(features::knownVector(Known, Iterations)) ==
        SeerModels::SelectGathered;
  }
  return R;
}

PlanArena &Planner::scratchArena() {
  static thread_local PlanArena Arena;
  return Arena;
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
  assert(Models && "plan() needs a trained model triple");
  ScopedSpan Span(spanname::PlanSelect);
  ExecutionPlan Plan;
  Plan.Iterations = Iterations;
  Plan.Selection = selectImpl(*Models, Registry, A.Stats.Known, Iterations,
                              [&] { return collect(A); },
                              Charging == CollectionCharging::Charged,
                              &Plan.ModeledCollectionMs);
  Span.tag("modeled_ms", Plan.Selection.overheadMs());
  return Plan;
}

SelectionResult Planner::select(const CsrMatrix &M,
                                uint32_t Iterations) const {
  assert(Models && "select() needs a trained model triple");
  ScopedSpan Span(spanname::PlanSelect);
  SelectionResult Result =
      selectImpl(*Models, Registry, knownOf(M), Iterations,
                 [&] { return collectGatheredFeatures(M, Sim); },
                 /*Charge=*/true, /*ModeledOut=*/nullptr);
  Span.tag("modeled_ms", Result.overheadMs());
  return Result;
}

SelectionResult
Planner::selectPrecollected(const KnownFeatures &Known,
                            const GatheredFeatures &Gathered,
                            uint32_t Iterations) const {
  assert(Models && "selectPrecollected() needs a trained model triple");
  ScopedSpan Span(spanname::PlanSelect);
  SelectionResult Result =
      selectImpl(*Models, Registry, Known, Iterations,
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
