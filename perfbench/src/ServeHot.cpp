//===- perfbench/src/ServeHot.cpp - The repeat-stream read path -----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// serve-hot: an in-process SeerService with a pinned working set that fits
// its cache, driven by one client in a closed loop. Every round replays
// one seeded sequence over a fixed request multiset: for each matrix and
// iteration count (1/5/19) an execute, a second execute, a select and an
// oracle-verified execute, plus one executeBatch of four operands per
// matrix. Plan and oracle caches are warm before timing, so there is no
// registration, no eviction and no wire: the kernel run and the cost model
// riding on it are nearly all of each request.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "api/SeerService.h"
#include "serve/RequestTrace.h"
#include "sim/GpuSimulator.h"
#include "support/Random.h"
#include "support/Tracing.h"

#include <memory>

using namespace seer;

namespace perfbench {
namespace {

enum class Kind { Execute, Select, Verified, Batch };

struct HotRequest {
  size_t Matrix = 0;
  Kind What = Kind::Execute;
  uint32_t Iterations = 1;
};

constexpr uint32_t BatchOperands = 4;

/// The fixed request multiset, in matrix order.
std::vector<HotRequest> requestMultiset(size_t Matrices) {
  std::vector<HotRequest> Sequence;
  for (size_t M = 0; M < Matrices; ++M) {
    for (uint32_t Iterations : IterationChoices)
      for (Kind What : {Kind::Execute, Kind::Execute, Kind::Select,
                        Kind::Verified})
        Sequence.push_back({M, What, Iterations});
    Sequence.push_back(
        {M, Kind::Batch, IterationChoices[M % std::size(IterationChoices)]});
  }
  return Sequence;
}

/// The multiset in the run's seeded order.
std::vector<HotRequest> requestSequence(size_t Matrices, uint64_t Seed) {
  std::vector<HotRequest> Sequence = requestMultiset(Matrices);
  Rng Shuffle(Seed ^ 0x5e2e407ull);
  for (size_t I = Sequence.size(); I > 1; --I)
    std::swap(Sequence[I - 1], Sequence[Shuffle.bounded(I)]);
  return Sequence;
}

/// The service plus the handles of its registered working set.
struct Session {
  std::unique_ptr<SeerService> Service;
  std::vector<MatrixHandle> Handles;
};

Session setUp(const Options &Opts, const KernelRegistry &Registry,
              const std::vector<NamedMatrix> &Set, Outcome &Out) {
  Session S;
  std::optional<SeerModels> Models = loadBundle(Opts, Registry, Out);
  if (!Models)
    return S;
  ServiceConfig Config;
  Config.Server.CacheShards = 16;
  Config.Server.CacheBudgetBytes = 0;
  S.Service = std::make_unique<SeerService>(std::move(*Models), Config);
  for (const NamedMatrix &M : Set) {
    Out.attempt();
    ScopedSpan Span("bench.api.register");
    auto Handle = S.Service->registerMatrix(M.Matrix);
    if (!Handle.ok()) {
      Out.fail("register " + M.Name + ": " + Handle.status().toString());
      continue;
    }
    S.Handles.push_back(*Handle);
  }
  return S;
}

} // namespace

int runServeHot(const Options &Opts, RunResult &R) {
  const std::vector<Slot> Slots =
      Opts.Smoke ? familySlots({1024, 4096}, 1024)
                 : familySlots({1024, 2048, 4096}, 2048);
  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());
  R.KernelNames = Registry.names();

  // Inputs first (the client's data), then the timed set-up repetitions:
  // bundle load, service construction, registration of the working set.
  if (Opts.Trace)
    armTracing();
  const std::vector<NamedMatrix> Set = buildWorkingSet(Slots, Opts.Seed, R.Out);
  const size_t SetupReps = 21;
  Session S;
  for (size_t I = 0; I < SetupReps; ++I) {
    S = Session();
    const double Start = wallNow();
    S = setUp(Opts, Registry, Set, R.Out);
    R.SetupS.push_back(wallNow() - Start);
  }
  if (!S.Service || S.Handles.size() != Set.size())
    return 1;

  // Expected outputs, outside timing: a one-shot Planner over the same
  // bundle gives each request's kernel, route, modeled costs and Y.
  std::optional<SeerModels> Models = loadBundle(Opts, Registry, R.Out);
  if (!Models)
    return 1;
  const Planner Reference(*Models, Registry, Sim);
  std::vector<MatrixReference> Refs;
  std::vector<std::vector<std::vector<double>>> Operands;
  std::vector<std::vector<uint64_t>> BatchHashes;
  for (size_t M = 0; M < Set.size(); ++M) {
    const CsrMatrix &Matrix = *Set[M].Matrix;
    Refs.push_back(computeReference(Reference, Matrix, true, R.Out));
    const uint32_t Iterations = IterationChoices[M % std::size(IterationChoices)];
    const size_t Kernel = Refs[M].Chosen[MatrixReference::slot(Iterations)];
    const AnalyzedMatrix A = Reference.analyze(Matrix);
    const ExecutionPlan Plan = Reference.planForKernel(A, Kernel);
    Operands.push_back(buildBatchOperands(BatchOperands, Matrix.numCols()));
    std::vector<uint64_t> Hashes;
    for (const std::vector<double> &X : Operands.back())
      Hashes.push_back(hashVector(Reference.run(Plan, A, X).Y));
    BatchHashes.push_back(std::move(Hashes));
  }
  const std::vector<HotRequest> Sequence = requestSequence(Set.size(), Opts.Seed);
  if (Opts.Trace) {
    drainTracing(Opts.TraceOut, /*Final=*/false);
    SpanRecorder::instance().disarm();
  }
  R.Notes["working_set"] =
      std::to_string(Set.size()) + " matrices: 8 families at rows " +
      (Opts.Smoke ? "1024..4096, heavy-tailed ones up to 1024"
                  : "1024..4096, heavy-tailed ones up to 2048");
  R.Notes["requests_per_round"] = std::to_string(Sequence.size());

  SeerService &Service = *S.Service;
  bool Tallying = false;
  ModeledTally Tally;
  const auto Check = [&](const HotRequest &Q, const SelectionResult &Sel,
                         bool Degraded) {
    const MatrixReference &Ref = Refs[Q.Matrix];
    const size_t Slot = MatrixReference::slot(Q.Iterations);
    if (Degraded)
      R.Out.fail("degraded response on " + Set[Q.Matrix].Name);
    else if (Sel.KernelIndex != Ref.Chosen[Slot] ||
             Sel.UsedGatheredModel != Ref.Gathered[Slot])
      R.Out.fail("kernel or route differs from the reference on " +
                 Set[Q.Matrix].Name);
    return !Degraded && Sel.KernelIndex == Ref.Chosen[Slot];
  };

  const auto Replay = [&](const std::vector<HotRequest> &Requests) {
    perfbench::Round Timing;
    for (const HotRequest &Q : Requests) {
      const MatrixReference &Ref = Refs[Q.Matrix];
      const MatrixHandle Handle = S.Handles[Q.Matrix];
      R.Out.attempt();
      const double Wall0 = wallNow();
      const double Cpu0 = processCpuNow();
      if (Q.What == Kind::Batch) {
        Expected<BatchResponse> Response = [&] {
          ScopedSpan Span("bench.api.batch");
          return Service.executeBatch(Handle, Operands[Q.Matrix], Q.Iterations);
        }();
        const double Wall1 = wallNow();
        Timing.WallS += Wall1 - Wall0;
        Timing.CpuS += processCpuNow() - Cpu0;
        R.LatenciesUs.push_back(1e6 * (Wall1 - Wall0));
        if (!Response.ok()) {
          R.Out.fail("batch: " + Response.status().toString());
          continue;
        }
        if (!Check(Q, Response->Selection, Response->Degraded))
          continue;
        bool Same = Response->Y.size() == BatchOperands &&
                    Response->IterationMs ==
                        Ref.Kernels[Response->Selection.KernelIndex].IterationMs;
        for (size_t I = 0; Same && I < BatchOperands; ++I)
          Same = hashVector(Response->Y[I]) == BatchHashes[Q.Matrix][I];
        if (!Same)
          R.Out.fail("batch Y differs from the reference on " +
                     Set[Q.Matrix].Name);
        if (Tallying) {
          Tally.charge(Response->totalMs());
          Tally.add(Ref, Q.Iterations, BatchOperands,
                    Response->Selection.KernelIndex, false);
        }
        continue;
      }
      Request Req;
      Req.Handle = Handle;
      Req.Iterations = Q.Iterations;
      Req.Execute = Q.What != Kind::Select;
      Req.VerifyOracle = Q.What == Kind::Verified;
      Expected<ServeResponse> Response = [&] {
        ScopedSpan Span("bench.api.serve");
        return Service.serve(Req);
      }();
      const double Wall1 = wallNow();
      Timing.WallS += Wall1 - Wall0;
      Timing.CpuS += processCpuNow() - Cpu0;
      R.LatenciesUs.push_back(1e6 * (Wall1 - Wall0));
      if (!Response.ok()) {
        R.Out.fail("serve: " + Response.status().toString());
        continue;
      }
      if (!Check(Q, Response->Selection, Response->Degraded))
        continue;
      const size_t Chosen = Response->Selection.KernelIndex;
      const size_t Slot = MatrixReference::slot(Q.Iterations);
      if (Req.Execute &&
          (!Response->Executed ||
           hashVector(Response->Y) != Ref.Kernels[Chosen].OnesYHash ||
           Response->IterationMs != Ref.Kernels[Chosen].IterationMs))
        R.Out.fail("execute Y or iteration cost differs on " +
                   Set[Q.Matrix].Name);
      if (Req.VerifyOracle &&
          (!Response->OracleChecked ||
           Response->OracleKernelIndex != Ref.Oracle[Slot] ||
           Response->RegretMs !=
               Ref.Kernels[Chosen].totalMs(Q.Iterations) -
                   Ref.Kernels[Ref.Oracle[Slot]].totalMs(Q.Iterations)))
        R.Out.fail("oracle verdict differs from the reference on " +
                   Set[Q.Matrix].Name);
      if (Tallying) {
        Tally.charge(Response->totalMs());
        if (Req.Execute)
          Tally.add(Ref, Q.Iterations, 1.0, Chosen, Req.VerifyOracle);
      }
    }
    return Timing;
  };
  const auto Round = [&] { return Replay(Sequence); };

  // Warm the plan and oracle caches in matrix order, so the cache fills
  // (and the heap grows) the same way whatever the seed; then tally the
  // modeled metrics on the first timed round (every later round must
  // match it: all checked).
  Replay(requestMultiset(Set.size()));
  R.LatenciesUs.clear();
  const std::string Before = Service.metricsPrometheus();
  Tallying = true;
  R.Rounds.push_back(Round());
  Tallying = false;
  if (Opts.Trace) {
    runRounds(Opts.Seconds / 2, R.Rounds, Round);
    R.UntracedWallS = medianWall(R.Rounds);
    armTracing();
    std::vector<perfbench::Round> Traced;
    runRounds(
        Opts.Seconds / 2, Traced,
        [&] {
          const perfbench::Round Timing = Round();
          drainTracing(Opts.TraceOut, /*Final=*/false);
          return Timing;
        },
        MaxTracedRounds);
    R.TracedWallS = medianWall(Traced);
    drainTracing(Opts.TraceOut, /*Final=*/true);
  } else {
    runRounds(Opts.Seconds, R.Rounds, Round);
  }
  serverLayers(Before, Service.metricsPrometheus(), R.Layers);
  Tally.emit(R.Modeled);
  return 0;
}

} // namespace perfbench
