//===- serve/SeerServer.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "serve/SeerServer.h"

#include "support/FaultInjector.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace seer;

SeerServer::SeerServer(SeerModels Models, ServerConfig Config)
    : Models(std::move(Models)), Registry(), Sim(Config.Device),
      Pipeline(this->Models, Registry, Sim),
      Cache(Config.CacheShards, Config.CacheBudgetBytes),
      Baseline(Registry.indexOf("CSR,TM")),
      SelectBreaker(Config.BreakerThreshold, Config.BreakerCooldown),
      PrepareBreaker(Config.BreakerThreshold, Config.BreakerCooldown),
      RunBreaker(Config.BreakerThreshold, Config.BreakerCooldown) {}

namespace {

uint64_t msToNanos(double Ms) {
  return Ms > 0 ? static_cast<uint64_t>(Ms * 1e6) : 0;
}

double microsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Armed-only timer of one stage: no clock read when observability is
/// off, so the disarmed request path keeps its pre-instrumentation cost.
/// Declared before its request's span, a timer outlives it and writes its
/// sample only then: as a span records itself after taking its end time,
/// the request is not billed for writing its own telemetry.
class StageTimer {
public:
  StageTimer(bool Armed, Histogram &WallUs, Histogram *CostError = nullptr)
      : Armed(Armed), WallUs(WallUs), CostError(CostError) {}
  StageTimer(const StageTimer &) = delete;
  StageTimer &operator=(const StageTimer &) = delete;
  /// Records the stage's wall time and, when it ran with a non-zero
  /// modeled cost, the wall/modeled ratio as its cost-model error.
  ~StageTimer() {
    if (!Sampled)
      return;
    WallUs.record(Us);
    if (CostError && ModeledMs > 0.0)
      CostError->record(Us * 1e-3 / ModeledMs);
  }

  void start() {
    if (Armed)
      StartNs = SpanRecorder::nowNs();
  }
  /// Ends the stage; a \p Modeled of 0 records no cost-model error.
  void stop(double Modeled = 0.0) {
    if (!Armed)
      return;
    Us = static_cast<double>(SpanRecorder::nowNs() - StartNs) / 1000.0;
    ModeledMs = Modeled;
    Sampled = true;
  }

private:
  bool Armed;
  bool Sampled = false;
  Histogram &WallUs;
  Histogram *CostError;
  uint64_t StartNs = 0;
  double Us = 0.0;
  double ModeledMs = 0.0;
};

/// The stage error rule, written once for every pipeline stage: the
/// stage's breaker admits it or degrades the request; a retryable
/// injected fault returns typed, so the session layer's RetryPolicy can
/// re-issue the request; a terminal fault or a bad_alloc degrades to the
/// baseline kernel. A degraded request runs no further stage.
template <typename StageFn>
Status runStage(CircuitBreaker &Breaker, bool &Degraded, StageFn &&Stage) {
  if (Degraded)
    return Status::okStatus();
  if (!Breaker.allow()) {
    Degraded = true;
    return Status::okStatus();
  }
  try {
    Stage();
    Breaker.recordSuccess();
  } catch (const InjectedFaultError &E) {
    Breaker.recordFailure();
    if (E.status().isRetryable())
      return E.status();
    Degraded = true;
  } catch (const std::bad_alloc &) {
    Breaker.recordFailure();
    Degraded = true;
  }
  return Status::okStatus();
}

} // namespace

RegisteredMatrix SeerServer::registerMatrix(
    std::shared_ptr<const CsrMatrix> Matrix) {
  assert(Matrix && "registration without a matrix");
  RegisteredMatrix R;
  R.Fingerprint = matrixFingerprint(*Matrix);
  StageTimer Probe(SpanRecorder::instance().armed(), CacheProbeUs);
  Probe.start();
  ScopedSpan ProbeSpan(spanname::CacheProbe);
  auto [Entry, Hit] =
      Cache.lookupOrAnalyze(R.Fingerprint, *Matrix, Registry.size());
  ProbeSpan.tag("hit", Hit ? 1.0 : 0.0);
  Probe.stop();
  // Executes that bring no operand run on these ones, built once here.
  R.Ones = std::make_shared<const std::vector<double>>(Matrix->numCols(), 1.0);
  R.Matrix = std::move(Matrix);
  R.Entry = std::move(Entry);
  R.AnalysisReused = Hit;
  Registrations.add();
  return R;
}

void SeerServer::releaseMatrix(const RegisteredMatrix &Registered) {
  assert(Registered.valid() && "releasing an empty registration");
  Cache.unpin(Registered.Entry);
  Releases.add();
}

bool SeerServer::preparePlan(
    ExecutionPlan &Plan, const AnalyzedMatrix &A,
    const std::shared_ptr<FingerprintCache::Entry> &Entry) {
  // Plan reuse: rebuild the plan around the cached prepared fragment if
  // one exists. Check under the entry lock, do fresh work outside it,
  // and let the first finisher publish. Charge-once-per-residency:
  // eviction resets the fragments along with the entry.
  {
    ScopedSpan LedgerSpan(spanname::CacheLedger);
    MutexLock Lock(Entry->Mutex);
    FingerprintCache::KernelSlot &Slot = Entry->Kernels[Plan.kernelIndex()];
    if (Slot.Paid) {
      Pipeline.reusePrepared(Plan, Slot, /*AlreadyPaid=*/true);
      return true;
    }
    if (Slot.State) {
      // A fragment stashed by an oracle sweep but never charged: reuse
      // the (deterministic) state, but this plan owes the one-time cost —
      // the modeled charge is identical to recomputing preprocess().
      Pipeline.reusePrepared(Plan, Slot, /*AlreadyPaid=*/false);
      Slot.Paid = true;
      return true;
    }
  }

  Pipeline.prepare(Plan, A); // fresh, outside the entry lock
  bool Grew = false;
  bool Reused = false;
  {
    ScopedSpan LedgerSpan(spanname::CacheLedger);
    MutexLock Lock(Entry->Mutex);
    FingerprintCache::KernelSlot &Slot = Entry->Kernels[Plan.kernelIndex()];
    if (!Slot.Paid) {
      Slot = Pipeline.exportPrepared(Plan);
      Grew = true;
    } else {
      // A racing request published its plan first; this one rides along.
      Pipeline.reusePrepared(Plan, Slot, /*AlreadyPaid=*/true);
      Reused = true;
    }
  }
  if (Grew)
    Cache.noteMutation(Entry);
  return Reused;
}

Status SeerServer::finishError(Status Error,
                               std::chrono::steady_clock::time_point Start) {
  assert(!Error.ok() && "finishError on success");
  if (Error.code() == StatusCode::DeadlineExceeded)
    DeadlineExceededCount.add();
  // Failed requests cost service time too; Requests and its derived
  // invariants (hits + misses, known + gathered) count only answered
  // requests, so errors move the latency histogram and their own
  // counters, nothing else.
  Latency.record(microsSince(Start));
  return Error;
}

Expected<ServeResponse>
SeerServer::handleRegistered(const RegisteredMatrix &Registered,
                             const ServeOptions &Options) {
  ServeResponse R;
  Job J;
  J.Iterations = Options.Iterations;
  // A select runs no operand; an execute runs one: the request's own, or
  // the registration's ones vector.
  J.Operands = Options.Operand ? Options.Operand : Registered.Ones.get();
  J.Products = &R.Y;
  J.Count = Options.Execute ? 1 : 0;
  J.Verdict = Options.Execute && Options.VerifyOracle ? &R : nullptr;
  J.Deadline = Options.Deadline;
  if (Status S = runPipeline(Registered, J, R); !S.ok())
    return S;
  R.Executed = Options.Execute;
  return R;
}

Expected<BatchResponse> SeerServer::executeBatchRegistered(
    const RegisteredMatrix &Registered, uint32_t Iterations,
    const std::vector<std::vector<double>> &Operands,
    std::chrono::steady_clock::time_point Deadline) {
  assert(!Operands.empty() && "empty batch");
  BatchResponse B;
  B.Y.resize(Operands.size());
  Job J;
  J.Iterations = Iterations;
  J.Operands = Operands.data();
  J.Products = B.Y.data();
  J.Count = Operands.size();
  J.Batch = true;
  J.Deadline = Deadline;
  if (Status S = runPipeline(Registered, J, B); !S.ok())
    return S;
  return B;
}

Status SeerServer::runPipeline(const RegisteredMatrix &Registered,
                               const Job &J, ResponseBase &R) {
  assert(Registered.valid() && "request against an empty registration");
  const auto Start = std::chrono::steady_clock::now();
  const CsrMatrix &M = *Registered.Matrix;
  const std::shared_ptr<FingerprintCache::Entry> &Entry = Registered.Entry;
  const AnalyzedMatrix A =
      Planner::adopt(M, Entry->Stats, Registered.Fingerprint);
  FaultInjector &Faults = FaultInjector::instance();

  // Observability: when the SpanRecorder is armed, mint a request id
  // (inherited by every nested span, including the Planner-internal
  // ones) and time each stage into its histogram. Disarmed, all of this
  // is one relaxed load plus two thread-local stores.
  const bool Obs = SpanRecorder::instance().armed();
  const uint64_t RequestId =
      Obs ? NextRequestId.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  StageTimer SelectTimer(Obs, StageSelectUs, &CostErrorSelect);
  StageTimer PrepareTimer(Obs, StagePrepareUs, &CostErrorPrepare);
  StageTimer RunTimer(Obs, StageRunUs, &CostErrorRun);
  StageTimer OracleTimer(Obs, StageOracleUs);
  ScopedRequestId IdScope(RequestId);
  ScopedSpan RequestSpan(J.Batch ? spanname::ServeBatch : spanname::Serve,
                         RequestId);
  if (J.Batch)
    RequestSpan.tag("operands", static_cast<double>(J.Count));

  // Deadline checkpoint 1 — admission: queue wait (async submission) and
  // dequeue happen before this point, so an expired request is rejected
  // before any pipeline work runs on its behalf.
  if (deadlineExpired(J.Deadline))
    return finishError(Status::deadlineExceeded(
                           J.Batch ? "deadline expired at batch admission"
                                   : "deadline expired before selection"),
                       Start);

  R.Iterations = J.Iterations ? J.Iterations : 1;
  R.Fingerprint = Registered.Fingerprint;
  R.CacheHit = true; // registration paid the analysis

  // A batch first passes its own fault site, which no breaker guards.
  bool Degraded = false;
  Status Failure = Status::okStatus();
  if (J.Batch) {
    CircuitBreaker Unguarded; // threshold 0: admits every call, never opens
    Failure = runStage(Unguarded, Degraded, [&] {
      Faults.checkOrThrow(faultsite::BatchExecute);
    });
  }

  // Stage: route + collect + select, once for every operand.
  // Registration paid the analysis, so the collection is never charged:
  // the features come from the cache and the chosen kernel is
  // bit-identical to the uncached path.
  ExecutionPlan Plan;
  if (Failure.ok())
    Failure = runStage(SelectBreaker, Degraded, [&] {
      SelectTimer.start();
      Faults.checkOrThrow(faultsite::PlanSelect);
      Plan = Pipeline.plan(A, R.Iterations, CollectionCharging::Precollected);
      SelectTimer.stop(Plan.Selection.overheadMs());
    });
  if (!Failure.ok())
    return finishError(std::move(Failure), Start);
  if (!Degraded) {
    R.Selection = Plan.Selection;
    R.ModeledCollectionMs = Plan.ModeledCollectionMs;
    if (Plan.Selection.UsedGatheredModel) {
      // Telemetry: the modeled collection cost this request skipped (the
      // plan's collect stage evaluated only the cost formula — no matrix
      // walk happens on the precollected path).
      SavedCollectionNs.add(msToNanos(Plan.ModeledCollectionMs));
    }
  }

  // Deadline checkpoint 2 — between the selection and execution stages:
  // expired work stops here instead of paying for preparation and runs.
  if (deadlineExpired(J.Deadline))
    return finishError(Status::deadlineExceeded(
                           J.Batch ? "deadline expired after batch selection"
                                   : "deadline expired after selection"),
                       Start);

  // Deadline checkpoint 3, before each operand's run: an expired request
  // stops there instead of finishing its tail. Work already done is
  // discarded — the caller asked for every product by a time, not for a
  // prefix of them.
  const auto RunExpired = [&](size_t Ran) {
    return Status::deadlineExceeded(
        J.Batch ? "deadline expired mid-batch after " + std::to_string(Ran) +
                      " of " + std::to_string(J.Count) + " operands"
                : std::string("deadline expired before the run"));
  };

  bool PlanReused = false;
  if (J.Count != 0) {
    // Stage: prepare, once for every operand (the kernel.prepare fault
    // site lives inside Planner::prepare and surfaces here as
    // InjectedFaultError).
    Failure = runStage(PrepareBreaker, Degraded, [&] {
      PrepareTimer.start();
      PlanReused = preparePlan(Plan, A, Entry);
      // Cost-model error only when this request actually ran the
      // preprocess kernel — a ledger reuse's wall time measures a map
      // lookup, not the modeled preprocessing.
      PrepareTimer.stop((!PlanReused && !Plan.PreprocessAmortized)
                            ? Plan.ModeledPreprocessMs
                            : 0.0);
    });
    if (!Failure.ok())
      return finishError(std::move(Failure), Start);
    if (!Degraded) {
      R.PreprocessAmortized = Plan.PreprocessAmortized;
      R.PreprocessMs = Plan.PreprocessMs;
      R.ModeledPreprocessMs = Plan.ModeledPreprocessMs;
      if (Plan.PreprocessAmortized)
        SavedPreprocessNs.add(msToNanos(Plan.ModeledPreprocessMs));
    }

    // Stage: run every operand against the one prepared plan. A deadline
    // that stops the loop ends the stage without a fault.
    size_t Ran = 0;
    Failure = runStage(RunBreaker, Degraded, [&] {
      RunTimer.start();
      for (; Ran < J.Count; ++Ran) {
        if (deadlineExpired(J.Deadline))
          return;
        assert(J.Operands[Ran].size() == M.numCols() &&
               "operand length mismatch");
        SpmvRun Run = Pipeline.run(Plan, A, J.Operands[Ran]);
        R.IterationMs = Run.Timing.TotalMs;
        J.Products[Ran] = std::move(Run.Y);
      }
      // One wall sample for the whole operand loop; the modeled cost is
      // the per-operand run scaled by the operand count.
      RunTimer.stop(R.IterationMs * static_cast<double>(J.Count));
    });
    if (!Failure.ok())
      return finishError(std::move(Failure), Start);
    if (!Degraded && Ran < J.Count)
      return finishError(RunExpired(Ran), Start);
  }

  if (J.Verdict && !Degraded) {
    OracleTimer.start();
    ScopedSpan OracleSpan(spanname::ServeOracle);
    *J.Verdict = verifyOracle(A, Entry, R.Iterations, R.Selection.KernelIndex);
    OracleTimer.stop();
  }

  if (Degraded) {
    // Graceful degradation: answer with the deterministic baseline CSR
    // kernel, run directly. No model, no preprocessing, no cached state,
    // no Planner stage — and none of the fault sites above — so the
    // fallback works precisely when the pipeline does not; a failure here
    // would mean the kernel registry is broken, which no fallback can
    // paper over. The response is marked and charged as what it is: a
    // baseline serve (zero selection overhead, zero preprocessing). It
    // recomputes every product, discarding partial planned ones, so all
    // of a batch's operands come from the same kernel.
    R.Degraded = true;
    R.Selection = SelectionResult();
    R.Selection.KernelIndex = Baseline;
    R.ModeledCollectionMs = 0.0;
    R.PreprocessAmortized = false;
    R.PreprocessMs = 0.0;
    R.ModeledPreprocessMs = 0.0;
    R.IterationMs = 0.0;
    ScopedSpan DegradedSpan(spanname::ServeDegraded, RequestId);
    for (size_t K = 0; K < J.Count; ++K) {
      if (deadlineExpired(J.Deadline))
        return finishError(RunExpired(K), Start);
      assert(J.Operands[K].size() == M.numCols() && "operand length mismatch");
      SpmvRun Run = Registry.kernel(Baseline).run(
          M, Entry->Stats, /*State=*/nullptr, J.Operands[K], Sim);
      R.IterationMs = Run.Timing.TotalMs;
      J.Products[K] = std::move(Run.Y);
    }
  }

  R.ServiceMicros = microsSince(Start);

  // Commit telemetry before returning so stats() is consistent once the
  // caller has its response. A batch is one request (one hit, one route,
  // one preprocessing charge, one plan) executing N operands.
  Requests.add();
  CacheHits.add();
  if (R.Selection.UsedGatheredModel)
    GatheredRoutes.add();
  if (J.Count != 0) {
    Executions.add(J.Count);
    // The degraded path charges no preprocessing and builds no plan, so
    // it moves neither the amortization nor the plan-cache counters.
    if (!R.Degraded) {
      (R.PreprocessAmortized ? AmortizedPreprocesses : PaidPreprocesses).add();
      (PlanReused ? PlansReused : PlansBuilt).add();
    }
  }
  if (J.Verdict && J.Verdict->OracleChecked) {
    OracleChecks.add();
    if (J.Verdict->Mispredicted)
      Mispredictions.add();
  }
  if (R.Degraded)
    DegradedServes.add();
  if (J.Batch) {
    BatchRequests.add();
    BatchedOperands.add(J.Count);
  }
  Latency.record(R.ServiceMicros);
  return Status::okStatus();
}

OracleVerdict SeerServer::verifyOracle(
    const AnalyzedMatrix &A,
    const std::shared_ptr<FingerprintCache::Entry> &Entry,
    uint32_t Iterations, size_t Chosen) {
  // Online feedback: compare against the noise-free oracle, computed once
  // per fingerprint and cached. Best-effort under injection: a fault here
  // (the serve.oracle site, or kernel.prepare firing inside the probe
  // sweep) skips verification and serves the response unverified rather
  // than failing or degrading it.
  OracleVerdict V;
  try {
    FaultInjector::instance().checkOrThrow(faultsite::ServeOracle);
    std::vector<KernelMeasurement> Oracle;
    {
      MutexLock Lock(Entry->Mutex);
      Oracle = Entry->Oracle;
    }
    if (Oracle.empty()) {
      // The oracle sweep prepares one plan per registry kernel and reads
      // the launch time each one simulated: no SpMV runs.
      Oracle.resize(Registry.size());
      std::vector<ExecutionPlan> Probes;
      Probes.reserve(Registry.size());
      for (size_t K = 0; K < Registry.size(); ++K) {
        Probes.push_back(Pipeline.planForKernel(A, K));
        Oracle[K].PreprocessMs = Probes[K].ModeledPreprocessMs;
        Oracle[K].IterationMs = Probes[K].IterationMs;
      }
      bool Grew = false;
      {
        MutexLock Lock(Entry->Mutex);
        if (Entry->Oracle.empty()) {
          Entry->Oracle = Oracle;
          Grew = true;
        }
        // Stash the sweep's by-product plans into empty ledger slots,
        // unpaid: a later execution of that kernel reuses the state but
        // still gets charged its one-time cost, and the byte-budgeted
        // cache sheds these first under pressure.
        for (size_t K = 0; K < Probes.size(); ++K) {
          FingerprintCache::KernelSlot &Slot = Entry->Kernels[K];
          if (!Slot.State && !Slot.Paid && Probes[K].State) {
            Slot.State = std::move(Probes[K].State);
            Slot.PreprocessMs = Probes[K].ModeledPreprocessMs;
            Slot.IterationMs = Probes[K].IterationMs;
            Grew = true;
          }
        }
      }
      if (Grew)
        Cache.noteMutation(Entry);
    }
    size_t Best = 0;
    for (size_t K = 1; K < Oracle.size(); ++K)
      if (Oracle[K].totalMs(Iterations) < Oracle[Best].totalMs(Iterations))
        Best = K;
    V.OracleChecked = true;
    V.OracleKernelIndex = Best;
    V.Mispredicted = Best != Chosen;
    V.RegretMs =
        Oracle[Chosen].totalMs(Iterations) - Oracle[Best].totalMs(Iterations);
  } catch (const InjectedFaultError &) {
    // Verification skipped; the response itself is unaffected.
  } catch (const std::bad_alloc &) {
  }
  return V;
}

ServerStats SeerServer::stats() const {
  ServerStats S;
  // Each request commits Requests before CacheHits and GatheredRoutes, so
  // one finishing between these loads can make the later loads run ahead
  // of Requests: clamp them, so the derived differences never wrap.
  S.Requests = Requests.value();
  S.CacheHits = std::min(CacheHits.value(), S.Requests);
  S.CacheMisses = S.Requests - S.CacheHits;
  S.GatheredRoutes = std::min(GatheredRoutes.value(), S.Requests);
  S.KnownRoutes = S.Requests - S.GatheredRoutes;
  S.Executions = Executions.value();
  S.PaidPreprocesses = PaidPreprocesses.value();
  S.AmortizedPreprocesses = AmortizedPreprocesses.value();
  S.PlansBuilt = PlansBuilt.value();
  S.PlansReused = PlansReused.value();
  S.BatchRequests = BatchRequests.value();
  S.BatchedOperands = BatchedOperands.value();
  S.OracleChecks = OracleChecks.value();
  S.Mispredictions = Mispredictions.value();
  S.SavedCollectionMs = static_cast<double>(SavedCollectionNs.value()) / 1e6;
  S.SavedPreprocessMs = static_cast<double>(SavedPreprocessNs.value()) / 1e6;
  S.DeadlineExceeded = DeadlineExceededCount.value();
  S.DegradedServes = DegradedServes.value();
  S.BreakerOpens =
      SelectBreaker.opens() + PrepareBreaker.opens() + RunBreaker.opens();
  const FingerprintCache::Stats Residency = Cache.stats();
  S.CachedMatrices = Residency.Entries;
  S.CacheBudgetBytes = Cache.budgetBytes();
  S.BytesCached = Residency.BytesCached;
  S.BytesEvicted = Residency.BytesEvicted;
  S.Evictions = Residency.Evictions;
  S.PartialEvictions = Residency.PartialEvictions;
  S.Reanalyses = Residency.Reanalyses;
  S.PinnedMatrices = Residency.PinnedEntries;
  // Releases first: a register+release pair completing between the two
  // loads can then only make the gauge transiently read high, never drive
  // Releases past the Registrations snapshot and wrap the unsigned
  // subtraction (every release is preceded by its registration); the
  // clamp below covers reordering of the relaxed loads themselves.
  const uint64_t Released = Releases.value();
  S.Registrations = Registrations.value();
  S.ActiveHandles =
      S.Registrations >= Released ? S.Registrations - Released : 0;
  S.LatencySamples = Latency.samples();
  S.MeanLatencyUs = Latency.mean();
  S.P50LatencyUs = Latency.percentile(0.50);
  S.P99LatencyUs = Latency.percentile(0.99);

  // Publish the snapshot's derived ratios and externally-owned levels
  // (cache residency, breakers, fault injector) into the registry's
  // gauges, so a Prometheus/JSONL export taken after stats() carries the
  // complete ServerStats picture from the one source of truth.
  CacheMissesGauge.set(static_cast<double>(S.CacheMisses));
  KnownRoutesGauge.set(static_cast<double>(S.KnownRoutes));
  HitRateGauge.set(S.hitRate());
  MispredictRateGauge.set(S.mispredictRate());
  CachedMatricesGauge.set(static_cast<double>(S.CachedMatrices));
  CacheBudgetBytesGauge.set(static_cast<double>(S.CacheBudgetBytes));
  BytesCachedGauge.set(static_cast<double>(S.BytesCached));
  BytesEvictedGauge.set(static_cast<double>(S.BytesEvicted));
  EvictionsGauge.set(static_cast<double>(S.Evictions));
  PartialEvictionsGauge.set(static_cast<double>(S.PartialEvictions));
  ReanalysesGauge.set(static_cast<double>(S.Reanalyses));
  PinnedMatricesGauge.set(static_cast<double>(S.PinnedMatrices));
  ActiveHandlesGauge.set(static_cast<double>(S.ActiveHandles));
  // Process-wide cumulative count (the injector predates and outlives any
  // one server); resetStats() leaves it alone.
  FaultsInjectedGauge.set(
      static_cast<double>(FaultInjector::instance().injectedCount()));
  BreakerOpensGauge.set(static_cast<double>(S.BreakerOpens));
  return S;
}

void SeerServer::resetStats() {
  Requests.reset();
  CacheHits.reset();
  GatheredRoutes.reset();
  Executions.reset();
  PaidPreprocesses.reset();
  AmortizedPreprocesses.reset();
  PlansBuilt.reset();
  PlansReused.reset();
  BatchRequests.reset();
  BatchedOperands.reset();
  OracleChecks.reset();
  Mispredictions.reset();
  DeadlineExceededCount.reset();
  DegradedServes.reset();
  SavedCollectionNs.reset();
  SavedPreprocessNs.reset();
  NetConnections.reset();
  NetRequests.reset();
  NetProtocolErrors.reset();
  // Breaker opens and the process-wide injected-fault counter are
  // cumulative by design and survive the reset, like the cache residency
  // counters. The stage and cost-model histograms are diagnostic rather
  // than request-wave telemetry and survive too.
  Latency.reset();
}
