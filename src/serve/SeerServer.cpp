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

bool deadlineExpired(std::chrono::steady_clock::time_point Deadline) {
  return Deadline != std::chrono::steady_clock::time_point::min() &&
         std::chrono::steady_clock::now() >= Deadline;
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

SpmvRun SeerServer::runBaseline(const CsrMatrix &M, const MatrixStats &Stats,
                                const std::vector<double> &X) const {
  // Plain thread-mapped CSR: no preprocessing state, no Planner stages,
  // no fault sites — a failure in the degraded path itself would mean the
  // kernel registry is broken, which no fallback can paper over.
  return Registry.kernel(Baseline).run(M, Stats, /*State=*/nullptr, X, Sim);
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
                             const ServeOptions &Request) {
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
  ScopedSpan RequestSpan(spanname::Serve, RequestId);

  // Deadline checkpoint 1 — admission: queue wait (async submission) and
  // dequeue happen before this point, so an expired request is rejected
  // before any pipeline work runs on its behalf.
  if (deadlineExpired(Request.Deadline))
    return finishError(
        Status::deadlineExceeded("deadline expired before selection"), Start);

  ServeResponse R;
  R.Iterations = Request.Iterations ? Request.Iterations : 1;
  R.Fingerprint = Registered.Fingerprint;
  R.CacheHit = true; // registration paid the analysis

  // Stage: route + collect + select. Registration paid the analysis, so
  // the collection is never charged: the features come from the cache
  // and the chosen kernel is bit-identical to the uncached path. A
  // retryable failure propagates typed (the session layer's RetryPolicy
  // re-issues); a terminal failure or an open breaker degrades to the
  // baseline kernel.
  bool Degraded = false;
  Status SelectFailure = Status::okStatus();
  // Direct-initialized from the lambda so the hot path constructs the
  // plan in place (guaranteed elision) instead of default-constructing
  // and move-assigning — the select stage is on the sub-microsecond
  // budget the select-micro bench gate holds.
  ExecutionPlan Plan = [&]() -> ExecutionPlan {
    if (!SelectBreaker.allow()) {
      Degraded = true;
      return {};
    }
    SelectTimer.start();
    try {
      if (Status F = Faults.check(faultsite::PlanSelect); !F.ok())
        throw InjectedFaultError(std::move(F));
      ExecutionPlan P =
          Pipeline.plan(A, R.Iterations, CollectionCharging::Precollected);
      SelectBreaker.recordSuccess();
      SelectTimer.stop(P.Selection.overheadMs());
      return P;
    } catch (const InjectedFaultError &E) {
      SelectBreaker.recordFailure();
      if (E.status().isRetryable())
        SelectFailure = E.status();
      else
        Degraded = true;
      return {};
    } catch (const std::bad_alloc &) {
      SelectBreaker.recordFailure();
      Degraded = true;
      return {};
    }
  }();
  if (!SelectFailure.ok())
    return finishError(std::move(SelectFailure), Start);

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
  if (deadlineExpired(Request.Deadline))
    return finishError(
        Status::deadlineExceeded("deadline expired after selection"), Start);

  // The operand is shared by the planned and the degraded execution path.
  const std::vector<double> &X =
      Request.Operand ? *Request.Operand : *Registered.Ones;

  bool PlanReused = false;
  if (!Degraded && Request.Execute) {
    assert(X.size() == M.numCols() && "operand length mismatch");

    // Stage: prepare (the kernel.prepare fault site lives inside
    // Planner::prepare and surfaces here as InjectedFaultError).
    if (!PrepareBreaker.allow()) {
      Degraded = true;
    } else {
      PrepareTimer.start();
      try {
        PlanReused = preparePlan(Plan, A, Entry);
        PrepareBreaker.recordSuccess();
        // Cost-model error only when this request actually ran the
        // preprocess kernel — a ledger reuse's wall time measures a map
        // lookup, not the modeled preprocessing.
        PrepareTimer.stop((!PlanReused && !Plan.PreprocessAmortized)
                              ? Plan.ModeledPreprocessMs
                              : 0.0);
      } catch (const InjectedFaultError &E) {
        PrepareBreaker.recordFailure();
        if (E.status().isRetryable())
          return finishError(E.status(), Start);
        Degraded = true;
      } catch (const std::bad_alloc &) {
        PrepareBreaker.recordFailure();
        Degraded = true;
      }
    }

    if (!Degraded) {
      R.PreprocessAmortized = Plan.PreprocessAmortized;
      R.PreprocessMs = Plan.PreprocessMs;
      R.ModeledPreprocessMs = Plan.ModeledPreprocessMs;
      if (Plan.PreprocessAmortized)
        SavedPreprocessNs.add(msToNanos(Plan.ModeledPreprocessMs));

      // Stage: run.
      if (!RunBreaker.allow()) {
        Degraded = true;
      } else {
        RunTimer.start();
        try {
          SpmvRun Run = Pipeline.run(Plan, A, X);
          R.IterationMs = Run.Timing.TotalMs;
          R.Y = std::move(Run.Y);
          RunBreaker.recordSuccess();
          RunTimer.stop(R.IterationMs);
        } catch (const InjectedFaultError &E) {
          RunBreaker.recordFailure();
          if (E.status().isRetryable())
            return finishError(E.status(), Start);
          Degraded = true;
        } catch (const std::bad_alloc &) {
          RunBreaker.recordFailure();
          Degraded = true;
        }
      }
    }

    if (!Degraded && Request.VerifyOracle) {
      // Online feedback: compare against the noise-free oracle, computed
      // once per fingerprint and cached. Best-effort under injection: a
      // fault here (the serve.oracle site, or kernel.prepare firing
      // inside the probe sweep) skips verification and serves the
      // response unverified rather than failing or degrading it.
      OracleTimer.start();
      ScopedSpan OracleSpan(spanname::ServeOracle);
      try {
        if (Status F = Faults.check(faultsite::ServeOracle); !F.ok())
          throw InjectedFaultError(std::move(F));
        std::vector<KernelMeasurement> Oracle;
        {
          MutexLock Lock(Entry->Mutex);
          Oracle = Entry->Oracle;
        }
        if (Oracle.empty()) {
          // The oracle sweep prepares one plan per registry kernel and
          // reads the launch time each one simulated: no SpMV runs.
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
            // unpaid: a later execution of that kernel reuses the state
            // but still gets charged its one-time cost, and the
            // byte-budgeted cache sheds these first under pressure.
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
          if (Oracle[K].totalMs(R.Iterations) <
              Oracle[Best].totalMs(R.Iterations))
            Best = K;
        R.OracleChecked = true;
        R.OracleKernelIndex = Best;
        R.Mispredicted = Best != R.Selection.KernelIndex;
        R.RegretMs = Oracle[R.Selection.KernelIndex].totalMs(R.Iterations) -
                     Oracle[Best].totalMs(R.Iterations);
      } catch (const InjectedFaultError &) {
        // Verification skipped; the response itself is unaffected.
      } catch (const std::bad_alloc &) {
      }
      OracleTimer.stop();
    }
  }

  if (Degraded) {
    // Graceful degradation: answer with the deterministic baseline CSR
    // kernel. No model, no preprocessing, no cached state — and none of
    // the fault sites above — so the fallback works precisely when the
    // pipeline does not. The response is marked and charged as what it
    // is: a baseline serve (zero selection overhead, zero preprocessing).
    R.Degraded = true;
    R.Selection = SelectionResult();
    R.Selection.KernelIndex = Baseline;
    R.ModeledCollectionMs = 0.0;
    R.PreprocessAmortized = false;
    R.PreprocessMs = 0.0;
    R.ModeledPreprocessMs = 0.0;
    R.IterationMs = 0.0;
    R.Y.clear();
    R.OracleChecked = false;
    ScopedSpan DegradedSpan(spanname::ServeDegraded, RequestId);
    if (Request.Execute) {
      assert(X.size() == M.numCols() && "operand length mismatch");
      SpmvRun Run = runBaseline(M, Entry->Stats, X);
      R.IterationMs = Run.Timing.TotalMs;
      R.Y = std::move(Run.Y);
    }
  }
  R.Executed = Request.Execute;

  R.ServiceMicros = microsSince(Start);

  // Commit telemetry before returning so stats() is consistent once the
  // caller has its response.
  Requests.add();
  CacheHits.add();
  if (R.Selection.UsedGatheredModel)
    GatheredRoutes.add();
  if (R.Executed)
    Executions.add();
  if (R.Executed && !R.Degraded) {
    // The degraded path charges no preprocessing and builds no plan, so
    // it moves neither the amortization nor the plan-cache counters.
    (R.PreprocessAmortized ? AmortizedPreprocesses : PaidPreprocesses).add();
    (PlanReused ? PlansReused : PlansBuilt).add();
  }
  if (R.OracleChecked) {
    OracleChecks.add();
    if (R.Mispredicted)
      Mispredictions.add();
  }
  if (R.Degraded)
    DegradedServes.add();
  Latency.record(R.ServiceMicros);
  return R;
}

Expected<BatchResponse> SeerServer::executeBatchRegistered(
    const RegisteredMatrix &Registered, uint32_t Iterations,
    const std::vector<std::vector<double>> &Operands,
    std::chrono::steady_clock::time_point Deadline) {
  assert(Registered.valid() && "batch against an empty registration");
  assert(!Operands.empty() && "empty batch");
  const auto Start = std::chrono::steady_clock::now();
  const CsrMatrix &M = *Registered.Matrix;
  const AnalyzedMatrix A = Planner::adopt(M, Registered.Entry->Stats,
                                          Registered.Fingerprint);
  FaultInjector &Faults = FaultInjector::instance();

  // Observability (see handleRegistered): one request id for the batch, one
  // serve.batch span enclosing every stage span it spawns.
  const bool Obs = SpanRecorder::instance().armed();
  const uint64_t RequestId =
      Obs ? NextRequestId.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  StageTimer SelectTimer(Obs, StageSelectUs, &CostErrorSelect);
  StageTimer PrepareTimer(Obs, StagePrepareUs, &CostErrorPrepare);
  StageTimer RunTimer(Obs, StageRunUs, &CostErrorRun);
  ScopedRequestId IdScope(RequestId);
  ScopedSpan BatchSpan(spanname::ServeBatch, RequestId);
  BatchSpan.tag("operands", static_cast<double>(Operands.size()));

  if (deadlineExpired(Deadline))
    return finishError(
        Status::deadlineExceeded("deadline expired at batch admission"),
        Start);

  BatchResponse B;
  B.Iterations = Iterations ? Iterations : 1;
  B.Fingerprint = Registered.Fingerprint;
  B.CacheHit = true; // registration paid the analysis

  bool Degraded = false;
  try {
    if (Status F = Faults.check(faultsite::BatchExecute); !F.ok())
      throw InjectedFaultError(std::move(F));
  } catch (const InjectedFaultError &E) {
    if (E.status().isRetryable())
      return finishError(E.status(), Start);
    Degraded = true;
  } catch (const std::bad_alloc &) {
    Degraded = true;
  }

  // One plan for the whole batch: routing, selection and preprocessing
  // are charged once; each operand pays only its iterations. Stage
  // failures follow the single-request rules (typed when retryable,
  // degraded otherwise) applied once per batch.
  ExecutionPlan Plan;
  if (!Degraded) {
    if (!SelectBreaker.allow()) {
      Degraded = true;
    } else {
      SelectTimer.start();
      try {
        if (Status F = Faults.check(faultsite::PlanSelect); !F.ok())
          throw InjectedFaultError(std::move(F));
        Plan = Pipeline.plan(A, B.Iterations, CollectionCharging::Precollected);
        SelectBreaker.recordSuccess();
        SelectTimer.stop(Plan.Selection.overheadMs());
      } catch (const InjectedFaultError &E) {
        SelectBreaker.recordFailure();
        if (E.status().isRetryable())
          return finishError(E.status(), Start);
        Degraded = true;
      } catch (const std::bad_alloc &) {
        SelectBreaker.recordFailure();
        Degraded = true;
      }
    }
  }

  if (!Degraded) {
    B.Selection = Plan.Selection;
    B.ModeledCollectionMs = Plan.ModeledCollectionMs;
    if (Plan.Selection.UsedGatheredModel)
      SavedCollectionNs.add(msToNanos(Plan.ModeledCollectionMs));
  }

  if (deadlineExpired(Deadline))
    return finishError(
        Status::deadlineExceeded("deadline expired after batch selection"),
        Start);

  bool PlanReused = false;
  if (!Degraded) {
    if (!PrepareBreaker.allow()) {
      Degraded = true;
    } else {
      PrepareTimer.start();
      try {
        PlanReused = preparePlan(Plan, A, Registered.Entry);
        PrepareBreaker.recordSuccess();
        PrepareTimer.stop((!PlanReused && !Plan.PreprocessAmortized)
                              ? Plan.ModeledPreprocessMs
                              : 0.0);
      } catch (const InjectedFaultError &E) {
        PrepareBreaker.recordFailure();
        if (E.status().isRetryable())
          return finishError(E.status(), Start);
        Degraded = true;
      } catch (const std::bad_alloc &) {
        PrepareBreaker.recordFailure();
        Degraded = true;
      }
    }
  }

  if (!Degraded) {
    B.PreprocessAmortized = Plan.PreprocessAmortized;
    B.PreprocessMs = Plan.PreprocessMs;
    B.ModeledPreprocessMs = Plan.ModeledPreprocessMs;
    if (Plan.PreprocessAmortized)
      SavedPreprocessNs.add(msToNanos(Plan.ModeledPreprocessMs));

    B.Y.reserve(Operands.size());
    if (!RunBreaker.allow()) {
      Degraded = true;
    } else {
      RunTimer.start();
      try {
        for (const std::vector<double> &X : Operands) {
          // The per-operand deadline checkpoint: an expired batch stops
          // here instead of finishing its tail. Work already done is
          // discarded — the caller asked for the whole batch by a time,
          // not a prefix of it.
          if (deadlineExpired(Deadline))
            return finishError(Status::deadlineExceeded(
                                   "deadline expired mid-batch after " +
                                   std::to_string(B.Y.size()) + " of " +
                                   std::to_string(Operands.size()) +
                                   " operands"),
                               Start);
          assert(X.size() == M.numCols() && "operand length mismatch");
          SpmvRun Run = Pipeline.run(Plan, A, X);
          B.IterationMs = Run.Timing.TotalMs;
          B.Y.push_back(std::move(Run.Y));
        }
        RunBreaker.recordSuccess();
        // One wall sample for the whole operand loop; the modeled cost
        // is the per-operand run scaled by the batch size.
        RunTimer.stop(B.IterationMs * static_cast<double>(Operands.size()));
      } catch (const InjectedFaultError &E) {
        RunBreaker.recordFailure();
        if (E.status().isRetryable())
          return finishError(E.status(), Start);
        Degraded = true;
      } catch (const std::bad_alloc &) {
        RunBreaker.recordFailure();
        Degraded = true;
      }
    }
  }

  if (Degraded) {
    // The whole batch falls back to the baseline kernel: partial planned
    // results are discarded so every Y[k] comes from the same kernel
    // (the per-operand bit-identity contract).
    B.Degraded = true;
    B.Selection = SelectionResult();
    B.Selection.KernelIndex = Baseline;
    B.ModeledCollectionMs = 0.0;
    B.PreprocessAmortized = false;
    B.PreprocessMs = 0.0;
    B.ModeledPreprocessMs = 0.0;
    B.Y.clear();
    B.Y.reserve(Operands.size());
    ScopedSpan DegradedSpan(spanname::ServeDegraded, RequestId);
    for (const std::vector<double> &X : Operands) {
      if (deadlineExpired(Deadline))
        return finishError(
            Status::deadlineExceeded("deadline expired mid-batch (degraded)"),
            Start);
      assert(X.size() == M.numCols() && "operand length mismatch");
      SpmvRun Run = runBaseline(M, Registered.Entry->Stats, X);
      B.IterationMs = Run.Timing.TotalMs;
      B.Y.push_back(std::move(Run.Y));
    }
  }

  B.ServiceMicros = microsSince(Start);

  // Telemetry: a batch is one request (one hit, one route, one
  // preprocessing charge, one plan) executing N operands.
  Requests.add();
  CacheHits.add();
  if (B.Selection.UsedGatheredModel)
    GatheredRoutes.add();
  Executions.add(Operands.size());
  if (!B.Degraded) {
    (B.PreprocessAmortized ? AmortizedPreprocesses : PaidPreprocesses).add();
    (PlanReused ? PlansReused : PlansBuilt).add();
  } else {
    DegradedServes.add();
  }
  BatchRequests.add();
  BatchedOperands.add(Operands.size());
  Latency.record(B.ServiceMicros);
  return B;
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
