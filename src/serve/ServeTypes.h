//===- serve/ServeTypes.h - Request/response API of the serving layer -----===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response structs and telemetry types of the Seer serving
/// layer. `ServeOptions` asks the server to select (and optionally
/// execute) a kernel for one registered matrix; the `ServeResponse`
/// carries the selection plus the costs that were actually *charged*
/// for this request — which is where serving differs from the one-shot
/// runtime: registration pays the analysis once, so no request is
/// charged feature collection, and an amortized kernel charges zero
/// preprocessing cost, because an earlier request in the session paid
/// it (the paper's multi-iteration amortization of Sec. IV-E, extended
/// across requests).
///
/// `ServerStats` is the typed telemetry snapshot read from the metrics
/// registry: request/hit/route counters, online-feedback misprediction
/// counts, cache residency, and service-latency percentiles.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SERVE_SERVETYPES_H
#define SEER_SERVE_SERVETYPES_H

#include "core/SeerRuntime.h"
#include "support/Metrics.h"

#include <chrono>
#include <cstdint>
#include <vector>

namespace seer {

/// Per-request knobs of SeerServer::handleRegistered (the matrix itself
/// is the registration the request is served against).
struct ServeOptions {
  /// Expected SpMV iteration count (Sec. IV-E break-even axis).
  uint32_t Iterations = 1;
  /// Also execute the chosen kernel (preprocess + run) and return Y.
  bool Execute = false;
  /// With Execute: benchmark every registry kernel for this matrix (the
  /// oracle) and record whether the selection was a misprediction. The
  /// oracle measurements are cached per fingerprint, so repeat matrices
  /// verify for free.
  bool VerifyOracle = false;
  /// SpMV operand; when null the server uses an all-ones vector of the
  /// matrix's column count. Borrowed for the duration of the call only.
  const std::vector<double> *Operand = nullptr;
  /// Absolute deadline; time_point::min() (the default) means none. The
  /// server checks it when the request reaches the pipeline (so queue
  /// wait counts against it) and again between the selection and
  /// execution stages, answering DEADLINE_EXCEEDED instead of running
  /// expired work to completion. Computed from Request::DeadlineMs at
  /// submission time by the session layer.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::min();

  bool hasDeadline() const {
    return Deadline != std::chrono::steady_clock::time_point::min();
  }
};

/// The server's answer. Cost fields are *charged* costs for this request,
/// not intrinsic ones: cached work is charged at zero. The Modeled*
/// fields carry the intrinsic one-shot costs regardless of charging, so
/// clients (seer-predict, the examples) can report the Fig. 3 breakdown
/// even when the serving layer amortized everything away.
struct ServeResponse {
  /// Selection outcome. On a cache hit FeatureCollectionMs is 0 even when
  /// the gathered model was used — the features came from the cache.
  SelectionResult Selection;
  /// Intrinsic modeled collection cost of the gathered route (0 on the
  /// known route), whether or not this request was charged for it.
  double ModeledCollectionMs = 0.0;
  /// Content fingerprint of the request matrix.
  uint64_t Fingerprint = 0;
  /// True when the matrix's features were already cached.
  bool CacheHit = false;
  /// Iterations the costs below are quoted for.
  uint32_t Iterations = 1;

  /// Execution results (valid when Executed).
  bool Executed = false;
  /// True when this (fingerprint, kernel) pair's preprocessing was paid by
  /// an earlier request; PreprocessMs is then 0.
  bool PreprocessAmortized = false;
  /// Charged one-time preprocessing cost of the chosen kernel.
  double PreprocessMs = 0.0;
  /// Intrinsic modeled preprocessing cost (equal to PreprocessMs unless
  /// amortized; 0 when not executed).
  double ModeledPreprocessMs = 0.0;
  /// Per-iteration runtime of the chosen kernel.
  double IterationMs = 0.0;
  /// The product vector (one iteration's y = A * x).
  std::vector<double> Y;

  /// Online feedback (valid when OracleChecked).
  bool OracleChecked = false;
  /// Fastest kernel by noise-free simulated total at this iteration count.
  size_t OracleKernelIndex = 0;
  /// True when the selection differs from the oracle.
  bool Mispredicted = false;
  /// Modeled regret: chosen total minus oracle total, ms (>= 0).
  double RegretMs = 0.0;

  /// Host wall-clock time spent serving the request, microseconds.
  double ServiceMicros = 0.0;

  /// True when a pipeline-stage failure (or an open circuit breaker) was
  /// absorbed by falling back to the deterministic baseline CSR kernel:
  /// Selection names the baseline, no preprocessing is charged, and Y —
  /// when executed — is the baseline kernel's exact product (bit-identical
  /// across runs, though generally not to the unfaulted selection's Y).
  /// Costs and oracle fields describe the fallback, not the model's pick.
  bool Degraded = false;

  /// Charged end-to-end cost at the quoted iteration count.
  double totalMs() const {
    return Selection.overheadMs() + PreprocessMs + Iterations * IterationMs;
  }
};

/// The server's answer to a batched execution: one ExecutionPlan —
/// routing, selection and preprocessing charged once — run over N
/// independent operands. Per-operand work is only the SpMV iterations,
/// which is the point of batching (the batched-charge rule:
/// selection overhead and preprocessing per batch, iterations per
/// operand).
struct BatchResponse {
  /// Selection outcome, charged once for the whole batch.
  SelectionResult Selection;
  /// Intrinsic modeled collection cost (see ServeResponse).
  double ModeledCollectionMs = 0.0;
  /// Content fingerprint of the batch's matrix.
  uint64_t Fingerprint = 0;
  /// True when the matrix's features were already cached (always, on the
  /// registered-handle path that batches require).
  bool CacheHit = false;
  /// Iterations each operand was executed for.
  uint32_t Iterations = 1;
  /// True when preprocessing was paid by an earlier plan; charged once
  /// for the batch otherwise.
  bool PreprocessAmortized = false;
  /// Charged one-time preprocessing cost (once per batch).
  double PreprocessMs = 0.0;
  /// Intrinsic modeled preprocessing cost.
  double ModeledPreprocessMs = 0.0;
  /// Per-iteration runtime of the chosen kernel (identical across
  /// operands: the schedule depends on the matrix, not the operand).
  double IterationMs = 0.0;
  /// One product vector per operand, in operand order.
  std::vector<std::vector<double>> Y;
  /// Host wall-clock time spent serving the whole batch, microseconds.
  double ServiceMicros = 0.0;
  /// True when the whole batch fell back to the baseline CSR kernel after
  /// a pipeline-stage failure (see ServeResponse::Degraded).
  bool Degraded = false;

  size_t operands() const { return Y.size(); }

  /// Charged end-to-end cost of the batch: overhead + preprocessing once,
  /// iterations per operand.
  double totalMs() const {
    return Selection.overheadMs() + PreprocessMs +
           static_cast<double>(operands()) * Iterations * IterationMs;
  }
};

/// Bounded, lock-free latency recorder: the generic geometric
/// `Histogram` from support/Metrics.h under its historical
/// microsecond-flavored interface (0.01 us .. ~1e8 us range). Kept as a
/// distinct type so serving code reads in latency vocabulary; all
/// mechanics — bucket layout, rejection of non-finite samples, the
/// interpolated percentile estimate — live in the one Histogram
/// implementation the MetricsRegistry exports.
class LatencyHistogram : public Histogram {
public:
  /// Mean recorded latency, microseconds (0 with no samples).
  double meanMicros() const { return mean(); }

  /// Approximate \p P-quantile (0 < P < 1) in microseconds (see
  /// Histogram::percentile). Returns 0 with no samples.
  double percentileMicros(double P) const { return percentile(P); }
};

/// Monotone telemetry snapshot of a SeerServer.
struct ServerStats {
  /// Requests handled (== CacheHits + CacheMisses
  ///                  == KnownRoutes + GatheredRoutes).
  uint64_t Requests = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Requests answered from the known-feature model / the gathered model.
  uint64_t KnownRoutes = 0;
  uint64_t GatheredRoutes = 0;
  /// Operand executions (a batch of N operands counts N).
  uint64_t Executions = 0;
  /// Executions that paid preprocessing / reused an earlier payment
  /// (counted once per request or batch, not per operand).
  uint64_t PaidPreprocesses = 0;
  uint64_t AmortizedPreprocesses = 0;
  /// Plan-cache behavior: execution plans whose prepare() stage ran
  /// fresh for the request/batch, vs. plans rebuilt around a prepared
  /// state already cached per (fingerprint, kernel). Selection-only
  /// requests build no prepared plan and move neither counter.
  uint64_t PlansBuilt = 0;
  uint64_t PlansReused = 0;
  /// Batched execution: batches served and operands executed in them.
  uint64_t BatchRequests = 0;
  uint64_t BatchedOperands = 0;
  /// Online feedback: oracle comparisons run and mispredictions seen.
  uint64_t OracleChecks = 0;
  uint64_t Mispredictions = 0;
  /// Modeled costs the cache saved: collection skipped on hits and
  /// preprocessing skipped by the amortization ledger.
  double SavedCollectionMs = 0.0;
  double SavedPreprocessMs = 0.0;
  /// Distinct matrices (fingerprints) currently cached.
  uint64_t CachedMatrices = 0;
  /// Byte-budgeted residency (see serve/FingerprintCache.h). Budget 0
  /// means unbounded; the gauges/counters below are then mostly zero.
  uint64_t CacheBudgetBytes = 0;
  /// Accounted resident bytes of the fingerprint cache right now.
  uint64_t BytesCached = 0;
  /// Cumulative accounted bytes freed by eviction.
  uint64_t BytesEvicted = 0;
  /// Whole entries evicted (their preprocessing is re-charged on return).
  uint64_t Evictions = 0;
  /// Oracle/unpaid-state sheds that kept the entry resident.
  uint64_t PartialEvictions = 0;
  /// Misses on matrices that were cached before (deterministic, hence
  /// bit-identical, re-analysis).
  uint64_t Reanalyses = 0;
  /// Entries pinned by live registrations (serving API v2): whole-entry
  /// eviction skips them until their handles are released.
  uint64_t PinnedMatrices = 0;
  /// Session-layer counters: matrices registered, handles currently
  /// open, async submissions accepted and rejected by admission-queue
  /// backpressure.
  uint64_t Registrations = 0;
  uint64_t ActiveHandles = 0;
  uint64_t AsyncAccepted = 0;
  uint64_t AsyncRejected = 0;
  /// Failure semantics (PR 6). Requests rejected because their deadline
  /// expired before or between pipeline stages.
  uint64_t DeadlineExceeded = 0;
  /// Session-layer retry accounting: individual retry attempts made, and
  /// requests whose retry budget ran out with the failure still standing.
  uint64_t Retries = 0;
  uint64_t RetriesExhausted = 0;
  /// Requests answered by the degraded baseline-kernel fallback.
  uint64_t DegradedServes = 0;
  /// Circuit-breaker open transitions across the pipeline stages.
  uint64_t BreakerOpens = 0;
  /// Service-latency summary, microseconds.
  uint64_t LatencySamples = 0;
  double MeanLatencyUs = 0.0;
  double P50LatencyUs = 0.0;
  double P99LatencyUs = 0.0;

  /// Misprediction rate over oracle-checked requests (0 when none).
  double mispredictRate() const {
    return OracleChecks ? static_cast<double>(Mispredictions) /
                              static_cast<double>(OracleChecks)
                        : 0.0;
  }
  /// Cache hit rate over all requests (0 when none).
  double hitRate() const {
    return Requests
               ? static_cast<double>(CacheHits) / static_cast<double>(Requests)
               : 0.0;
  }
};

} // namespace seer

#endif // SEER_SERVE_SERVETYPES_H
