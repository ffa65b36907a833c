//===- serve/SeerServer.h - Concurrent kernel-selection service -----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running form of the Fig. 3 runtime: a `SeerServer` loads the
/// trained model triple once and answers selection/execution requests
/// from any number of concurrent client threads. Every request is served
/// by the shared `Planner` pipeline (core/ExecutionPlan.h) — the same
/// stages the one-shot `SeerRuntime` drives — but where the one-shot
/// path pays feature collection and kernel preprocessing on every call,
/// the server caches prepared plans and amortizes both across a session:
///
///  - a content-addressed fingerprint cache recognizes repeat matrices
///    and serves their selection from cached features at zero collection
///    cost (bit-identical kernel choice — the cached features are exactly
///    what collection would recompute);
///  - a per-(matrix, kernel) ledger charges each kernel's one-time
///    preprocessing exactly once, shifting the Sec. IV-E break-even from
///    per-request iteration counts to session totals;
///  - online feedback compares selections against a cached noise-free
///    oracle on demand and aggregates mispredictions, hit rates and
///    latency percentiles into a `ServerStats` snapshot.
///
/// Clients serve *registered matrices*: registerMatrix() pays
/// fingerprinting and analysis once and pins the cache entry for the
/// registration's lifetime; handleRegistered() and
/// executeBatchRegistered() then serve selection/execution with no
/// per-request hashing or cache lookup at all, both through one request
/// pipeline in which a request is a set of operands. The ergonomic,
/// Status-typed client surface over this (sessions, opaque handles,
/// async submission) lives in api/SeerService.h.
///
/// Thread safety: every request entry point may be called concurrently
/// from any number of threads. All shared state is behind the sharded
/// cache's locks or atomics; model inference itself is read-only. The
/// server owns no mutex of its own, so the capability annotations
/// (support/ThreadAnnotations.h) live in the structures it borrows: the
/// cache's per-entry mutex guards the amortization ledger and oracle this
/// file mutates (see the MutexLock sections in SeerServer.cpp), and the
/// counters/gauges here are lock-free atomics checked by TSan, not by
/// capability analysis.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SERVE_SEERSERVER_H
#define SEER_SERVE_SEERSERVER_H

#include "api/Status.h"
#include "core/ExecutionPlan.h"
#include "serve/FingerprintCache.h"
#include "serve/ServeTypes.h"
#include "sim/GpuSimulator.h"
#include "support/CircuitBreaker.h"
#include "support/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace seer {

/// Server construction parameters.
struct ServerConfig {
  /// Device the simulator models.
  DeviceModel Device = DeviceModel::mi100();
  /// Shards of the fingerprint cache (more shards, less lock contention).
  size_t CacheShards = 16;
  /// Byte budget of the fingerprint cache (0 = unbounded). Each shard
  /// enforces an equal slice, so the accounted total never exceeds the
  /// budget; see serve/FingerprintCache.h for the eviction policy and
  /// what eviction does to the amortization ledger.
  size_t CacheBudgetBytes = 0;
  /// Circuit breakers over the pipeline stages (select / prepare / run):
  /// this many *consecutive* failures open a stage's breaker, after which
  /// requests skip the stage and degrade immediately until a half-open
  /// probe succeeds (support/CircuitBreaker.h). 0 disables the breakers.
  uint32_t BreakerThreshold = 8;
  /// Denied requests an open breaker absorbs before letting one probe
  /// through (counted in requests, not wall-clock, for determinism).
  uint32_t BreakerCooldown = 16;
};

/// One matrix registered with a SeerServer (serving API v2): the owned
/// matrix storage, its content fingerprint, and the pinned cache entry
/// whose analysis registration paid for. Obtained from registerMatrix(),
/// returned through releaseMatrix(). Copyable — every copy shares the
/// same pin, which is released exactly once, by releaseMatrix.
struct RegisteredMatrix {
  std::shared_ptr<const CsrMatrix> Matrix;
  uint64_t Fingerprint = 0;
  std::shared_ptr<FingerprintCache::Entry> Entry;
  /// numCols() ones, the operand of executes that bring none.
  std::shared_ptr<const std::vector<double>> Ones;
  /// True when registration found the analysis already cached (a repeat
  /// matrix registered by an earlier or concurrent client).
  bool AnalysisReused = false;

  bool valid() const { return Matrix && Entry; }
};

/// A concurrent kernel-selection service over one trained model triple.
class SeerServer {
public:
  /// Compiles \p Models into its planner; builds the kernel registry and
  /// the simulator for Config.Device internally so the server is
  /// self-contained (load models once, serve forever).
  explicit SeerServer(SeerModels Models, ServerConfig Config = ServerConfig());

  SeerServer(const SeerServer &) = delete;
  SeerServer &operator=(const SeerServer &) = delete;

  /// Registers \p Matrix for handle-based serving: fingerprints it and
  /// runs (or reuses) the single-pass analysis exactly once, and pins the
  /// cache entry so eviction cannot drop it while the registration is
  /// live. Thread-safe. The returned RegisteredMatrix must eventually be
  /// given back to releaseMatrix().
  RegisteredMatrix registerMatrix(std::shared_ptr<const CsrMatrix> Matrix);

  /// Releases \p Registered's pin. Requests already in flight against it
  /// are unaffected (they hold the entry alive); the entry just becomes an
  /// ordinary eviction candidate again.
  void releaseMatrix(const RegisteredMatrix &Registered);

  /// Serves one request against a registered matrix. No fingerprinting,
  /// no cache lookup — the per-request cost registration amortized away.
  /// Feature collection is never re-charged (the analysis was paid at
  /// registration, so CacheHit is always true in the response).
  /// Thread-safe.
  ///
  /// Failure semantics: DEADLINE_EXCEEDED when Options.Deadline expired
  /// at admission, after selection or before the operand's run; a
  /// *retryable* injected/transient stage failure (UNAVAILABLE,
  /// RESOURCE_EXHAUSTED) propagates typed so the session layer's
  /// RetryPolicy can re-issue; any *terminal* stage failure (or an open
  /// circuit breaker) degrades to the deterministic baseline CSR kernel
  /// instead — the response comes back OK with Degraded set, never a
  /// crash.
  Expected<ServeResponse> handleRegistered(const RegisteredMatrix &Registered,
                                           const ServeOptions &Options);

  /// Executes one ExecutionPlan over \p Operands: routing, selection and
  /// preprocessing are charged once for the batch, then every operand
  /// runs \p Iterations SpMVs against the shared prepared plan. Each
  /// operand must have numCols() elements; Operands must be non-empty.
  /// Bit-identical per operand to issuing the same executions one by one:
  /// both entry points drive the one request pipeline, a single execute
  /// being a batch of one. Thread-safe; concurrent batches share the
  /// cached plan through the same ledger as single requests. Same failure
  /// semantics as handleRegistered(), with \p Deadline (min() = none)
  /// checked before every operand's run.
  Expected<BatchResponse> executeBatchRegistered(
      const RegisteredMatrix &Registered, uint32_t Iterations,
      const std::vector<std::vector<double>> &Operands,
      std::chrono::steady_clock::time_point Deadline =
          std::chrono::steady_clock::time_point::min());

  /// Telemetry snapshot, assembled from the metrics registry (which is
  /// the single source of truth — ServerStats is a *view*). The counters
  /// are mutually consistent once all in-flight requests have drained
  /// (each request commits its counters before returning); under load
  /// the derived counts are clamped, so a snapshot taken while requests
  /// commit never reports more hits or gathered routes than requests,
  /// and never wraps their differences below zero. Snapshotting
  /// also refreshes the registry's derived and residency gauges, so an
  /// export taken after stats() reflects the same moment.
  ServerStats stats() const;

  /// This server's metrics registry: every ServerStats field is read
  /// from here, alongside the per-stage wall-time and cost-model-error
  /// histograms that have no ServerStats slot. The session layer (api/SeerService.h) registers
  /// its counters here too, so one export covers the whole stack.
  MetricsRegistry &metrics() { return MetricsReg; }
  const MetricsRegistry &metrics() const { return MetricsReg; }

  /// Zeroes all telemetry (not the cache). The residency counters
  /// (bytesCached, evictions, ...) describe the cache itself and survive
  /// the reset with it. Call between request waves.
  void resetStats();

  const KernelRegistry &registry() const { return Registry; }

  /// Registry index of the degraded-fallback kernel: plain thread-mapped
  /// CSR ("CSR,TM"), which needs no model, no preprocessing and no cached
  /// state — the deterministic floor every failure can land on.
  size_t baselineKernel() const { return Baseline; }

private:
  /// One request as the pipeline serves it: a set of operands against one
  /// registration — none for a select, one for an execute, N for a batch.
  struct Job {
    uint32_t Iterations = 1;
    /// Count operands, and one product slot for each.
    const std::vector<double> *Operands = nullptr;
    std::vector<double> *Products = nullptr;
    size_t Count = 0;
    /// A batch: the serve.batch span, the batch.execute fault site, the
    /// batch counters and "mid-batch" deadline messages.
    bool Batch = false;
    /// Where an oracle-verified execute's verdict goes; null skips the
    /// oracle.
    OracleVerdict *Verdict = nullptr;
    std::chrono::steady_clock::time_point Deadline =
        std::chrono::steady_clock::time_point::min();
  };

  /// The one request pipeline behind both entry points: select, prepare
  /// once, run every operand, fall back to the baseline kernel when a
  /// stage degrades, and commit the request's telemetry. Fills \p R and
  /// the job's product slots, or returns the request's typed failure.
  Status runPipeline(const RegisteredMatrix &Registered, const Job &J,
                     ResponseBase &R);

  /// The oracle stage: the noise-free best kernel for \p A at
  /// \p Iterations, computed once per fingerprint and cached in \p Entry,
  /// against the \p Chosen kernel. Best-effort: a fault leaves the verdict
  /// unchecked and the response unaffected.
  OracleVerdict verifyOracle(
      const AnalyzedMatrix &A,
      const std::shared_ptr<FingerprintCache::Entry> &Entry,
      uint32_t Iterations, size_t Chosen);

  /// Finishes a request that failed with \p Error: records latency (and
  /// the deadline counter when applicable) and returns the typed status.
  Status finishError(Status Error,
                     std::chrono::steady_clock::time_point Start);

  /// The prepare() stage against the entry's plan cache: rebuilds \p Plan
  /// around the cached prepared fragment for its kernel (charging the
  /// plan only if the fragment was never paid), or prepares fresh outside
  /// the entry lock and publishes the fragment. \returns true when the
  /// plan was rebuilt around a cached state (plan reuse), false when this
  /// request built it. Preserves charge-once-per-residency: eviction
  /// drops fragments with the entry, and the next residency re-pays.
  bool preparePlan(ExecutionPlan &Plan, const AnalyzedMatrix &A,
                   const std::shared_ptr<FingerprintCache::Entry> &E);

  /// Declaration order is load-bearing: Pipeline holds references to
  /// Registry and Sim.
  KernelRegistry Registry;
  GpuSimulator Sim;
  Planner Pipeline;
  FingerprintCache Cache;
  /// Registry index of the degraded-fallback kernel (see baselineKernel()).
  size_t Baseline = 0;

  /// Per-stage circuit breakers (see ServerConfig::BreakerThreshold).
  CircuitBreaker SelectBreaker;
  CircuitBreaker PrepareBreaker;
  CircuitBreaker RunBreaker;

  /// Request-id allocator for span attribution; ids are only minted when
  /// the SpanRecorder is armed (0 = unattributed). Not telemetry — never
  /// exported, never reset.
  std::atomic<uint64_t> NextRequestId{0};

  // Telemetry. The registry owns every counter and histogram; the
  // references below are bound once at construction (declaration order
  // is load-bearing: MetricsReg first), and incrementing one is the same
  // relaxed fetch_add the former std::atomic members cost. stats()
  // assembles the ServerStats view from these and refreshes the derived
  // gauges; each request's increments are committed before its entry
  // point returns.
  MetricsRegistry MetricsReg;
  Counter &Requests = MetricsReg.counter("seer_requests_total");
  Counter &Registrations = MetricsReg.counter("seer_registrations_total");
  Counter &Releases = MetricsReg.counter("seer_releases_total");
  Counter &CacheHits = MetricsReg.counter("seer_cache_hits_total");
  Counter &GatheredRoutes = MetricsReg.counter("seer_gathered_routes_total");
  Counter &Executions = MetricsReg.counter("seer_executions_total");
  Counter &PaidPreprocesses =
      MetricsReg.counter("seer_paid_preprocesses_total");
  Counter &AmortizedPreprocesses =
      MetricsReg.counter("seer_amortized_preprocesses_total");
  Counter &PlansBuilt = MetricsReg.counter("seer_plans_built_total");
  Counter &PlansReused = MetricsReg.counter("seer_plans_reused_total");
  Counter &BatchRequests = MetricsReg.counter("seer_batch_requests_total");
  Counter &BatchedOperands =
      MetricsReg.counter("seer_batched_operands_total");
  Counter &OracleChecks = MetricsReg.counter("seer_oracle_checks_total");
  Counter &Mispredictions = MetricsReg.counter("seer_mispredictions_total");
  Counter &DeadlineExceededCount =
      MetricsReg.counter("seer_deadline_exceeded_total");
  Counter &DegradedServes = MetricsReg.counter("seer_degraded_serves_total");
  /// Networked serving (src/net). Registered here — not only in
  /// NetServer — so every exposition and stat snapshot carries them; a
  /// NetServer given this registry increments these same cells by name.
  Counter &NetConnections = MetricsReg.counter("seer_net_connections_total");
  Counter &NetRequests = MetricsReg.counter("seer_net_requests_total");
  Counter &NetProtocolErrors =
      MetricsReg.counter("seer_net_protocol_errors_total");
  /// Saved modeled milliseconds, accumulated as integer nanoseconds so the
  /// additions stay atomic without a mutex.
  Counter &SavedCollectionNs =
      MetricsReg.counter("seer_saved_collection_ns_total");
  Counter &SavedPreprocessNs =
      MetricsReg.counter("seer_saved_preprocess_ns_total");
  /// End-to-end service latency (the ServerStats summary derives from
  /// this one histogram).
  Histogram &Latency = MetricsReg.histogram("seer_latency_us");

  // Per-stage wall time, microseconds. Recorded only while the
  // SpanRecorder is armed: the clock reads that feed them would
  // otherwise tax the ~0.1us disarmed select path.
  Histogram &StageSelectUs = MetricsReg.histogram("seer_stage_select_us");
  Histogram &StagePrepareUs = MetricsReg.histogram("seer_stage_prepare_us");
  Histogram &StageRunUs = MetricsReg.histogram("seer_stage_run_us");
  Histogram &StageOracleUs = MetricsReg.histogram("seer_stage_oracle_us");
  Histogram &CacheProbeUs = MetricsReg.histogram("seer_cache_probe_us");

  // Cost-model error per stage: actual wall time over modeled cost
  // (dimensionless; 1.0 = the model nailed it). Armed-only, like the
  // stage timers, and recorded only when the stage really ran with a
  // non-zero modeled cost.
  Histogram &CostErrorSelect =
      MetricsReg.histogram("seer_cost_model_error_select");
  Histogram &CostErrorPrepare =
      MetricsReg.histogram("seer_cost_model_error_prepare");
  Histogram &CostErrorRun = MetricsReg.histogram("seer_cost_model_error_run");

  // Derived ratios and residency levels, published by stats() so exports
  // carry the full ServerStats picture (sources: the cache's own
  // counters, the breakers, the process-wide fault injector).
  Gauge &CacheMissesGauge = MetricsReg.gauge("seer_cache_misses");
  Gauge &KnownRoutesGauge = MetricsReg.gauge("seer_known_routes");
  Gauge &HitRateGauge = MetricsReg.gauge("seer_hit_rate");
  Gauge &MispredictRateGauge = MetricsReg.gauge("seer_mispredict_rate");
  Gauge &CachedMatricesGauge = MetricsReg.gauge("seer_cached_matrices");
  Gauge &CacheBudgetBytesGauge = MetricsReg.gauge("seer_cache_budget_bytes");
  Gauge &BytesCachedGauge = MetricsReg.gauge("seer_bytes_cached");
  Gauge &BytesEvictedGauge = MetricsReg.gauge("seer_bytes_evicted");
  Gauge &EvictionsGauge = MetricsReg.gauge("seer_evictions");
  Gauge &PartialEvictionsGauge = MetricsReg.gauge("seer_partial_evictions");
  Gauge &ReanalysesGauge = MetricsReg.gauge("seer_reanalyses");
  Gauge &PinnedMatricesGauge = MetricsReg.gauge("seer_pinned_matrices");
  Gauge &ActiveHandlesGauge = MetricsReg.gauge("seer_active_handles");
  Gauge &FaultsInjectedGauge = MetricsReg.gauge("seer_faults_injected");
  Gauge &BreakerOpensGauge = MetricsReg.gauge("seer_breaker_opens");
};

} // namespace seer

#endif // SEER_SERVE_SEERSERVER_H
