//===- api/SeerService.h - Session-based public serving API ---------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public facade of the Seer serving layer. A `SeerService` session
/// works in three steps:
///
///   1. `registerMatrix(MatrixInput) -> Expected<MatrixHandle>`
///      Ingests the matrix in whatever form the client holds it (CSR,
///      COO, ELL, a .mtx file, a generator spec), converts it to
///      canonical CSR, fingerprints it and runs the single-pass analysis
///      — each paid exactly once. The backing cache entry is pinned by
///      refcount: eviction cannot drop it while the handle is live.
///   2. `serve(Request)` / `select(h)` / `execute(h)` — synchronous
///      handle-based requests with none of the per-request hashing — or
///      `submit(Request) -> Expected<std::future<ServeResponse>>`, the
///      asynchronous path over a bounded admission queue on the
///      process-wide ThreadPool; a full queue rejects the submission
///      with RESOURCE_EXHAUSTED (backpressure), never blocks.
///   3. `release(MatrixHandle)` — ends the handle's lifetime. Requests
///      already admitted keep their registration alive (shared
///      ownership), so release() is always safe to call; *new* requests
///      on a released handle get a typed NOT_FOUND, never a crash.
///
/// All failures are reported as `Status` / `Expected<T>` (api/Status.h);
/// the service never exits the process and never returns a response for
/// a request it could not validate.
///
/// Thread safety: every method may be called concurrently from any
/// number of client threads, including register/release races on the
/// same content; the session map is a small mutex-guarded table and all
/// heavy state sits behind the server's sharded cache.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_API_SEERSERVICE_H
#define SEER_API_SEERSERVICE_H

#include "api/MatrixInput.h"
#include "api/Status.h"
#include "serve/RequestTrace.h"
#include "serve/SeerServer.h"
#include "support/ThreadAnnotations.h"

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

namespace seer {

/// An opaque handle to a registered matrix. Cheap to copy; valid from the
/// registerMatrix() that issued it until the matching release(). Handle
/// ids are never reused within a service.
struct MatrixHandle {
  uint64_t Id = 0;
  bool valid() const { return Id != 0; }
};

/// Deterministic bounded retry for transient failures. Applied by the
/// serve()/submit() wrappers to *retryable* Status codes only
/// (Status::isRetryable(): RESOURCE_EXHAUSTED, UNAVAILABLE) — terminal
/// failures and DEADLINE_EXCEEDED are never retried. The backoff is pure
/// exponential with no jitter, so a fault plan plus a policy yields the
/// same attempt sequence on every run.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retry.
  uint32_t MaxAttempts = 3;
  /// Backoff before the k-th retry (1-based): BackoffBaseMs * 2^(k-1),
  /// capped at BackoffMaxMs.
  double BackoffBaseMs = 0.25;
  double BackoffMaxMs = 4.0;

  double backoffMs(uint32_t Retry) const {
    double Ms = BackoffBaseMs;
    for (uint32_t I = 1; I < Retry && Ms < BackoffMaxMs; ++I)
      Ms *= 2.0;
    return Ms < BackoffMaxMs ? Ms : BackoffMaxMs;
  }
};

/// Construction parameters of a SeerService.
struct ServiceConfig {
  /// The wrapped server's configuration (device, cache shards, budget,
  /// circuit breakers).
  ServerConfig Server;
  /// Maximum async submissions in flight (admitted but not yet finished)
  /// before submit() applies backpressure with RESOURCE_EXHAUSTED.
  size_t AsyncQueueCapacity = 256;
  /// Retry policy for transient failures (see RetryPolicy).
  RetryPolicy Retry;
};

/// One handle-based request. Owns its operand (unlike ServeOptions, which
/// borrows it for one server call), so an async submission has no
/// lifetime strings attached: once admitted, the request is
/// self-contained.
struct Request {
  MatrixHandle Handle;
  /// Expected SpMV iteration count (Sec. IV-E break-even axis).
  uint32_t Iterations = 1;
  /// Also execute the chosen kernel (preprocess + run) and return Y.
  bool Execute = false;
  /// With Execute: verify the selection against the cached oracle.
  bool VerifyOracle = false;
  /// SpMV operand; empty means an all-ones vector of the matrix's column
  /// count. Must otherwise match the column count (INVALID_ARGUMENT).
  std::vector<double> Operand;
  /// Time budget in milliseconds, measured from serve()/submit() entry —
  /// async queue wait counts against it. 0 means no deadline. Expired
  /// work is rejected with DEADLINE_EXCEEDED at admission, after
  /// selection or before the run rather than running to completion;
  /// DEADLINE_EXCEEDED is terminal (never retried).
  double DeadlineMs = 0.0;
};

/// Facts about a registered matrix, for tools and telemetry.
struct HandleInfo {
  uint64_t Fingerprint = 0;
  uint32_t NumRows = 0;
  uint32_t NumCols = 0;
  uint64_t Nnz = 0;
  /// True when registration found the analysis already cached.
  bool AnalysisReused = false;
};

/// A session-based kernel-selection service over one trained model
/// triple. See the file comment for the lifecycle.
class SeerService {
public:
  explicit SeerService(SeerModels Models,
                       ServiceConfig Config = ServiceConfig());

  SeerService(const SeerService &) = delete;
  SeerService &operator=(const SeerService &) = delete;

  /// Drains in-flight async submissions before tearing anything down, so
  /// a future obtained from submit() is always safe to wait on.
  ~SeerService();

  /// Registers a matrix: materializes \p Input (format conversion paid
  /// here, once), fingerprints it, runs or reuses the single-pass
  /// analysis, and pins the cache entry. A
  /// `std::shared_ptr<const CsrMatrix>` input is adopted without copying
  /// (shared ownership) — use it for large client-held matrices. Errors
  /// propagate from ingestion: NOT_FOUND for an unreadable file,
  /// INVALID_ARGUMENT for malformed contents, a bad generator spec, an
  /// invalid matrix, or a null shared pointer.
  Expected<MatrixHandle> registerMatrix(MatrixInput Input);

  /// Releases \p Handle. NOT_FOUND if it was never issued or was already
  /// released. In-flight async requests admitted before this call finish
  /// normally (they share ownership of the registration).
  Status release(MatrixHandle Handle);

  /// Serves one handle-based request synchronously. NOT_FOUND for an
  /// unknown/released handle, INVALID_ARGUMENT for a zero iteration
  /// count or an operand whose length does not match the matrix.
  /// Transient (retryable) server failures are retried in place under
  /// the configured RetryPolicy; DEADLINE_EXCEEDED when R.DeadlineMs
  /// expired; a degraded response (terminal pipeline failure answered by
  /// the baseline kernel) comes back OK with Degraded set.
  Expected<ServeResponse> serve(const Request &R);

  /// Selection-only convenience over serve().
  Expected<ServeResponse> select(MatrixHandle Handle,
                                 uint32_t Iterations = 1);

  /// Select-and-execute convenience over serve() (all-ones operand).
  Expected<ServeResponse> execute(MatrixHandle Handle,
                                  uint32_t Iterations = 1,
                                  bool VerifyOracle = false);

  /// Batched execution: one ExecutionPlan — routing, selection and
  /// preprocessing charged once — run over every operand in \p Operands
  /// (each a numCols()-element vector; INVALID_ARGUMENT on a length
  /// mismatch or an empty batch, NOT_FOUND on an unknown/released
  /// handle). Per operand, the result is bit-identical to issuing the
  /// same execution through serve(); the batch just skips the
  /// per-request selection, ledger and telemetry costs N-1 times.
  /// \p DeadlineMs (0 = none) bounds the whole batch, checked before
  /// every operand's run too; batches are not retried (re-running N operands on a
  /// transient blip is the caller's call, not the service's).
  Expected<BatchResponse>
  executeBatch(MatrixHandle Handle,
               const std::vector<std::vector<double>> &Operands,
               uint32_t Iterations = 1, double DeadlineMs = 0.0);

  /// Submits a request for asynchronous execution on the process-wide
  /// ThreadPool. Validation (handle, iterations, operand) happens here,
  /// synchronously. Admission itself is retried under the RetryPolicy
  /// when the queue is full or transiently failing (bounded backoff —
  /// submit() briefly blocks rather than bouncing a burst back);
  /// RESOURCE_EXHAUSTED once those attempts are spent: back off and
  /// resubmit. The admitted future resolves to the request's typed
  /// outcome — a response (possibly Degraded), or DEADLINE_EXCEEDED /
  /// a retry-exhausted transient error, with queue wait counted against
  /// R.DeadlineMs. The future may outlive release() of the handle but
  /// not the service itself. By the time it is ready the request holds
  /// no pin, so a release() after get() unpins at once.
  Expected<std::future<Expected<ServeResponse>>> submit(Request R);

  /// Blocks until every admitted async submission has completed.
  void drain();

  /// Facts about a live handle (NOT_FOUND after release).
  Expected<HandleInfo> describe(MatrixHandle Handle) const;

  /// Telemetry: the wrapped server's snapshot plus the session-layer
  /// counters (registrations, active handles, async accepted/rejected).
  ServerStats stats() const;

  /// Zeroes the request telemetry (not the cache, not the session
  /// gauges). See SeerServer::resetStats().
  void resetStats();

  /// The unified metrics registry behind stats(): the server's own, with
  /// the session-layer counters (async admission, retries) and the
  /// queue-wait/backoff histograms registered into it — one registry,
  /// one export, for the whole serving stack.
  MetricsRegistry &metrics() { return Server.metrics(); }

  /// Prometheus text exposition of the full registry. Refreshes the
  /// derived gauges first (via stats()), so the export is a consistent
  /// snapshot of this moment.
  std::string metricsPrometheus();

  /// JSONL snapshot of the full registry, gauge-refreshed like
  /// metricsPrometheus().
  std::string metricsJson();

  /// The `stat NAME VALUE` lines of the full registry (see
  /// MetricsRegistry::statLines()), gauge-refreshed like
  /// metricsPrometheus(): the answer to the line protocol's and the
  /// wire's `stats`.
  std::string metricsStatLines();

  const KernelRegistry &registry() const { return Server.registry(); }

  /// The wrapped server, for tests and benches that need its
  /// baselineKernel(); clients should not need it.
  SeerServer &server() { return Server; }

private:
  /// One live registration. Async tasks share ownership, so a released
  /// handle's registration survives until the last admitted request
  /// finishes; the cache pin is returned exactly once, on destruction.
  struct Registration {
    SeerServer *Owner = nullptr;
    RegisteredMatrix R;
    ~Registration() {
      if (Owner)
        Owner->releaseMatrix(R);
    }
  };

  /// Looks up \p Handle (NOT_FOUND when absent) and validates the
  /// request knobs against it (INVALID_ARGUMENT).
  Expected<std::shared_ptr<Registration>> resolve(MatrixHandle Handle,
                                                  const Request &R) const;

  /// Runs \p Attempt (returning a Status or an Expected) under the
  /// RetryPolicy: re-issues it on retryable failure, with deterministic
  /// exponential backoff, until the attempts are spent or \p Deadline
  /// (min() = none) expires. The one retry loop behind serve(), the
  /// async task and submit()'s admission. Moves the
  /// Retries/RetriesExhausted counters.
  template <typename AttemptFn>
  auto withRetry(std::chrono::steady_clock::time_point Deadline,
                 AttemptFn &&Attempt) -> decltype(Attempt());

  /// One async admission attempt: the queue.admit fault site, then the
  /// bounded in-flight check. On OK the in-flight slot is held.
  Status tryAdmit();

  /// Declaration order is load-bearing: Handles (and the Registrations
  /// it owns) must be destroyed before Server, whose cache their
  /// destructors unpin — and the destructor drains async work first.
  SeerServer Server;

  mutable seer::Mutex HandlesMutex;
  std::unordered_map<uint64_t, std::shared_ptr<Registration>> Handles
      SEER_GUARDED_BY(HandlesMutex);
  uint64_t NextHandleId SEER_GUARDED_BY(HandlesMutex) = 1;

  /// Async admission accounting. InFlight is guarded by AsyncMutex so
  /// drain() can wait on it without missed wakeups.
  const size_t AsyncCapacity;
  const RetryPolicy Retry;
  mutable seer::Mutex AsyncMutex;
  CondVar AsyncIdle;
  size_t InFlight SEER_GUARDED_BY(AsyncMutex) = 0;

  /// Session-layer telemetry, registered in the server's registry so one
  /// export covers the stack (declaration order is load-bearing: Server
  /// above is constructed first). NOT reset by resetStats() — these
  /// describe the session, not a request wave.
  Counter &AsyncAccepted = Server.metrics().counter("seer_async_accepted_total");
  Counter &AsyncRejected = Server.metrics().counter("seer_async_rejected_total");
  Counter &Retries = Server.metrics().counter("seer_retries_total");
  Counter &RetriesExhausted =
      Server.metrics().counter("seer_retries_exhausted_total");
  /// Async admission-to-execution wait (armed-only, like the server's
  /// stage timers) and the deterministic retry backoff actually slept.
  Histogram &QueueWaitUs = Server.metrics().histogram("seer_queue_wait_us");
  Histogram &RetryBackoffMs =
      Server.metrics().histogram("seer_retry_backoff_ms");
};

/// The in-process TraceBackend (serve/RequestTrace.h): each operation is
/// one direct SeerService call, so an in-process replay never touches the
/// wire codec, and a replay's registrations adopt its parsed matrices
/// without copying them. Thread-safe like the service, so the clients of a
/// replay share one. `spans` drains the recorder into \p Spans.
class ServiceTraceBackend final : public TraceBackend {
public:
  ServiceTraceBackend(SeerService &Service, SpanSink &Spans)
      : Service(Service), Spans(Spans) {}

  Expected<TraceHandle> open(const std::string &Name,
                             MatrixInput Source) override;
  Status close(uint64_t Handle) override {
    return Service.release(MatrixHandle{Handle});
  }
  Expected<ServeResponse> serve(uint64_t Handle, uint32_t Iterations,
                                bool Execute, bool Verify) override {
    return Execute ? Service.execute(MatrixHandle{Handle}, Iterations, Verify)
                   : Service.select(MatrixHandle{Handle}, Iterations);
  }
  Expected<BatchResponse> batch(uint64_t Handle, uint32_t Count,
                                uint32_t Iterations) override;
  Status fault(const std::string &Spec) override {
    return applyFaultSpec(Spec);
  }
  Expected<std::string> metrics() override {
    return Service.metricsPrometheus();
  }
  Expected<std::string> stats() override {
    return Service.metricsStatLines();
  }
  std::string spans(uint32_t Count) override {
    return Spans.spanLines(Count);
  }

private:
  SeerService &Service;
  SpanSink &Spans;
};

} // namespace seer

#endif // SEER_API_SEERSERVICE_H
