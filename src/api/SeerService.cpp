//===- api/SeerService.cpp -------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"

#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "support/Tracing.h"

#include <chrono>
#include <thread>
#include <utility>

using namespace seer;

SeerService::SeerService(SeerModels Models, ServiceConfig Config)
    : Server(std::move(Models), Config.Server),
      AsyncCapacity(Config.AsyncQueueCapacity), Retry(Config.Retry) {}

namespace {

/// The absolute deadline of a request whose budget starts now; min() (no
/// deadline) when the budget is unset.
std::chrono::steady_clock::time_point deadlineFor(double DeadlineMs) {
  if (DeadlineMs <= 0.0)
    return std::chrono::steady_clock::time_point::min();
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(DeadlineMs));
}

/// The server-side options of \p R, borrowing its operand.
ServeOptions optionsFor(const Request &R,
                        std::chrono::steady_clock::time_point Deadline) {
  ServeOptions Options;
  Options.Iterations = R.Iterations;
  Options.Execute = R.Execute;
  Options.VerifyOracle = R.VerifyOracle;
  Options.Operand = R.Operand.empty() ? nullptr : &R.Operand;
  Options.Deadline = Deadline;
  return Options;
}

/// True when an attempt's outcome is a failure worth another attempt.
bool failedRetryably(const Status &S) { return !S.ok() && S.isRetryable(); }
template <typename T> bool failedRetryably(const Expected<T> &E) {
  return !E.ok() && E.status().isRetryable();
}

} // namespace

template <typename AttemptFn>
auto SeerService::withRetry(std::chrono::steady_clock::time_point Deadline,
                            AttemptFn &&Attempt) -> decltype(Attempt()) {
  auto Result = Attempt();
  for (uint32_t N = 1; failedRetryably(Result) && N < Retry.MaxAttempts;
       ++N) {
    // A retry that cannot finish in budget is not worth starting; the
    // standing retryable error is more honest than a DEADLINE_EXCEEDED
    // manufactured by re-issuing doomed work.
    if (deadlineExpired(Deadline))
      break;
    // The retry span covers the backoff *and* the reattempt: that is the
    // extra latency the fault cost the caller.
    ScopedSpan RetrySpan(spanname::ServeRetry);
    RetrySpan.tag("attempt", static_cast<double>(N));
    const double BackoffMs = Retry.backoffMs(N);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(BackoffMs));
    RetryBackoffMs.record(BackoffMs);
    Retries.add();
    Result = Attempt();
  }
  if (failedRetryably(Result))
    RetriesExhausted.add();
  return Result;
}

SeerService::~SeerService() { drain(); }

Expected<MatrixHandle> SeerService::registerMatrix(MatrixInput Input) {
  if (Status F = FaultInjector::instance().check(faultsite::ServiceRegister);
      !F.ok())
    return F;
  // A shared_ptr input is adopted, not copied: the client keeps its
  // matrix, the service shares ownership. Every other form materializes
  // into a service-owned CSR copy.
  std::shared_ptr<const CsrMatrix> Csr;
  if (auto *Shared = std::get_if<std::shared_ptr<const CsrMatrix>>(&Input)) {
    if (!*Shared)
      return Status::invalidArgument("null shared matrix pointer");
    std::string Why;
    if (!(*Shared)->verify(&Why))
      return Status::invalidArgument("invalid CSR input: " + Why);
    Csr = std::move(*Shared);
  } else {
    Expected<CsrMatrix> Materialized = materializeMatrixInput(std::move(Input));
    if (!Materialized)
      return Materialized.status();
    Csr = std::make_shared<const CsrMatrix>(std::move(*Materialized));
  }

  auto NewReg = std::make_shared<Registration>();
  NewReg->Owner = &Server;
  try {
    NewReg->R = Server.registerMatrix(std::move(Csr));
  } catch (const std::bad_alloc &) {
    // The registration path allocates the analysis and may hit an
    // injected bad-alloc at the cache.insert site; the caller gets a
    // typed (retryable) rejection, not a crash.
    NewReg->Owner = nullptr;
    return Status::resourceExhausted("out of memory registering matrix");
  }

  MatrixHandle Handle;
  {
    MutexLock Lock(HandlesMutex);
    Handle.Id = NextHandleId++;
    Handles.emplace(Handle.Id, std::move(NewReg));
  }
  return Handle;
}

Status SeerService::release(MatrixHandle Handle) {
  std::shared_ptr<Registration> Dropped;
  {
    MutexLock Lock(HandlesMutex);
    const auto It = Handles.find(Handle.Id);
    if (It == Handles.end())
      return Status::notFound("unknown or already released matrix handle " +
                              std::to_string(Handle.Id));
    // Move the registration out so its destructor (and the cache unpin)
    // runs outside the session lock — possibly later, if async requests
    // still share it.
    Dropped = std::move(It->second);
    Handles.erase(It);
  }
  return Status::okStatus();
}

Expected<std::shared_ptr<SeerService::Registration>>
SeerService::resolve(MatrixHandle Handle, const Request &R) const {
  if (!Handle.valid())
    return Status::invalidArgument("null matrix handle");
  std::shared_ptr<Registration> Reg;
  {
    MutexLock Lock(HandlesMutex);
    const auto It = Handles.find(Handle.Id);
    if (It == Handles.end())
      return Status::notFound("unknown or released matrix handle " +
                              std::to_string(Handle.Id));
    Reg = It->second;
  }
  if (R.Iterations == 0)
    return Status::invalidArgument("iteration count must be >= 1");
  if (!R.Operand.empty() &&
      R.Operand.size() != Reg->R.Matrix->numCols())
    return Status::invalidArgument(
        "operand has " + std::to_string(R.Operand.size()) +
        " elements, matrix has " + std::to_string(Reg->R.Matrix->numCols()) +
        " columns");
  return Reg;
}

Expected<ServeResponse> SeerService::serve(const Request &R) {
  auto Reg = resolve(R.Handle, R);
  if (!Reg)
    return Reg.status();
  const ServeOptions Options = optionsFor(R, deadlineFor(R.DeadlineMs));
  return withRetry(Options.Deadline, [&] {
    return Server.handleRegistered((*Reg)->R, Options);
  });
}

Expected<ServeResponse> SeerService::select(MatrixHandle Handle,
                                            uint32_t Iterations) {
  Request R;
  R.Handle = Handle;
  R.Iterations = Iterations;
  return serve(R);
}

Expected<ServeResponse> SeerService::execute(MatrixHandle Handle,
                                             uint32_t Iterations,
                                             bool VerifyOracle) {
  Request R;
  R.Handle = Handle;
  R.Iterations = Iterations;
  R.Execute = true;
  R.VerifyOracle = VerifyOracle;
  return serve(R);
}

Expected<BatchResponse>
SeerService::executeBatch(MatrixHandle Handle,
                          const std::vector<std::vector<double>> &Operands,
                          uint32_t Iterations, double DeadlineMs) {
  Request Probe;
  Probe.Handle = Handle;
  Probe.Iterations = Iterations;
  auto Reg = resolve(Handle, Probe);
  if (!Reg)
    return Reg.status();
  if (Operands.empty())
    return Status::invalidArgument("empty batch (no operands)");
  const uint32_t Cols = (*Reg)->R.Matrix->numCols();
  for (size_t I = 0; I < Operands.size(); ++I)
    if (Operands[I].size() != Cols)
      return Status::invalidArgument(
          "batch operand " + std::to_string(I) + " has " +
          std::to_string(Operands[I].size()) + " elements, matrix has " +
          std::to_string(Cols) + " columns");
  return Server.executeBatchRegistered((*Reg)->R, Iterations, Operands,
                                       deadlineFor(DeadlineMs));
}

Status SeerService::tryAdmit() {
  if (Status F = FaultInjector::instance().check(faultsite::QueueAdmit);
      !F.ok())
    return F;
  // Admission control: bounded in-flight count, rejected (not blocked)
  // when full so a client-side burst cannot wedge its own threads.
  MutexLock Lock(AsyncMutex);
  if (InFlight >= AsyncCapacity)
    return Status::resourceExhausted(
        "async queue full (" + std::to_string(AsyncCapacity) +
        " submissions in flight); back off and resubmit");
  ++InFlight;
  return Status::okStatus();
}

Expected<std::future<Expected<ServeResponse>>> SeerService::submit(Request R) {
  auto Reg = resolve(R.Handle, R);
  if (!Reg)
    return Reg.status();

  // The deadline clock starts at submission: time spent fighting for
  // admission and waiting in the queue is time the caller is waiting.
  const auto Deadline = deadlineFor(R.DeadlineMs);

  if (Status Admission = withRetry(Deadline, [&] { return tryAdmit(); });
      !Admission.ok()) {
    AsyncRejected.add();
    return Admission;
  }
  AsyncAccepted.add();

  // The task owns everything it needs: the registration (so a release()
  // between admission and execution is harmless) and the request with
  // its operand. Validation already happened, so the future always
  // resolves to the request's typed outcome — a response, or
  // DEADLINE_EXCEEDED / a retry-exhausted transient error.
  auto Promise = std::make_shared<std::promise<Expected<ServeResponse>>>();
  std::future<Expected<ServeResponse>> Future = Promise->get_future();
  // Queue-wait accounting is armed-only (one clock read each side);
  // disarmed submissions pay nothing, matching the server's stage timers.
  const uint64_t EnqueueNs =
      SpanRecorder::instance().armed() ? SpanRecorder::nowNs() : 0;
  ThreadPool::shared().submit(
      [this, Promise, Deadline, EnqueueNs, Reg = std::move(*Reg),
       R = std::move(R)]() mutable {
        if (EnqueueNs != 0) {
          const uint64_t WaitNs = SpanRecorder::nowNs() - EnqueueNs;
          QueueWaitUs.record(static_cast<double>(WaitNs) / 1000.0);
          // The wait has no scope to wrap, so record the span directly:
          // it starts at admission and ends when the pool picks us up.
          SpanRecorder::instance().record(spanname::QueueWait, EnqueueNs,
                                          WaitNs,
                                          SpanRecorder::currentRequestId());
        }
        const ServeOptions Options = optionsFor(R, Deadline);
        Expected<ServeResponse> Result = withRetry(Deadline, [&] {
          return Server.handleRegistered(Reg->R, Options);
        });
        // Return the pin before the result is visible: a caller that
        // gets the future and then releases the handle must find the
        // registration's last reference in release(), so the unpin and
        // the budget check it triggers run before release() returns.
        Reg.reset();
        Promise->set_value(std::move(Result));
        MutexLock Lock(AsyncMutex);
        if (--InFlight == 0)
          AsyncIdle.notify_all();
      });
  return Future;
}

void SeerService::drain() {
  MutexLock Lock(AsyncMutex);
  // While-loop form keeps the guarded condition inside the analyzed scope.
  while (InFlight != 0)
    AsyncIdle.wait(Lock);
}

Expected<HandleInfo> SeerService::describe(MatrixHandle Handle) const {
  Request Empty;
  auto Reg = resolve(Handle, Empty);
  if (!Reg)
    return Reg.status();
  const RegisteredMatrix &R = (*Reg)->R;
  HandleInfo Info;
  Info.Fingerprint = R.Fingerprint;
  Info.NumRows = R.Matrix->numRows();
  Info.NumCols = R.Matrix->numCols();
  Info.Nnz = R.Matrix->nnz();
  Info.AnalysisReused = R.AnalysisReused;
  return Info;
}

ServerStats SeerService::stats() const {
  ServerStats S = Server.stats();
  S.AsyncAccepted = AsyncAccepted.value();
  S.AsyncRejected = AsyncRejected.value();
  S.Retries = Retries.value();
  S.RetriesExhausted = RetriesExhausted.value();
  return S;
}

void SeerService::resetStats() { Server.resetStats(); }

std::string SeerService::metricsPrometheus() {
  (void)stats(); // refresh the derived gauges
  return Server.metrics().prometheusText();
}

std::string SeerService::metricsJson() {
  (void)stats();
  return Server.metrics().jsonSnapshot();
}

std::string SeerService::metricsStatLines() {
  (void)stats();
  return Server.metrics().statLines();
}

Expected<TraceHandle> ServiceTraceBackend::open(const std::string &,
                                                MatrixInput Source) {
  const auto Handle = Service.registerMatrix(std::move(Source));
  if (!Handle)
    return Handle.status();
  const auto Info = Service.describe(*Handle);
  if (!Info)
    return Info.status();
  return TraceHandle{Handle->Id, Info->NumRows, Info->NumCols, Info->Nnz};
}

Expected<BatchResponse> ServiceTraceBackend::batch(uint64_t Handle,
                                                   uint32_t Count,
                                                   uint32_t Iterations) {
  const auto Info = Service.describe(MatrixHandle{Handle});
  if (!Info)
    return Info.status();
  return Service.executeBatch(MatrixHandle{Handle},
                              buildBatchOperands(Count, Info->NumCols),
                              Iterations);
}
