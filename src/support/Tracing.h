//===- support/Tracing.h - Per-stage span recording -----------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span recording for the serving stack. A span is one timed interval of
/// one pipeline stage — `{name, start_ns, dur_ns, request_id, tag}` —
/// captured by the RAII `ScopedSpan` and stored in bounded per-thread
/// ring buffers owned by the process-wide `SpanRecorder`. Overflow
/// overwrites the oldest span on the same thread (and counts it in
/// dropped()), so a runaway request stream can never grow memory.
///
/// The recorder follows the `FaultInjector` arming idiom: disarmed — the
/// default — costs exactly one relaxed atomic load per would-be span,
/// and a disarmed `ScopedSpan` never reads the clock, takes a lock, or
/// allocates. Armed, a span costs two steady_clock reads plus one
/// mutex-protected ring-buffer store on the recording thread's own ring
/// (contended only by a concurrent drain).
///
/// Spans are drained on demand, merged across threads in start order,
/// and exported as Chrome trace-event JSON (`chromeTraceJson`) loadable
/// in chrome://tracing or https://ui.perfetto.dev.
///
/// Request attribution: `ScopedRequestId` stamps the current thread with
/// a request id; spans opened while it is live (including ones deep in
/// the `Planner`, which has no request-id parameter) inherit the id, so
/// a drained trace groups every stage of one serve together.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SUPPORT_TRACING_H
#define SEER_SUPPORT_TRACING_H

#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace seer {

/// Canonical span names. Dotted `stage.step` scheme, one constant per
/// instrumented site, so exporters and tests never hand-spell a name.
namespace spanname {
inline constexpr const char *PlanAnalyze = "plan.analyze";
inline constexpr const char *PlanRoute = "plan.route";
inline constexpr const char *PlanCollect = "plan.collect";
inline constexpr const char *PlanSelect = "plan.select";
inline constexpr const char *PlanPrepare = "plan.prepare";
inline constexpr const char *PlanRun = "plan.run";
inline constexpr const char *PlanVerify = "plan.verify";
inline constexpr const char *CacheProbe = "cache.probe";
inline constexpr const char *CacheLedger = "cache.ledger";
inline constexpr const char *CacheEvict = "cache.evict";
inline constexpr const char *Serve = "serve.request";
inline constexpr const char *ServeOracle = "serve.oracle";
inline constexpr const char *ServeDegraded = "serve.degraded";
inline constexpr const char *ServeBatch = "serve.batch";
inline constexpr const char *ServeRetry = "serve.retry";
inline constexpr const char *QueueWait = "queue.wait";
inline constexpr const char *NetRequest = "net.request";
} // namespace spanname

/// Hot-path state mirrored at namespace scope so the disarmed checks
/// compile to a single inline relaxed load / TLS access with no
/// out-of-line call. Owned by SpanRecorder (arm()/disarm() and
/// ScopedRequestId are the only writers); not part of the public API.
namespace tracing_detail {
/// The recorder's armed flag. `inline` (C++17) — one flag per process.
inline std::atomic<bool> Armed{false};
/// The calling thread's current request id; 0 outside any request.
inline thread_local uint64_t RequestId = 0;
} // namespace tracing_detail

/// One recorded interval. Name/TagKey point at string literals (the
/// `spanname::` constants or call-site literals with static storage
/// duration) — spans never own memory, which is what keeps recording
/// allocation-free.
struct TraceSpan {
  const char *Name = nullptr;
  uint64_t StartNs = 0;  ///< steady_clock, process-relative
  uint64_t DurNs = 0;
  uint64_t RequestId = 0; ///< 0 = outside any request
  const char *TagKey = nullptr; ///< optional single numeric tag
  double TagValue = 0.0;
  uint64_t ThreadId = 0; ///< recorder-assigned dense id, 1-based
  uint64_t Seq = 0;      ///< global record order, tie-break for sorting
};

/// Process-wide span sink: per-thread bounded ring buffers behind an
/// armed flag, drained on demand.
class SpanRecorder {
public:
  static constexpr size_t DefaultCapacityPerThread = 8192;

  static SpanRecorder &instance();

  /// Arms recording with the given per-thread ring capacity. Re-arming
  /// restarts every ring empty (existing undrained spans are discarded)
  /// and zeroes dropped().
  void arm(size_t CapacityPerThread = DefaultCapacityPerThread);

  /// Disarms recording; rings keep their contents for a later drain().
  void disarm();

  bool armed() const {
    return tracing_detail::Armed.load(std::memory_order_relaxed);
  }

  /// Records a finished interval (the manual form; prefer ScopedSpan).
  /// No-op when disarmed.
  void record(const char *Name, uint64_t StartNs, uint64_t DurNs,
              uint64_t RequestId = 0, const char *TagKey = nullptr,
              double TagValue = 0.0);

  /// Removes and returns all buffered spans from every thread's ring,
  /// sorted by (StartNs, Seq). Safe concurrently with record().
  std::vector<TraceSpan> drain();

  /// Spans overwritten by ring overflow since the last arm().
  uint64_t dropped() const;

  /// Current per-thread ring capacity.
  size_t capacityPerThread() const {
    return Capacity.load(std::memory_order_relaxed);
  }

  /// Monotonic timestamp in nanoseconds (steady_clock).
  static uint64_t nowNs();

  /// The calling thread's current request id (see ScopedRequestId);
  /// 0 outside any request.
  static uint64_t currentRequestId() { return tracing_detail::RequestId; }

  /// Renders spans as a Chrome trace-event JSON document (complete "X"
  /// events, microsecond timestamps rebased to the earliest span). Open
  /// the file in chrome://tracing or https://ui.perfetto.dev.
  static std::string chromeTraceJson(const std::vector<TraceSpan> &Spans);

private:
  struct Ring;

  SpanRecorder() = default;
  Ring *threadRing();

  std::atomic<size_t> Capacity{DefaultCapacityPerThread};
  /// Bumped by arm(); rings lazily reset when they notice a new epoch,
  /// so arm() never has to visit (or race) other threads' rings.
  std::atomic<uint64_t> Epoch{0};
  std::atomic<uint64_t> NextSeq{0};
  std::atomic<uint64_t> DroppedBase{0}; ///< drops from epochs already folded

  mutable seer::Mutex RingsMutex;
  std::vector<std::shared_ptr<Ring>> Rings SEER_GUARDED_BY(RingsMutex);
};

/// Stamps the current thread with a request id for the object's
/// lifetime; nested scopes restore the outer id. Spans opened on this
/// thread meanwhile inherit the id.
class ScopedRequestId {
public:
  explicit ScopedRequestId(uint64_t Id) : Saved(tracing_detail::RequestId) {
    tracing_detail::RequestId = Id;
  }
  ~ScopedRequestId() { tracing_detail::RequestId = Saved; }
  ScopedRequestId(const ScopedRequestId &) = delete;
  ScopedRequestId &operator=(const ScopedRequestId &) = delete;

private:
  uint64_t Saved;
};

/// RAII span: reads the clock at construction and records on
/// destruction. When the recorder is disarmed at construction the whole
/// object is inert — no clock read, no allocation, nothing recorded
/// even if the recorder is armed mid-scope (a half-timed span would
/// only mislead).
// seer-hot-begin(scoped-span-inline): tools/seer_lint.py forbids heap
// allocation and unordered-container iteration in this region — the
// disarmed fast path must stay one relaxed load (PR 8's header-inline
// compile of the hot path).
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) {
    if (tracing_detail::Armed.load(std::memory_order_relaxed))
      begin(Name, SpanRecorder::currentRequestId());
  }
  ScopedSpan(const char *Name, uint64_t RequestId) {
    if (tracing_detail::Armed.load(std::memory_order_relaxed))
      begin(Name, RequestId);
  }
  ~ScopedSpan() {
    if (Active)
      finish();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches one numeric tag (e.g. modeled cost) to the span. \p Key
  /// must have static storage duration. No-op when inert.
  void tag(const char *Key, double Value) {
    if (Active) {
      TagKey = Key;
      TagValue = Value;
    }
  }

  /// Whether this span is live (recorder was armed at construction).
  bool active() const { return Active; }

private:
  void begin(const char *Name, uint64_t RequestId);
  void finish();

  bool Active = false;
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t RequestId = 0;
  const char *TagKey = nullptr;
  double TagValue = 0.0;
};
// seer-hot-end(scoped-span-inline)

} // namespace seer

#endif // SEER_SUPPORT_TRACING_H
