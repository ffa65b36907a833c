//===- support/Metrics.h - Unified metrics registry -----------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics layer of the serving stack: named counters, gauges and
/// geometric histograms behind a `MetricsRegistry`, updated with relaxed
/// atomics only — no lock is ever taken on a request path. Callers look a
/// metric up once (registration takes the registry mutex) and keep the
/// returned reference, whose address is stable for the registry's
/// lifetime; from then on an increment is exactly the relaxed `fetch_add`
/// the pre-registry `std::atomic` members cost.
///
/// A registry is an instantiable class, not a global: each `SeerServer`
/// owns one so its `ServerStats` snapshot is derived from a single source
/// of truth, and concurrent servers (the bench harness runs dozens per
/// process) cannot bleed counters into each other. `process()` offers a
/// process-wide instance for tools that have no server.
///
/// Metric naming scheme (enforced by tools/seer_lint.py):
///
///   seer_<noun>[_<unit>][_total]
///
///  - counters are monotone and end in `_total` (values accumulated in
///    integer units name the unit first: `seer_saved_collection_ns_total`);
///  - gauges are instantaneous levels (`seer_bytes_cached`,
///    `seer_active_handles`) and carry no suffix;
///  - histograms name their unit (`seer_latency_us`,
///    `seer_stage_select_us`) or their dimensionless ratio
///    (`seer_cost_model_error_select`: actual wall over modeled cost).
///
/// Three exporters, all deterministic (metrics sorted by name):
///  - `prometheusText()` — the Prometheus text exposition format
///    (`# TYPE` comments, cumulative `_bucket{le="..."}` lines, `_sum`,
///    `_count`);
///  - `jsonSnapshot()` — JSONL, one self-contained JSON object per line
///    per metric, for log pipelines;
///  - `statLines()` — the `stat NAME VALUE` lines of the serving line
///    protocol and the wire `stats` op.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SUPPORT_METRICS_H
#define SEER_SUPPORT_METRICS_H

#include "support/ThreadAnnotations.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace seer {

/// A monotone counter. All operations are relaxed atomics; add() is
/// wait-free and allocation-free.
class Counter {
public:
  void add(uint64_t N = 1) { Value_.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value_.load(std::memory_order_relaxed); }
  /// Zeroes the counter. Not linearizable against concurrent add(); call
  /// between request waves (SeerServer::resetStats semantics).
  void reset() { Value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value_{0};
};

/// An instantaneous level, set to an absolute value at snapshot time.
class Gauge {
public:
  void set(double V) { Value_.store(V, std::memory_order_relaxed); }
  double value() const { return Value_.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Value_{0.0};
};

/// Bounded, lock-free geometric histogram: 128 buckets spanning
/// [0.01, ~1e8) with ~19.7% bucket width (G = 10^(10/128)), covering ten
/// orders of magnitude — microsecond latencies, millisecond stage costs
/// and dimensionless cost-model ratios all fit. All operations are
/// atomic; record() never allocates, so the hot path stays wait-free.
class Histogram {
public:
  static constexpr size_t NumBuckets = 128;

  /// Records one sample. Non-finite or negative samples are rejected
  /// (counted in rejected(), not in any bucket): filing them into bucket
  /// 0 would silently drag the percentiles down and desynchronize mean()
  /// from the bucket counts.
  void record(double Value);

  /// Number of recorded samples.
  uint64_t samples() const { return Count.load(std::memory_order_relaxed); }

  /// Number of rejected (NaN/infinite/negative) samples.
  uint64_t rejected() const {
    return Rejected.load(std::memory_order_relaxed);
  }

  /// Sum of recorded samples (saturating).
  double sum() const;

  /// Mean recorded sample (0 with no samples).
  double mean() const;

  /// Approximate \p P-quantile (0 < P < 1): the winning bucket is where
  /// the cumulative count crosses P*N, and the estimate interpolates
  /// *geometrically within that bucket* by the fraction of its samples
  /// below the target rank — a bucket holding the exact median answers
  /// its geometric midpoint, one crossed near its floor answers near its
  /// lower bound. Halves the worst-case bias of the fixed-midpoint
  /// estimate (up to half a bucket, ~10%) without changing the bucket
  /// layout. Returns 0 with no samples.
  double percentile(double P) const;

  /// Count of samples that landed in bucket \p Index, for exporters.
  uint64_t bucketCount(size_t Index) const {
    return Buckets[Index].load(std::memory_order_relaxed);
  }

  /// Exclusive upper bound of bucket \p Index (its Prometheus `le`
  /// boundary); +infinity for the last bucket, which absorbs everything
  /// above the geometric range.
  static double bucketUpperBound(size_t Index);

  /// Zeroes all buckets. Not linearizable against concurrent record();
  /// call it only between request waves.
  void reset();

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Rejected{0};
  /// Total of samples scaled by 1000 (integer so fetch_add works
  /// pre-C++20), saturating at max.
  std::atomic<uint64_t> ScaledTotal{0};
};

/// A named collection of metrics. Lookup is get-or-create under a mutex
/// and returns a reference that stays valid (and address-stable) for the
/// registry's lifetime — register once, update lock-free forever. A name
/// identifies exactly one metric kind; asking for the same name as a
/// different kind is a programming error (asserted in debug builds).
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// The Prometheus text exposition of every metric, sorted by name.
  /// Histograms emit cumulative `_bucket{le="..."}` samples for the
  /// buckets that hold counts (any subset of boundaries is valid
  /// exposition) plus the mandatory `+Inf` bucket, `_sum` and `_count`.
  std::string prometheusText() const;

  /// JSONL snapshot: one JSON object per line per metric, grouped by
  /// kind (counters, gauges, histograms) and sorted by name within each.
  /// Histogram lines carry cumulative buckets, count, sum and the
  /// rejected-sample count the Prometheus exposition has no slot for.
  std::string jsonSnapshot() const;

  /// The `stat NAME VALUE` snapshot, sorted by metric name: one line per
  /// counter and per gauge, and `NAME_count`, `NAME_mean`, `NAME_p50`
  /// and `NAME_p99` lines per histogram. NAME is the metric name without
  /// its `seer_` prefix and `_total` suffix (`seer_requests_total` ->
  /// `requests`, `seer_latency_us` -> `latency_us_p99`). Integral values
  /// print as plain integers.
  std::string statLines() const;

  /// The process-wide registry, for tools and tests that have no server
  /// to borrow one from. Server-scoped metrics live in the server's own
  /// registry (see SeerServer::metrics()), never here.
  static MetricsRegistry &process();

private:
  mutable seer::Mutex Mutex;
  /// Ordered maps: exporters walk them in name order, so exports are
  /// deterministic. unique_ptr keeps metric addresses stable across
  /// rehashing-free but node-moving operations either way.
  std::map<std::string, std::unique_ptr<Counter>> Counters
      SEER_GUARDED_BY(Mutex);
  std::map<std::string, std::unique_ptr<Gauge>> Gauges SEER_GUARDED_BY(Mutex);
  std::map<std::string, std::unique_ptr<Histogram>> Histograms
      SEER_GUARDED_BY(Mutex);
};

} // namespace seer

#endif // SEER_SUPPORT_METRICS_H
