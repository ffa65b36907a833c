//===- tests/obs_test.cpp - Tests for the observability layer -------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The observability contract: MetricsRegistry get-or-create semantics and
// deterministic exports (Prometheus text, JSONL, stat lines), geometric
// histogram recording and percentile interpolation, concurrent span
// recording with exact counts (the ThreadSanitizer CI job runs this file),
// ScopedSpan / ScopedRequestId nesting, ring-overflow behavior, the
// disarmed-recorder zero-allocation guarantee, and ServerStats being a
// faithful view of the server's registry.
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/Seer.h"
#include "support/Metrics.h"
#include "support/Tracing.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

using namespace seer;

//===----------------------------------------------------------------------===//
// Allocation counting (for the disarmed zero-allocation guarantee)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GlobalAllocations{0};
} // namespace

void *operator new(std::size_t Size) {
  GlobalAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

uint64_t allocationCount() {
  return GlobalAllocations.load(std::memory_order_relaxed);
}

/// Models trained once on a tiny but diverse collection (api_test's
/// fixture, repeated here so the file stands alone).
const SeerModels &tinyModels() {
  static const SeerModels Models = [] {
    CollectionConfig Config;
    Config.MaxRows = 4096;
    Config.VariantsPerCell = 2;
    Config.IncludeReplicas = false;
    const KernelRegistry Registry;
    const GpuSimulator Sim(DeviceModel::mi100());
    BenchmarkConfig Protocol;
    Protocol.Parallelism = 0;
    const Benchmarker Runner(Registry, Sim, Protocol);
    TrainerConfig Trainer;
    Trainer.Parallelism = 0;
    return trainSeerModels(Runner.benchmarkCollection(buildCollection(Config)),
                           Registry.names(), Trainer);
  }();
  return Models;
}

std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.9g", V);
  return Buf;
}

/// The histogram bucket a value lands in, recovered through the public
/// bound accessors so the test never re-derives the growth constant.
size_t bucketOf(double Value) {
  for (size_t I = 0; I < Histogram::NumBuckets; ++I)
    if (Value < Histogram::bucketUpperBound(I))
      return I;
  return Histogram::NumBuckets - 1;
}

} // namespace

//===----------------------------------------------------------------------===//
// MetricsRegistry semantics
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, GetOrCreateReturnsStableReferences) {
  MetricsRegistry Reg;
  Counter &C1 = Reg.counter("seer_things_total");
  Counter &C2 = Reg.counter("seer_things_total");
  EXPECT_EQ(&C1, &C2);
  C1.add();
  C2.add(4);
  EXPECT_EQ(C1.value(), 5u);
  C1.reset();
  EXPECT_EQ(C2.value(), 0u);

  Gauge &G = Reg.gauge("seer_level");
  EXPECT_EQ(&G, &Reg.gauge("seer_level"));
  G.set(2.5);
  EXPECT_DOUBLE_EQ(G.value(), 2.5);

  Histogram &H = Reg.histogram("seer_wait_us");
  EXPECT_EQ(&H, &Reg.histogram("seer_wait_us"));
  EXPECT_EQ(H.samples(), 0u);
}

TEST(MetricsRegistryTest, RegistriesAreIndependent) {
  MetricsRegistry A;
  MetricsRegistry B;
  A.counter("seer_things_total").add(7);
  EXPECT_EQ(B.counter("seer_things_total").value(), 0u);
  EXPECT_NE(&A.counter("seer_things_total"), &B.counter("seer_things_total"));
}

TEST(HistogramTest, RecordsSumAndRejects) {
  Histogram H;
  H.record(2.0);
  H.record(10.0);
  H.record(-1.0);                                        // negative: rejected
  H.record(std::numeric_limits<double>::quiet_NaN());    // rejected
  H.record(std::numeric_limits<double>::infinity());     // rejected
  EXPECT_EQ(H.samples(), 2u);
  EXPECT_EQ(H.rejected(), 3u);
  EXPECT_NEAR(H.sum(), 12.0, 1e-9);
  EXPECT_NEAR(H.mean(), 6.0, 1e-9);
  H.reset();
  EXPECT_EQ(H.samples(), 0u);
  EXPECT_EQ(H.rejected(), 0u);
  EXPECT_EQ(H.mean(), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  // All samples land in one bucket: the estimate must sweep that
  // bucket's geometric range with the requested rank instead of
  // answering a fixed point.
  Histogram H;
  const double Value = 50.0;
  for (int I = 0; I < 100; ++I)
    H.record(Value);

  const size_t B = bucketOf(Value);
  const double Upper = Histogram::bucketUpperBound(B);
  const double Lower = B == 0 ? 0.01 : Histogram::bucketUpperBound(B - 1);

  const double P01 = H.percentile(0.01);
  const double P50 = H.percentile(0.50);
  const double P99 = H.percentile(0.99);
  EXPECT_LT(Lower, P01);
  EXPECT_LT(P01, P50);
  EXPECT_LT(P50, P99);
  EXPECT_LE(P99, Upper);
  // The median of a single-bucket population is the geometric midpoint.
  EXPECT_NEAR(P50, std::sqrt(Lower * Upper), 0.01 * P50);
  // And the worst-case error against the true value stays within one
  // bucket's width.
  EXPECT_NEAR(P50, Value, Value * 0.25);
}

TEST(HistogramTest, PercentileSpansBuckets) {
  Histogram H;
  for (int I = 0; I < 90; ++I)
    H.record(1.0);
  for (int I = 0; I < 10; ++I)
    H.record(1000.0);
  EXPECT_LT(H.percentile(0.5), 2.0);
  EXPECT_GT(H.percentile(0.95), 500.0);
  EXPECT_LT(H.percentile(0.95), 1500.0);
}

//===----------------------------------------------------------------------===//
// Exporters (golden outputs)
//===----------------------------------------------------------------------===//

namespace {

/// A registry with one metric of each kind and known values.
void fillGoldenRegistry(MetricsRegistry &Reg) {
  Reg.counter("seer_requests_total").add(3);
  Reg.gauge("seer_bytes_cached").set(2.5);
  Histogram &H = Reg.histogram("seer_wait_us");
  H.record(2.0);
  H.record(10.0);
  H.record(-1.0); // rejected
}

} // namespace

TEST(MetricsExportTest, PrometheusGolden) {
  MetricsRegistry Reg;
  fillGoldenRegistry(Reg);
  const std::string B2 = fmtDouble(Histogram::bucketUpperBound(bucketOf(2.0)));
  const std::string B10 =
      fmtDouble(Histogram::bucketUpperBound(bucketOf(10.0)));
  const std::string Expected = "# TYPE seer_bytes_cached gauge\n"
                               "seer_bytes_cached 2.5\n"
                               "# TYPE seer_requests_total counter\n"
                               "seer_requests_total 3\n"
                               "# TYPE seer_wait_us histogram\n"
                               "seer_wait_us_bucket{le=\"" + B2 + "\"} 1\n"
                               "seer_wait_us_bucket{le=\"" + B10 + "\"} 2\n"
                               "seer_wait_us_bucket{le=\"+Inf\"} 2\n"
                               "seer_wait_us_sum 12\n"
                               "seer_wait_us_count 2\n";
  EXPECT_EQ(Reg.prometheusText(), Expected);
}

TEST(MetricsExportTest, JsonlGolden) {
  MetricsRegistry Reg;
  fillGoldenRegistry(Reg);
  const std::string B2 = fmtDouble(Histogram::bucketUpperBound(bucketOf(2.0)));
  const std::string B10 =
      fmtDouble(Histogram::bucketUpperBound(bucketOf(10.0)));
  const std::string Expected =
      "{\"kind\":\"counter\",\"name\":\"seer_requests_total\",\"value\":3}\n"
      "{\"kind\":\"gauge\",\"name\":\"seer_bytes_cached\",\"value\":2.5}\n"
      "{\"kind\":\"histogram\",\"name\":\"seer_wait_us\",\"count\":2,"
      "\"sum\":12,\"rejected\":1,\"buckets\":[{\"le\":\"" + B2 +
      "\",\"count\":1},{\"le\":\"" + B10 + "\",\"count\":2}]}\n";
  EXPECT_EQ(Reg.jsonSnapshot(), Expected);
}

TEST(MetricsExportTest, StatLinesGolden) {
  MetricsRegistry Reg;
  fillGoldenRegistry(Reg);
  const Histogram &H = Reg.histogram("seer_wait_us");
  // Sorted by metric name; `seer_` and `_total` dropped from the names;
  // integral values print as integers, the rest like the exposition.
  const std::string Expected = "stat bytes_cached 2.5\n"
                               "stat requests 3\n"
                               "stat wait_us_count 2\n"
                               "stat wait_us_mean 6\n"
                               "stat wait_us_p50 " +
                               fmtDouble(H.percentile(0.50)) +
                               "\n"
                               "stat wait_us_p99 " +
                               fmtDouble(H.percentile(0.99)) + "\n";
  EXPECT_EQ(Reg.statLines(), Expected);
}

TEST(MetricsExportTest, EmptyHistogramStillEmitsInfBucket) {
  MetricsRegistry Reg;
  (void)Reg.histogram("seer_idle_us");
  const std::string Text = Reg.prometheusText();
  EXPECT_NE(Text.find("seer_idle_us_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(Text.find("seer_idle_us_count 0\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Span recording
//===----------------------------------------------------------------------===//

TEST(SpanRecorderTest, ConcurrentRecordingHasExactCounts) {
  SpanRecorder &Recorder = SpanRecorder::instance();
  Recorder.arm();
  constexpr int Threads = 8;
  constexpr int SpansPerThread = 500;
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([T] {
      ScopedRequestId Id(static_cast<uint64_t>(T) + 1);
      for (int I = 0; I < SpansPerThread; ++I) {
        ScopedSpan Span(spanname::PlanSelect);
        Span.tag("modeled_ms", static_cast<double>(I));
      }
    });
  for (std::thread &W : Workers)
    W.join();

  const std::vector<TraceSpan> Spans = Recorder.drain();
  Recorder.disarm();
  ASSERT_EQ(Spans.size(), static_cast<size_t>(Threads * SpansPerThread));
  EXPECT_EQ(Recorder.dropped(), 0u);

  // Sorted by start time; every span attributed to its thread's request.
  std::array<int, Threads + 1> PerRequest{};
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (I > 0) {
      EXPECT_LE(Spans[I - 1].StartNs, Spans[I].StartNs);
    }
    ASSERT_GE(Spans[I].RequestId, 1u);
    ASSERT_LE(Spans[I].RequestId, static_cast<uint64_t>(Threads));
    ++PerRequest[Spans[I].RequestId];
    EXPECT_STREQ(Spans[I].Name, spanname::PlanSelect);
  }
  for (int T = 1; T <= Threads; ++T)
    EXPECT_EQ(PerRequest[T], SpansPerThread);

  // Drained means gone: a second drain is empty.
  EXPECT_TRUE(Recorder.drain().empty());
}

TEST(SpanRecorderTest, ScopedSpanAndRequestIdNest) {
  SpanRecorder &Recorder = SpanRecorder::instance();
  Recorder.arm();
  {
    ScopedRequestId Outer(7);
    ScopedSpan OuterSpan("test.outer");
    {
      ScopedRequestId Inner(9);
      ScopedSpan InnerSpan("test.inner");
      EXPECT_EQ(SpanRecorder::currentRequestId(), 9u);
    }
    // The inner scope restored the outer id.
    EXPECT_EQ(SpanRecorder::currentRequestId(), 7u);
    ScopedSpan AfterSpan("test.after");
  }
  EXPECT_EQ(SpanRecorder::currentRequestId(), 0u);

  const std::vector<TraceSpan> Spans = Recorder.drain();
  Recorder.disarm();
  ASSERT_EQ(Spans.size(), 3u);
  // Inner closes first, then after, then outer; sorted by start the
  // order is outer, inner, after.
  EXPECT_STREQ(Spans[0].Name, "test.outer");
  EXPECT_EQ(Spans[0].RequestId, 7u);
  EXPECT_STREQ(Spans[1].Name, "test.inner");
  EXPECT_EQ(Spans[1].RequestId, 9u);
  EXPECT_STREQ(Spans[2].Name, "test.after");
  EXPECT_EQ(Spans[2].RequestId, 7u);
  // Nesting is reflected in the intervals: outer contains inner.
  EXPECT_LE(Spans[0].StartNs, Spans[1].StartNs);
  EXPECT_GE(Spans[0].StartNs + Spans[0].DurNs,
            Spans[1].StartNs + Spans[1].DurNs);
}

TEST(SpanRecorderTest, RingOverflowKeepsNewestAndCountsDrops) {
  SpanRecorder &Recorder = SpanRecorder::instance();
  Recorder.arm(/*CapacityPerThread=*/8);
  EXPECT_EQ(Recorder.capacityPerThread(), 8u);
  for (uint64_t I = 0; I < 20; ++I)
    Recorder.record("test.overflow", /*StartNs=*/1000 + I, /*DurNs=*/1);
  EXPECT_EQ(Recorder.dropped(), 12u);

  const std::vector<TraceSpan> Spans = Recorder.drain();
  Recorder.disarm();
  ASSERT_EQ(Spans.size(), 8u);
  // The newest 8 spans survive, oldest-first.
  for (uint64_t I = 0; I < 8; ++I)
    EXPECT_EQ(Spans[I].StartNs, 1000 + 12 + I);
  // Drain folded the per-ring drop count into the recorder total.
  EXPECT_EQ(Recorder.dropped(), 12u);
  // Re-arming zeroes it.
  Recorder.arm();
  EXPECT_EQ(Recorder.dropped(), 0u);
  Recorder.disarm();
}

TEST(SpanRecorderTest, DisarmedSpansCostNoAllocationAndRecordNothing) {
  SpanRecorder &Recorder = SpanRecorder::instance();
  Recorder.arm();
  (void)Recorder.drain(); // flush leftovers from other tests
  Recorder.disarm();

  const uint64_t Before = allocationCount();
  for (int I = 0; I < 1000; ++I) {
    ScopedSpan Span(spanname::PlanRun);
    Span.tag("modeled_ms", 1.0);
    ScopedRequestId Id(42);
    Recorder.record("test.manual", 1, 1);
  }
  EXPECT_EQ(allocationCount(), Before);
  EXPECT_TRUE(Recorder.drain().empty());
}

TEST(SpanRecorderTest, ChromeTraceJsonRebasesAndTags) {
  std::vector<TraceSpan> Spans;
  TraceSpan A;
  A.Name = "plan.select";
  A.StartNs = 5000;
  A.DurNs = 1500;
  A.RequestId = 3;
  A.TagKey = "modeled_ms";
  A.TagValue = 0.25;
  A.ThreadId = 1;
  A.Seq = 0;
  TraceSpan B = A;
  B.Name = "plan.run";
  B.StartNs = 7000;
  B.DurNs = 500;
  B.TagKey = nullptr;
  B.ThreadId = 2;
  B.Seq = 1;
  Spans.push_back(A);
  Spans.push_back(B);

  const std::string Json = SpanRecorder::chromeTraceJson(Spans);
  // Timestamps are microseconds rebased to the earliest span.
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"plan.select\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(Json.find("\"modeled_ms\":0.25"), std::string::npos);
  EXPECT_NE(Json.find("\"request_id\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":2"), std::string::npos);
  // No spans still yields a loadable document.
  EXPECT_NE(SpanRecorder::chromeTraceJson({}).find("\"traceEvents\":["),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// ServerStats is a view of the registry
//===----------------------------------------------------------------------===//

TEST(ObservabilityIntegrationTest, ServerStatsMatchesRegistry) {
  // One request sequence, served by a disarmed twin and then by the armed
  // service under test: three executes (the first verified) and a select.
  const auto Matrix =
      std::make_shared<const CsrMatrix>(genBanded(1024, 8, 0.9, 7));
  ServiceConfig Config;
  SeerService Twin(tinyModels(), Config);
  SeerService Service(tinyModels(), Config);
  std::array<std::vector<ServeResponse>, 2> Responses;
  for (const bool Armed : {false, true}) {
    if (Armed)
      SpanRecorder::instance().arm();
    else
      SpanRecorder::instance().disarm();
    SeerService &Target = Armed ? Service : Twin;
    const auto Handle = Target.registerMatrix(Matrix);
    ASSERT_TRUE(Handle.ok());
    for (int I = 0; I < 3; ++I) {
      auto Executed = Target.execute(*Handle, 5, /*VerifyOracle=*/I == 0);
      ASSERT_TRUE(Executed.ok());
      Responses[Armed].push_back(std::move(*Executed));
    }
    auto Selected = Target.select(*Handle, 5);
    ASSERT_TRUE(Selected.ok());
    Responses[Armed].push_back(std::move(*Selected));
  }

  // Observation never changes what a request answers or is charged.
  for (size_t I = 0; I < Responses[0].size(); ++I) {
    const ServeResponse &Disarmed = Responses[0][I];
    const ServeResponse &Armed = Responses[1][I];
    EXPECT_EQ(Armed.Selection.KernelIndex, Disarmed.Selection.KernelIndex);
    EXPECT_EQ(Armed.Selection.UsedGatheredModel,
              Disarmed.Selection.UsedGatheredModel);
    EXPECT_EQ(Armed.Y, Disarmed.Y);
    EXPECT_EQ(Armed.totalMs(), Disarmed.totalMs()) << "request " << I;
  }

  const ServerStats S = Service.stats();
  MetricsRegistry &Reg = Service.metrics();

  // Counters: the snapshot is read straight off the registry.
  EXPECT_EQ(S.Requests, Reg.counter("seer_requests_total").value());
  EXPECT_EQ(S.Registrations, Reg.counter("seer_registrations_total").value());
  EXPECT_EQ(S.CacheHits, Reg.counter("seer_cache_hits_total").value());
  EXPECT_EQ(S.Executions, Reg.counter("seer_executions_total").value());
  EXPECT_EQ(S.OracleChecks, Reg.counter("seer_oracle_checks_total").value());
  EXPECT_EQ(S.Retries, Reg.counter("seer_retries_total").value());
  EXPECT_EQ(S.AsyncAccepted, Reg.counter("seer_async_accepted_total").value());
  EXPECT_EQ(S.Requests, 4u);
  EXPECT_EQ(S.Executions, 3u);

  // Latency summary: derived from the seer_latency_us histogram.
  Histogram &Latency = Reg.histogram("seer_latency_us");
  EXPECT_EQ(S.LatencySamples, Latency.samples());
  EXPECT_DOUBLE_EQ(S.MeanLatencyUs, Latency.mean());
  EXPECT_DOUBLE_EQ(S.P50LatencyUs, Latency.percentile(0.50));
  EXPECT_DOUBLE_EQ(S.P99LatencyUs, Latency.percentile(0.99));

  // Gauges: stats() published the derived levels, so an export taken now
  // carries the complete ServerStats picture.
  EXPECT_EQ(static_cast<uint64_t>(Reg.gauge("seer_bytes_cached").value()),
            S.BytesCached);
  EXPECT_EQ(static_cast<uint64_t>(Reg.gauge("seer_cached_matrices").value()),
            S.CachedMatrices);
  EXPECT_EQ(static_cast<uint64_t>(Reg.gauge("seer_active_handles").value()),
            S.ActiveHandles);
  EXPECT_EQ(static_cast<uint64_t>(Reg.gauge("seer_cache_misses").value()),
            S.CacheMisses);
  EXPECT_DOUBLE_EQ(Reg.gauge("seer_hit_rate").value(), S.hitRate());

  // The armed recorder saw the request pipeline: per-stage histograms
  // filled and spans recorded for every stage of a cache-miss execute.
  EXPECT_GE(Reg.histogram("seer_stage_select_us").samples(), 1u);
  EXPECT_GE(Reg.histogram("seer_stage_run_us").samples(), 3u);
  EXPECT_GE(Reg.histogram("seer_cost_model_error_select").samples(), 1u);

  const std::vector<TraceSpan> Spans = SpanRecorder::instance().drain();
  SpanRecorder::instance().disarm();
  bool SawServe = false, SawSelect = false, SawRun = false, SawProbe = false;
  for (const TraceSpan &Span : Spans) {
    SawServe |= Span.Name == std::string(spanname::Serve);
    SawSelect |= Span.Name == std::string(spanname::PlanSelect);
    SawRun |= Span.Name == std::string(spanname::PlanRun);
    SawProbe |= Span.Name == std::string(spanname::CacheProbe);
  }
  EXPECT_TRUE(SawServe);
  EXPECT_TRUE(SawSelect);
  EXPECT_TRUE(SawRun);
  EXPECT_TRUE(SawProbe);

  // resetStats zeroes the request wave but the stage histograms (and the
  // session counters) survive.
  const uint64_t StageSamples = Reg.histogram("seer_stage_select_us").samples();
  Service.resetStats();
  EXPECT_EQ(Service.stats().Requests, 0u);
  EXPECT_EQ(Reg.counter("seer_requests_total").value(), 0u);
  EXPECT_EQ(Reg.histogram("seer_stage_select_us").samples(), StageSamples);
}
