//===- support/Metrics.cpp - Unified metrics registry ---------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

namespace seer {

namespace {

/// The histogram covers [0.01, 1e8) geometrically: bucket I spans
/// [Lowest*G^I, Lowest*G^(I+1)) with G = 10^(10/128), i.e. 12.8 buckets
/// per decade. For latency in microseconds that is 10ns resolution at
/// the bottom and 100 seconds at the top.
constexpr double LowestValue = 0.01;
const double GrowthLog = std::log(10.0) * (10.0 / 128.0);

size_t bucketFor(double Value) {
  if (Value <= LowestValue)
    return 0;
  double Index = std::log(Value / LowestValue) / GrowthLog;
  if (Index >= static_cast<double>(Histogram::NumBuckets - 1))
    return Histogram::NumBuckets - 1;
  return static_cast<size_t>(Index);
}

/// Formats a double with enough digits to round-trip visually while
/// staying deterministic across platforms.
std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.9g", V);
  return Buf;
}

/// Stat-line values: integral values print as plain integers (byte
/// counts stay parseable at any size), everything else as formatDouble.
std::string formatStatValue(double V) {
  if (V != std::floor(V) || std::fabs(V) >= 1e15)
    return formatDouble(V);
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.0f", V);
  return Buf;
}

/// `seer_requests_total` -> `requests`: the stat-line name of a metric.
std::string statName(const std::string &Metric) {
  std::string Name = Metric;
  if (Name.compare(0, 5, "seer_") == 0)
    Name.erase(0, 5);
  if (Name.size() > 6 && Name.compare(Name.size() - 6, 6, "_total") == 0)
    Name.erase(Name.size() - 6);
  return Name;
}

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

} // namespace

void Histogram::record(double Value) {
  if (!std::isfinite(Value) || Value < 0.0) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buckets[bucketFor(Value)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  // Saturating accumulate of the scaled total: a CAS loop instead of
  // fetch_add so an overflow pins at max rather than wrapping the mean.
  uint64_t Add = Value >= 1.8e16
                     ? std::numeric_limits<uint64_t>::max()
                     : static_cast<uint64_t>(Value * 1000.0);
  uint64_t Cur = ScaledTotal.load(std::memory_order_relaxed);
  uint64_t Next;
  do {
    Next = Cur > std::numeric_limits<uint64_t>::max() - Add
               ? std::numeric_limits<uint64_t>::max()
               : Cur + Add;
  } while (!ScaledTotal.compare_exchange_weak(Cur, Next,
                                              std::memory_order_relaxed));
}

double Histogram::sum() const {
  return static_cast<double>(ScaledTotal.load(std::memory_order_relaxed)) /
         1000.0;
}

double Histogram::mean() const {
  uint64_t N = Count.load(std::memory_order_relaxed);
  if (N == 0)
    return 0.0;
  return sum() / static_cast<double>(N);
}

double Histogram::percentile(double P) const {
  uint64_t N = Count.load(std::memory_order_relaxed);
  if (N == 0)
    return 0.0;
  double Target = std::max(1.0, P * static_cast<double>(N));
  double Cumulative = 0.0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    uint64_t InBucket = Buckets[I].load(std::memory_order_relaxed);
    if (InBucket == 0)
      continue;
    double Before = Cumulative;
    Cumulative += static_cast<double>(InBucket);
    if (Cumulative >= Target) {
      // The target rank lands in this bucket; interpolate geometrically
      // by the fraction of the bucket's samples below it. Frac is in
      // (0, 1], so a bucket's estimate ranges from just above its lower
      // bound to its upper bound, centering on the geometric midpoint
      // when the rank splits the bucket evenly.
      double Frac = (Target - Before) / static_cast<double>(InBucket);
      return LowestValue * std::exp(GrowthLog * (static_cast<double>(I) +
                                                 std::min(Frac, 1.0)));
    }
  }
  return LowestValue * std::exp(GrowthLog * static_cast<double>(NumBuckets));
}

double Histogram::bucketUpperBound(size_t Index) {
  if (Index >= NumBuckets - 1)
    return std::numeric_limits<double>::infinity();
  return LowestValue * std::exp(GrowthLog * static_cast<double>(Index + 1));
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Rejected.store(0, std::memory_order_relaxed);
  ScaledTotal.store(0, std::memory_order_relaxed);
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  MutexLock Lock(Mutex);
  assert(Gauges.find(Name) == Gauges.end() &&
         Histograms.find(Name) == Histograms.end() &&
         "metric name already registered as a different kind");
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  MutexLock Lock(Mutex);
  assert(Counters.find(Name) == Counters.end() &&
         Histograms.find(Name) == Histograms.end() &&
         "metric name already registered as a different kind");
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  MutexLock Lock(Mutex);
  assert(Counters.find(Name) == Counters.end() &&
         Gauges.find(Name) == Gauges.end() &&
         "metric name already registered as a different kind");
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

std::string MetricsRegistry::prometheusText() const {
  MutexLock Lock(Mutex);
  std::string Out;
  // std::map iteration is name-ordered, so the exposition is
  // deterministic; kinds are interleaved by merging the three ordered
  // walks so the whole document stays sorted by metric name.
  auto CI = Counters.begin();
  auto GI = Gauges.begin();
  auto HI = Histograms.begin();
  while (CI != Counters.end() || GI != Gauges.end() || HI != Histograms.end()) {
    const std::string *Next = nullptr;
    if (CI != Counters.end())
      Next = &CI->first;
    if (GI != Gauges.end() && (!Next || GI->first < *Next))
      Next = &GI->first;
    if (HI != Histograms.end() && (!Next || HI->first < *Next))
      Next = &HI->first;
    if (CI != Counters.end() && &CI->first == Next) {
      Out += "# TYPE " + CI->first + " counter\n";
      Out += CI->first + " " + std::to_string(CI->second->value()) + "\n";
      ++CI;
    } else if (GI != Gauges.end() && &GI->first == Next) {
      Out += "# TYPE " + GI->first + " gauge\n";
      Out += GI->first + " " + formatDouble(GI->second->value()) + "\n";
      ++GI;
    } else {
      const std::string &Name = HI->first;
      const Histogram &H = *HI->second;
      Out += "# TYPE " + Name + " histogram\n";
      uint64_t Cumulative = 0;
      for (size_t I = 0; I < Histogram::NumBuckets; ++I) {
        uint64_t InBucket = H.bucketCount(I);
        if (InBucket == 0)
          continue;
        Cumulative += InBucket;
        double UB = Histogram::bucketUpperBound(I);
        if (std::isinf(UB))
          continue; // folded into the mandatory +Inf bucket below
        Out += Name + "_bucket{le=\"" + formatDouble(UB) + "\"} " +
               std::to_string(Cumulative) + "\n";
      }
      Out += Name + "_bucket{le=\"+Inf\"} " + std::to_string(H.samples()) +
             "\n";
      Out += Name + "_sum " + formatDouble(H.sum()) + "\n";
      Out += Name + "_count " + std::to_string(H.samples()) + "\n";
      ++HI;
    }
  }
  return Out;
}

std::string MetricsRegistry::jsonSnapshot() const {
  MutexLock Lock(Mutex);
  std::string Out;
  auto EmitScalar = [&Out](const char *Kind, const std::string &Name,
                           const std::string &Value) {
    Out += "{\"kind\":\"";
    Out += Kind;
    Out += "\",\"name\":";
    appendJsonString(Out, Name);
    Out += ",\"value\":" + Value + "}\n";
  };
  for (const auto &[Name, C] : Counters)
    EmitScalar("counter", Name, std::to_string(C->value()));
  for (const auto &[Name, G] : Gauges)
    EmitScalar("gauge", Name, formatDouble(G->value()));
  for (const auto &[Name, HP] : Histograms) {
    const Histogram &H = *HP;
    Out += "{\"kind\":\"histogram\",\"name\":";
    appendJsonString(Out, Name);
    Out += ",\"count\":" + std::to_string(H.samples());
    Out += ",\"sum\":" + formatDouble(H.sum());
    Out += ",\"rejected\":" + std::to_string(H.rejected());
    Out += ",\"buckets\":[";
    uint64_t Cumulative = 0;
    bool First = true;
    for (size_t I = 0; I < Histogram::NumBuckets; ++I) {
      uint64_t InBucket = H.bucketCount(I);
      if (InBucket == 0)
        continue;
      Cumulative += InBucket;
      double UB = Histogram::bucketUpperBound(I);
      if (!First)
        Out += ',';
      First = false;
      Out += "{\"le\":";
      appendJsonString(Out, std::isinf(UB) ? "+Inf" : formatDouble(UB));
      Out += ",\"count\":" + std::to_string(Cumulative) + "}";
    }
    Out += "]}\n";
  }
  return Out;
}

std::string MetricsRegistry::statLines() const {
  MutexLock Lock(Mutex);
  // Keyed by the full metric name, so the kinds interleave in the order
  // prometheusText() emits them.
  std::map<std::string, std::string> Lines;
  for (const auto &[Name, C] : Counters)
    Lines[Name] =
        "stat " + statName(Name) + " " + std::to_string(C->value()) + "\n";
  for (const auto &[Name, G] : Gauges)
    Lines[Name] =
        "stat " + statName(Name) + " " + formatStatValue(G->value()) + "\n";
  for (const auto &[Name, H] : Histograms) {
    const std::string Stat = "stat " + statName(Name);
    Lines[Name] = Stat + "_count " + std::to_string(H->samples()) + "\n" +
                  Stat + "_mean " + formatStatValue(H->mean()) + "\n" +
                  Stat + "_p50 " + formatStatValue(H->percentile(0.50)) +
                  "\n" + Stat + "_p99 " +
                  formatStatValue(H->percentile(0.99)) + "\n";
  }
  std::string Out;
  for (const auto &KV : Lines)
    Out += KV.second;
  return Out;
}

MetricsRegistry &MetricsRegistry::process() {
  static MetricsRegistry Instance;
  return Instance;
}

} // namespace seer
