//===- perfbench/src/Harness.cpp ------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Fnv.h"
#include "support/Statistics.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unistd.h>

using namespace seer;

namespace perfbench {

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuNow() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
}

double pidCpuSeconds(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  if (!std::getline(In, Line))
    return -1.0;
  // The command name (field 2) may contain spaces; fields resume after
  // its closing parenthesis. utime and stime are fields 14 and 15.
  const size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return -1.0;
  std::istringstream Fields(Line.substr(Close + 2));
  std::string Field;
  double Ticks = 0.0;
  for (int Index = 3; Fields >> Field && Index <= 15; ++Index)
    if (Index == 14 || Index == 15)
      Ticks += std::stod(Field);
  return Ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peakRssMb(const std::string &Which) {
  std::ifstream In("/proc/" + Which + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return -1.0;
}

std::string buildDigest() {
  std::ifstream Self("/proc/self/exe", std::ios::binary);
  const std::string Bytes((std::istreambuf_iterator<char>(Self)),
                          std::istreambuf_iterator<char>());
  Fnv1a Hash;
  Hash.add(static_cast<uint64_t>(Bytes.size()));
  for (size_t I = 0; I + 8 <= Bytes.size(); I += 8) {
    uint64_t Word;
    std::memcpy(&Word, Bytes.data() + I, 8);
    Hash.add(Word);
  }
  for (size_t I = Bytes.size() & ~size_t(7); I < Bytes.size(); ++I)
    Hash.add(static_cast<uint64_t>(static_cast<unsigned char>(Bytes[I])));
  return std::to_string(Hash.value());
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

double tailLatency(std::vector<double> Values) {
  const double N = static_cast<double>(Values.size());
  if (N < 11)
    return quantile(std::move(Values), 1.0);
  return quantile(std::move(Values), std::min(0.99, 1.0 - 10.0 / N));
}

uint64_t hashVector(const std::vector<double> &Y) {
  Fnv1a Hash;
  Hash.add(static_cast<uint64_t>(Y.size()));
  for (double V : Y)
    Hash.add(V);
  return Hash.value();
}

std::string kernelKey(const std::string &KernelName) {
  std::string Key;
  for (char C : KernelName)
    Key += C == ',' ? '_' : static_cast<char>(std::tolower(C));
  return Key;
}

void Outcome::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

size_t MatrixReference::slot(uint32_t Iterations) {
  for (size_t I = 0; I < std::size(IterationChoices); ++I)
    if (IterationChoices[I] == Iterations)
      return I;
  return 0;
}

MatrixReference computeReference(const Planner &Pipeline, const CsrMatrix &M,
                                 bool WithModels, Outcome &Out) {
  MatrixReference Ref;
  const size_t NumKernels = Pipeline.registry().size();
  const std::vector<double> Ones(M.numCols(), 1.0);
  std::vector<double> Expected;
  std::vector<SpmvRun> Runs(NumKernels);
  std::vector<bool> Ran(NumKernels, false);
  Out.PrepareFaults.resize(NumKernels, 0);
  {
    // Only library calls inside the member span, so its children (the
    // layers) account for all of it; the checks run after it closes.
    ScopedSpan Member("bench.replay.member");
    AnalyzedMatrix A;
    {
      ScopedSpan Span("bench.core.analyze");
      A = Pipeline.analyze(M);
    }
    {
      ScopedSpan Span("bench.core.collect");
      Ref.CollectionMs = Pipeline.collect(A).CollectionMs;
    }
    if (WithModels) {
      ScopedSpan Span("bench.core.select");
      for (uint32_t Iterations : IterationChoices) {
        const ExecutionPlan Plan =
            Pipeline.plan(A, Iterations, CollectionCharging::Charged);
        Ref.Chosen.push_back(Plan.kernelIndex());
        Ref.Gathered.push_back(Plan.Selection.UsedGatheredModel);
      }
    }
    {
      ScopedSpan Span("bench.sparse.multiply");
      Expected = M.multiply(Ones);
    }
    Ref.Kernels.resize(NumKernels);
    for (size_t K = 0; K < NumKernels; ++K) {
      try {
        ExecutionPlan Plan;
        {
          ScopedSpan Span("bench.kernels.prepare");
          Span.tag("kernel", static_cast<double>(K));
          Plan = Pipeline.planForKernel(A, K);
        }
        ScopedSpan Span("bench.kernels.run");
        Span.tag("kernel", static_cast<double>(K));
        Runs[K] = Pipeline.run(Plan, A, Ones);
        Ref.Kernels[K].PreprocessMs = Plan.ModeledPreprocessMs;
        Ran[K] = true;
      } catch (const std::exception &E) {
        ++Out.PrepareFaults[K];
        Out.fail("reference: kernel " + Pipeline.registry().kernel(K).name() +
                 " threw: " + E.what());
      }
    }
  }
  for (size_t K = 0; K < NumKernels; ++K) {
    Out.attempt();
    if (!Ran[K])
      continue;
    // The kernels must agree with the raw multiply (the Benchmarker's own
    // verification tolerance).
    const std::vector<double> &Y = Runs[K].Y;
    bool Agrees = Y.size() == Expected.size();
    for (size_t Row = 0; Agrees && Row < Expected.size(); ++Row)
      Agrees = std::abs(Y[Row] - Expected[Row]) <=
               1e-9 * std::max({std::abs(Y[Row]), std::abs(Expected[Row]), 1.0});
    if (!Agrees)
      Out.fail("reference: kernel " + Pipeline.registry().kernel(K).name() +
               " disagrees with CsrMatrix::multiply");
    Ref.Kernels[K].IterationMs = Runs[K].Timing.TotalMs;
    Ref.Kernels[K].OnesYHash = hashVector(Y);
  }
  for (uint32_t Iterations : IterationChoices) {
    size_t Best = 0;
    for (size_t K = 1; K < NumKernels; ++K)
      if (Ref.Kernels[K].totalMs(Iterations) <
          Ref.Kernels[Best].totalMs(Iterations))
        Best = K;
    Ref.Oracle.push_back(Best);
  }
  return Ref;
}

void ModeledTally::add(const MatrixReference &Ref, uint32_t Iterations,
                       double Operands, size_t Chosen, bool Verified) {
  if (PerKernelMs.empty())
    PerKernelMs.assign(Ref.Kernels.size(), 0.0);
  const size_t Slot = MatrixReference::slot(Iterations);
  for (size_t K = 0; K < Ref.Kernels.size(); ++K)
    PerKernelMs[K] += Ref.Kernels[K].totalMs(Iterations, Operands);
  const double ChosenTotal = Ref.Kernels[Chosen].totalMs(Iterations, Operands);
  ChosenMs += ChosenTotal;
  ++Executed;
  if (Chosen == Ref.Oracle[Slot])
    ++Correct;
  if (Verified) {
    VerifiedChosenMs += ChosenTotal;
    VerifiedOracleMs += Ref.Kernels[Ref.Oracle[Slot]].totalMs(Iterations, Operands);
  }
}

void ModeledTally::emit(std::map<std::string, double> &Metrics) const {
  Metrics["modeled_ms_per_request"] =
      Requests ? ChargedMs / static_cast<double>(Requests) : 0.0;
  Metrics["regret_pct"] =
      VerifiedOracleMs > 0 ? 100.0 * (VerifiedChosenMs / VerifiedOracleMs - 1.0)
                           : 0.0;
  std::vector<double> Speedups;
  for (double KernelMs : PerKernelMs)
    Speedups.push_back(ChosenMs > 0 ? KernelMs / ChosenMs : 0.0);
  Metrics["speedup_vs_best_kernel"] =
      Speedups.empty() ? 0.0
                       : *std::min_element(Speedups.begin(), Speedups.end());
  Metrics["geomean_speedup"] = Speedups.empty() ? 0.0 : geomean(Speedups);
  Metrics["selector_accuracy"] =
      Executed ? static_cast<double>(Correct) / static_cast<double>(Executed)
               : 0.0;
}

double medianWall(const std::vector<Round> &Rounds) {
  std::vector<double> Walls;
  for (const Round &R : Rounds)
    Walls.push_back(R.WallS);
  return quantile(Walls, 0.5);
}

namespace {

std::vector<TraceSpan> &collectedSpans() {
  static std::vector<TraceSpan> Spans;
  return Spans;
}

std::string jsonString(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

template <typename Map, typename Fmt>
std::string jsonObject(const Map &Values, Fmt Format) {
  std::string Out = "{";
  for (const auto &[Key, Value] : Values) {
    if (Out.size() > 1)
      Out += ',';
    Out += jsonString(Key) + ":" + Format(Value);
  }
  return Out + "}";
}

std::string jsonList(const std::vector<double> &Values) {
  std::string Out = "[";
  for (double V : Values) {
    if (Out.size() > 1)
      Out += ',';
    Out += jsonNumber(V);
  }
  return Out + "]";
}

} // namespace

void armTracing() {
  // Large rings: the benchmark drains between rounds, never mid-round.
  SpanRecorder::instance().arm(size_t(1) << 18);
}

void drainTracing(const std::string &Path, bool Final) {
  std::vector<TraceSpan> Drained = SpanRecorder::instance().drain();
  std::vector<TraceSpan> &All = collectedSpans();
  All.insert(All.end(), Drained.begin(), Drained.end());
  if (!Final)
    return;
  SpanRecorder::instance().disarm();
  std::sort(All.begin(), All.end(), [](const TraceSpan &A, const TraceSpan &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Seq < B.Seq;
  });
  std::ofstream Out(Path);
  Out << SpanRecorder::chromeTraceJson(All);
  if (SpanRecorder::instance().dropped() > 0)
    std::fprintf(stderr, "seer_perfbench: %llu span(s) dropped\n",
                 static_cast<unsigned long long>(
                     SpanRecorder::instance().dropped()));
}

std::string toJson(const RunResult &R) {
  std::vector<double> Wall, Cpu;
  for (const Round &Rd : R.Rounds) {
    Wall.push_back(Rd.WallS);
    Cpu.push_back(Rd.CpuS);
  }
  std::vector<std::string> Errors = R.Out.Errors;
  std::string ErrorList = "[";
  for (const std::string &E : Errors) {
    if (ErrorList.size() > 1)
      ErrorList += ',';
    ErrorList += jsonString(E);
  }
  ErrorList += "]";
  std::string Kernels = "[";
  for (const std::string &K : R.KernelNames) {
    if (Kernels.size() > 1)
      Kernels += ',';
    Kernels += jsonString(kernelKey(K));
  }
  Kernels += "]";
  std::map<std::string, double> Layers = R.Layers;
  Layers["sparse.generate_faults"] = static_cast<double>(R.Out.GenerateFaults);
  for (size_t K = 0; K < R.KernelNames.size(); ++K)
    Layers["kernels.prepare_faults." + kernelKey(R.KernelNames[K])] =
        K < R.Out.PrepareFaults.size()
            ? static_cast<double>(R.Out.PrepareFaults[K])
            : 0.0;
  std::vector<double> Latencies = R.LatenciesUs;
  std::map<std::string, double> Latency;
  if (!Latencies.empty()) {
    Latency["p50"] = quantile(Latencies, 0.5);
    Latency["p99"] = tailLatency(Latencies);
    Latency["samples"] = static_cast<double>(Latencies.size());
  }
  return std::string("{") + "\"attempted\":" + std::to_string(R.Out.Attempted) +
         ",\"failed\":" + std::to_string(R.Out.Failed) +
         ",\"errors\":" + ErrorList + ",\"setup_s\":" + jsonList(R.SetupS) +
         ",\"round_wall_s\":" + jsonList(Wall) +
         ",\"round_cpu_s\":" + jsonList(Cpu) +
         ",\"latency_us\":" + jsonObject(Latency, jsonNumber) +
         ",\"modeled\":" + jsonObject(R.Modeled, jsonNumber) +
         ",\"layers\":" + jsonObject(Layers, jsonNumber) +
         ",\"notes\":" + jsonObject(R.Notes, jsonString) +
         ",\"peak_rss_mb\":" + jsonNumber(peakRssMb("self")) +
         ",\"untraced_wall_s\":" + jsonNumber(R.UntracedWallS) +
         ",\"traced_wall_s\":" + jsonNumber(R.TracedWallS) +
         ",\"kernels\":" + Kernels + "}";
}

} // namespace perfbench
