//===- bench/serving_throughput.cpp - Serving-layer scaling harness -------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The perf-tracking harness for the serving layer: drives SeerService
// sessions with a synthetic request stream at a ladder of client counts
// and cache-hit ratios, in both select-only and execute modes, and
// writes BENCH_serving.json (throughput, latency percentiles,
// registration time, mispredict rate).
//
// Every response is checked bit-identical against the one-shot
// SeerRuntime answer for the same (matrix, iterations): same kernel, same
// routing, and in execute mode the same product vector. The exit status
// gates on that, so CI catches a serving layer that drifts from Fig. 3.
//
// A churn scenario additionally stresses the byte-budgeted cache: a
// working set several times larger than the configured budget cycles
// through the server for multiple passes, each request registering,
// serving and releasing its matrix, so entries are continuously evicted
// and re-analyzed. The gate extends to the budget invariant — sampled
// after every request while its registration is still live, the
// accounted cache bytes never exceed the budget by more than the live
// registrations pin, and with none live they never exceed it at all —
// and to bit-identity of every selection despite the eviction/re-analysis
// churn.
//
// A chaos scenario arms deterministic fault plans (support/FaultInjector.h)
// against live services and gates the fault-tolerance contract: every
// operation returns a typed response (zero crashes), each injected
// transient fault is recovered by exactly one retry, terminal faults
// degrade to the baseline kernel with Y bit-identical to running that
// kernel directly, cache-insert failures serve uncached but bit-identical,
// and expired deadlines surface DEADLINE_EXCEEDED.
//
//   serving_throughput [--out FILE] [--clients LIST] [--requests N]
//                      [--hit-ratios LIST] [--variants N] [--max-rows N]
//
//===----------------------------------------------------------------------===//

#include "api/SeerService.h"
#include "core/ExecutionPlan.h"
#include "core/ModelBundle.h"
#include "core/Seer.h"
#include "net/NetClient.h"
#include "net/Socket.h"
#include "serve/SeerServer.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "support/Tracing.h"

#include "../tools/ToolSupport.h"
#include "BenchCommon.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: serving_throughput [options]\n"
    "\n"
    "Times session-handle serving vs. client count and cache-hit\n"
    "ratio, verifies bit-identity against one-shot SeerRuntime calls, and\n"
    "writes BENCH_serving.json.\n"
    "\n"
    "options:\n"
    "  --out FILE         output JSON path (default BENCH_serving.json)\n"
    "  --clients LIST     client counts (default 1,2,4,8)\n"
    "  --requests N       requests per run (default 512)\n"
    "  --hit-ratios LIST  target cache-hit ratios (default 0,0.5,0.9)\n"
    "  --variants N       training-collection variants per cell (default 2)\n"
    "  --max-rows N       training-collection size cap (default 16384)\n"
    "  --select-baseline-us B  select-micro gate: mean compiled\n"
    "                     handle-select must stay at or below the larger\n"
    "                     of B microseconds and the same-run interpreted\n"
    "                     mean (default 0.21, the committed\n"
    "                     interpreted-path baseline)\n";

/// The request matrices: a pool of small irregular inputs cycling the
/// generator families (pool index seeds every stream, so the pool is
/// deterministic).
std::vector<CsrMatrix> buildPool(size_t Size) {
  std::vector<CsrMatrix> Pool;
  Pool.reserve(Size);
  for (size_t I = 0; I < Size; ++I) {
    const uint32_t Rows = 256u << (I % 4); // 256 .. 2048
    const uint64_t Seed = 0x5e21e0ull + I;
    switch (I % 4) {
    case 0:
      Pool.push_back(genBanded(Rows, 8, 0.9, Seed));
      break;
    case 1:
      Pool.push_back(genPowerLaw(Rows, Rows, 1.8, 1, Rows / 4, Seed));
      break;
    case 2:
      Pool.push_back(genUniformRandom(Rows, Rows, 12.0, 0.5, Seed));
      break;
    default:
      Pool.push_back(genDenseRowOutlier(Rows, Rows, 6.0, 4, Rows / 8, Seed));
      break;
    }
  }
  return Pool;
}

struct RunRecord {
  std::string Mode;
  unsigned Clients = 0;
  bool Execute = false;
  double TargetHitRatio = 0.0;
  size_t UniqueMatrices = 0;
  size_t Requests = 0;
  double WallSeconds = 0.0;
  ServerStats Stats;
  bool BitIdentical = true;
  /// v2/async runs only: one-time session setup (registration of the
  /// unique matrices — fingerprint + analysis) outside the timed window.
  double RegistrationSeconds = 0.0;
  /// Churn runs only: the configured budget, the largest accounted byte
  /// count ever observed, the largest allowance any sample had for bytes
  /// pinned by live registrations, and whether every sample stayed
  /// within the budget plus its allowance.
  size_t BudgetBytes = 0;
  uint64_t MaxBytesCached = 0;
  uint64_t MaxPinnedSlackBytes = 0;
  bool BudgetRespected = true;
  /// batch-execute runs only: mean per-operand host cost (informational;
  /// noisy on shared hosts) and mean per-operand *charged* modeled cost
  /// (deterministic — the repo's cost currency) of the same operand
  /// stream served one request at a time vs. through executeBatch. The
  /// gate compares the charged means: a batch charges selection overhead
  /// and preprocessing once, so its per-operand mean is strictly below
  /// the single-execute mean whenever a batch has more than one operand.
  double SingleMeanUs = 0.0;
  double BatchMeanUs = 0.0;
  double SingleChargedMsPerOp = 0.0;
  double BatchChargedMsPerOp = 0.0;
  bool BatchFaster = true;
};

/// Expected answers from the one-shot runtime, memoized per
/// (pool index, iterations).
struct ExpectedAnswer {
  SelectionResult Selection;
  std::vector<double> Y; // execute mode only
};

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"out", "clients", "hit-ratios", "select-baseline-us"};
  Spec.Int = {"requests", "variants", "max-rows"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string OutPath = Cmd.flag("out", "BENCH_serving.json");
  const size_t Requests =
      static_cast<size_t>(Cmd.intFlag("requests", 512));

  std::vector<unsigned> Clients;
  for (const std::string &Part :
       splitString(Cmd.flag("clients", "1,2,4,8"), ',')) {
    int64_t Value = 0;
    if (!parseInt(Part, Value) || Value < 1)
      fatal("bad --clients entry '" + Part + "'");
    Clients.push_back(static_cast<unsigned>(Value));
  }
  double SelectBaselineUs = 0.21;
  if (!parseDouble(Cmd.flag("select-baseline-us", "0.21"), SelectBaselineUs) ||
      SelectBaselineUs <= 0.0)
    fatal("bad --select-baseline-us value");

  std::vector<double> HitRatios;
  for (const std::string &Part :
       splitString(Cmd.flag("hit-ratios", "0,0.5,0.9"), ',')) {
    double Value = 0.0;
    if (!parseDouble(Part, Value) || Value < 0.0 || Value >= 1.0)
      fatal("bad --hit-ratios entry '" + Part + "'");
    HitRatios.push_back(Value);
  }

  // Train the model triple on a small collection (memoized on disk like
  // every bench binary).
  CollectionConfig Collection;
  Collection.VariantsPerCell =
      static_cast<uint32_t>(Cmd.intFlag("variants", 2));
  Collection.MaxRows = static_cast<uint32_t>(Cmd.intFlag("max-rows", 16384));
  BenchmarkConfig Protocol;
  Protocol.Parallelism = 0;
  const std::vector<MatrixBenchmark> Benchmarks = benchmarkCollectionCached(
      Collection, Protocol, DeviceModel::mi100(), bench::cacheDirectory(),
      /*Verbose=*/true);
  const KernelRegistry Registry;
  TrainerConfig Trainer;
  Trainer.Parallelism = 0;
  const SeerModels Models =
      trainSeerModels(Benchmarks, Registry.names(), Trainer);

  const std::vector<CsrMatrix> Pool = buildPool(Requests);
  const uint32_t IterationPattern[3] = {1, 5, 19};

  // One-shot runtime reference (the bit-identity baseline).
  const GpuSimulator Sim(DeviceModel::mi100());
  const SeerRuntime Reference(Models, Registry, Sim);
  std::map<std::pair<size_t, uint32_t>, ExpectedAnswer> Baseline;
  const auto ExpectedFor = [&](size_t PoolIndex, uint32_t Iterations,
                               bool Execute) -> const ExpectedAnswer & {
    ExpectedAnswer &E = Baseline[{PoolIndex, Iterations}];
    if (E.Selection.InferenceMs == 0.0)
      E.Selection = Reference.select(Pool[PoolIndex], Iterations);
    if (Execute && E.Y.empty()) {
      const std::vector<double> X(Pool[PoolIndex].numCols(), 1.0);
      E.Y = Reference.execute(Pool[PoolIndex], X, Iterations).Y;
    }
    return E;
  };

  std::vector<RunRecord> Records;

  // Registers the first Unique pool matrices with a service (zero-copy:
  // the pool outlives every service) and returns the handles plus the
  // one-time registration wall time, reported as registration_s.
  const auto RegisterPool = [&](SeerService &Service, size_t Unique,
                                std::vector<MatrixHandle> &Handles) {
    const auto RegStart = std::chrono::steady_clock::now();
    Handles.resize(Unique);
    for (size_t I = 0; I < Unique; ++I) {
      auto Handle = Service.registerMatrix(std::shared_ptr<const CsrMatrix>(
          std::shared_ptr<void>(), &Pool[I]));
      if (!Handle)
        fatal(Handle.status());
      Handles[I] = *Handle;
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         RegStart)
        .count();
  };

  // The grid: per run the unique matrices are registered once (outside
  // the timed window — fingerprint and analysis are paid there), then the
  // request stream is served through handles. A target hit ratio h over R
  // requests needs U = R * (1 - h) unique matrices.
  for (const bool Execute : {false, true})
    for (const double Ratio : HitRatios)
      for (const unsigned C : Clients) {
        const size_t Unique = std::max<size_t>(
            1, static_cast<size_t>(static_cast<double>(Requests) *
                                   (1.0 - Ratio)));

        SeerService Service(Models);
        std::vector<MatrixHandle> Handles;
        const double RegistrationSeconds =
            RegisterPool(Service, Unique, Handles);

        std::vector<Request> Stream(Requests);
        for (size_t I = 0; I < Requests; ++I) {
          Stream[I].Handle = Handles[I % Unique];
          Stream[I].Iterations = IterationPattern[I % 3];
          Stream[I].Execute = Execute;
          Stream[I].VerifyOracle = Execute;
        }

        std::vector<ServeResponse> Responses(Requests);
        const auto Start = std::chrono::steady_clock::now();
        parallelFor(C, Requests, [&](size_t I) {
          auto Response = Service.serve(Stream[I]);
          if (Response)
            Responses[I] = std::move(*Response);
        });
        const double Wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - Start)
                                .count();

        RunRecord Record;
        Record.Mode = Execute ? "v2-execute" : "v2-select";
        Record.Clients = C;
        Record.Execute = Execute;
        Record.TargetHitRatio = Ratio;
        Record.UniqueMatrices = Unique;
        Record.Requests = Requests;
        Record.WallSeconds = Wall;
        Record.RegistrationSeconds = RegistrationSeconds;
        Record.Stats = Service.stats();
        for (size_t I = 0; I < Responses.size(); ++I) {
          const ExpectedAnswer &E = ExpectedFor(I % Unique, Stream[I].Iterations,
                                          Execute);
          const ServeResponse &R = Responses[I];
          const bool Same =
              R.Selection.KernelIndex == E.Selection.KernelIndex &&
              R.Selection.UsedGatheredModel ==
                  E.Selection.UsedGatheredModel &&
              (!Execute || R.Y == E.Y);
          Record.BitIdentical = Record.BitIdentical && Same;
        }
        Records.push_back(Record);
        std::fprintf(stderr,
                     "  %s clients=%u hit=%.1f  %7.0f req/s  p50 %.1fus  "
                     "p99 %.1fus  reg %.3fs  %s\n",
                     Execute ? "v2-execute" : "v2-select ", C, Ratio,
                     static_cast<double>(Requests) / Wall,
                     Record.Stats.P50LatencyUs, Record.Stats.P99LatencyUs,
                     RegistrationSeconds,
                     Record.BitIdentical ? "ok" : "MISMATCH");
      }

  // Async submission runs: the whole stream submitted through the
  // bounded admission queue (RESOURCE_EXHAUSTED resubmitted after a
  // yield, so backpressure shows up as throughput, not failure), futures
  // drained in order, bit-identity gated like every other mode.
  for (const bool Execute : {false, true}) {
    const double Ratio = HitRatios.back();
    const size_t Unique = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(Requests) *
                               (1.0 - Ratio)));

    SeerService Service(Models);
    std::vector<MatrixHandle> Handles;
    const double RegistrationSeconds = RegisterPool(Service, Unique, Handles);

    std::vector<std::future<Expected<ServeResponse>>> Futures;
    Futures.reserve(Requests);
    const auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Requests; ++I) {
      Request R;
      R.Handle = Handles[I % Unique];
      R.Iterations = IterationPattern[I % 3];
      R.Execute = Execute;
      R.VerifyOracle = Execute;
      for (;;) {
        auto Future = Service.submit(R);
        if (Future) {
          Futures.push_back(std::move(*Future));
          break;
        }
        if (Future.status().code() != StatusCode::ResourceExhausted)
          fatal(Future.status());
        std::this_thread::yield(); // backpressure: let the queue drain
      }
    }
    std::vector<ServeResponse> Responses;
    Responses.reserve(Requests);
    for (std::future<Expected<ServeResponse>> &Future : Futures) {
      Expected<ServeResponse> Got = Future.get();
      if (!Got)
        fatal(Got.status());
      Responses.push_back(std::move(*Got));
    }
    const double Wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();

    RunRecord Record;
    Record.Mode = Execute ? "async-execute" : "async-select";
    Record.Clients = 1; // one submitting thread; the pool fans out
    Record.Execute = Execute;
    Record.TargetHitRatio = Ratio;
    Record.UniqueMatrices = Unique;
    Record.Requests = Requests;
    Record.WallSeconds = Wall;
    Record.RegistrationSeconds = RegistrationSeconds;
    Record.Stats = Service.stats();
    for (size_t I = 0; I < Responses.size(); ++I) {
      const ExpectedAnswer &E =
          ExpectedFor(I % Unique, IterationPattern[I % 3], Execute);
      const ServeResponse &R = Responses[I];
      const bool Same =
          R.Selection.KernelIndex == E.Selection.KernelIndex &&
          R.Selection.UsedGatheredModel == E.Selection.UsedGatheredModel &&
          (!Execute || R.Y == E.Y);
      Record.BitIdentical = Record.BitIdentical && Same;
    }
    Records.push_back(Record);
    std::fprintf(stderr,
                 "  %s  %7.0f req/s  accepted=%llu rejected=%llu  %s\n",
                 Execute ? "async-execute" : "async-select ",
                 static_cast<double>(Requests) / Wall,
                 static_cast<unsigned long long>(Record.Stats.AsyncAccepted),
                 static_cast<unsigned long long>(Record.Stats.AsyncRejected),
                 Record.BitIdentical ? "ok" : "MISMATCH");
  }

  // Batched execution runs: at the highest hit ratio, the same total
  // operand count is served twice through one service — one request at a
  // time (the per-request selection/ledger/telemetry cost paid N times)
  // and as one executeBatch per matrix (one ExecutionPlan, charged once,
  // N operand runs). Both streams are gated bit-identical against the
  // one-shot runtime; the headline gate is the batched per-operand mean
  // cost sitting below the single-execute mean.
  for (const unsigned C : Clients) {
    const double Ratio = HitRatios.back();
    const size_t Unique = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(Requests) *
                               (1.0 - Ratio)));
    const size_t PerMatrix = std::max<size_t>(1, Requests / Unique);
    const uint32_t BatchIterations = 5;

    // All-ones operands, prebuilt outside both timed windows (the single
    // path uses the server's implicit all-ones operand).
    std::vector<std::vector<std::vector<double>>> Operands(Unique);
    for (size_t I = 0; I < Unique; ++I)
      Operands[I].assign(PerMatrix,
                         std::vector<double>(Pool[I].numCols(), 1.0));

    // Warm the one-shot reference memo serially: the timed loops below
    // consult it from worker threads, and the memo map is not
    // thread-safe (same discipline as the churn section).
    for (size_t I = 0; I < Unique; ++I)
      ExpectedFor(I, BatchIterations, true);

    RunRecord Record;
    Record.Mode = "batch-execute";
    Record.Clients = C;
    Record.Execute = true;
    Record.TargetHitRatio = Ratio;
    Record.UniqueMatrices = Unique;
    Record.Requests = Unique * PerMatrix;

    // Each phase gets its own service, so both pay preprocessing exactly
    // once per matrix and the comparison isolates the per-request
    // overhead batching removes. Best-of-N absorbs scheduler noise, and
    // the gated single-client comparison uses process CPU time — on a
    // busy few-core host, wall clock noise (preemption, other tenants)
    // dwarfs the per-request overhead being measured; CPU time counts
    // exactly the work the two paths actually do.
    constexpr int Reps = 5;
    const auto CpuSeconds = [] {
      return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
    };
    double SingleWall = 0.0, BatchWall = 0.0;
    // Charged modeled cost, summed over the stream (deterministic:
    // identical every rep, so the last rep's sums are the values).
    double SingleChargedMs = 0.0, BatchChargedMs = 0.0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      // (a) Single-execute baseline: PerMatrix serve() calls per matrix.
      {
        SeerService Service(Models);
        std::vector<MatrixHandle> Handles;
        Record.RegistrationSeconds = RegisterPool(Service, Unique, Handles);
        std::vector<char> Identical(Unique, 1);
        std::vector<double> ChargedMs(Unique, 0.0);
        const double CpuStart = CpuSeconds();
        const auto Start = std::chrono::steady_clock::now();
        parallelFor(C, Unique, [&](size_t I) {
          for (size_t K = 0; K < PerMatrix; ++K) {
            // One self-contained request per operand: the request owns
            // its operand (copied in), selection and the ledger are
            // charged per call — exactly what batching pays once.
            Request R;
            R.Handle = Handles[I];
            R.Iterations = BatchIterations;
            R.Execute = true;
            R.Operand = Operands[I][K];
            const auto Response = Service.serve(R);
            const ExpectedAnswer &E = ExpectedFor(I, BatchIterations, true);
            if (!Response ||
                Response->Selection.KernelIndex != E.Selection.KernelIndex ||
                Response->Y != E.Y)
              Identical[I] = 0;
            else
              ChargedMs[I] += Response->totalMs();
          }
        });
        const double Wall =
            C == 1 ? CpuSeconds() - CpuStart
                   : std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
        SingleWall = Rep == 0 ? Wall : std::min(SingleWall, Wall);
        SingleChargedMs = 0.0;
        for (size_t I = 0; I < Unique; ++I) {
          Record.BitIdentical = Record.BitIdentical && Identical[I];
          SingleChargedMs += ChargedMs[I];
        }
      }
      // (b) Batched: one executeBatch per matrix over the same operands.
      {
        SeerService Service(Models);
        std::vector<MatrixHandle> Handles;
        RegisterPool(Service, Unique, Handles);
        std::vector<char> Identical(Unique, 1);
        std::vector<double> ChargedMs(Unique, 0.0);
        const double CpuStart = CpuSeconds();
        const auto Start = std::chrono::steady_clock::now();
        parallelFor(C, Unique, [&](size_t I) {
          const auto Response =
              Service.executeBatch(Handles[I], Operands[I], BatchIterations);
          const ExpectedAnswer &E = ExpectedFor(I, BatchIterations, true);
          if (!Response ||
              Response->Selection.KernelIndex != E.Selection.KernelIndex ||
              Response->operands() != PerMatrix) {
            Identical[I] = 0;
            return;
          }
          for (const std::vector<double> &Y : Response->Y)
            if (Y != E.Y)
              Identical[I] = 0;
          ChargedMs[I] = Response->totalMs();
        });
        const double Wall =
            C == 1 ? CpuSeconds() - CpuStart
                   : std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
        BatchWall = Rep == 0 ? Wall : std::min(BatchWall, Wall);
        BatchChargedMs = 0.0;
        for (size_t I = 0; I < Unique; ++I) {
          Record.BitIdentical = Record.BitIdentical && Identical[I];
          BatchChargedMs += ChargedMs[I];
        }
        if (Rep == Reps - 1)
          Record.Stats = Service.stats();
      }
    }

    const double TotalOperands =
        static_cast<double>(Unique) * static_cast<double>(PerMatrix);
    Record.SingleMeanUs = SingleWall * 1e6 / TotalOperands;
    Record.BatchMeanUs = BatchWall * 1e6 / TotalOperands;
    Record.SingleChargedMsPerOp = SingleChargedMs / TotalOperands;
    Record.BatchChargedMsPerOp = BatchChargedMs / TotalOperands;
    // The gate compares the charged modeled cost per operand — the
    // repo's cost currency, deterministic on any host. (The host-time
    // means are reported too, but a ~1us/op effect cannot be gated on a
    // busy shared machine.) Strict improvement requires more than one
    // operand per batch (a 1-operand batch charges exactly what a
    // single request charges); degenerate ratios gate on equality.
    Record.BatchFaster =
        PerMatrix > 1
            ? Record.BatchChargedMsPerOp < Record.SingleChargedMsPerOp
            : Record.BatchChargedMsPerOp <= Record.SingleChargedMsPerOp;
    Record.WallSeconds = BatchWall;
    Records.push_back(Record);
    std::fprintf(stderr,
                 "  batch-execute clients=%u hit=%.1f  charged %.6f -> "
                 "%.6f ms/op  host %.2f -> %.2f us/op  %s%s\n",
                 C, Ratio, Record.SingleChargedMsPerOp,
                 Record.BatchChargedMsPerOp, Record.SingleMeanUs,
                 Record.BatchMeanUs, Record.BitIdentical ? "ok" : "MISMATCH",
                 Record.BatchFaster ? "" : " BATCH-NOT-CHEAPER");
  }

  // Tracing-overhead run: the identical single-client execute stream
  // replayed through fresh services with the span recorder disarmed and
  // armed. The gate compares the *charged modeled cost* per operand —
  // instrumentation must observe the pipeline, never change what it
  // charges or answers — plus bit-identity of every response and that
  // the armed run actually recorded spans. Host CPU time per operand is
  // reported for both runs (informational: the ~ns-scale relaxed-load
  // and clock-read overhead cannot be gated on a busy shared host).
  bool ObsOverheadOk = true;
  double ObsDisarmedChargedMsPerOp = 0.0, ObsArmedChargedMsPerOp = 0.0;
  double ObsDisarmedCpuUsPerOp = 0.0, ObsArmedCpuUsPerOp = 0.0;
  uint64_t ObsSpansRecorded = 0;
  {
    const double Ratio = HitRatios.back();
    const size_t Unique = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(Requests) * (1.0 - Ratio)));
    const size_t PerMatrix = std::max<size_t>(1, Requests / Unique);
    const uint32_t ObsIterations = 5;
    for (size_t I = 0; I < Unique; ++I)
      ExpectedFor(I, ObsIterations, true);

    const auto CpuSeconds = [] {
      return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
    };
    struct ObsRun {
      double ChargedMs = 0.0;
      double CpuSeconds = 0.0;
      bool Identical = true;
    };
    const auto Replay = [&](bool Armed) {
      if (Armed)
        SpanRecorder::instance().arm();
      else
        SpanRecorder::instance().disarm();
      ObsRun Run;
      constexpr int Reps = 3;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        SeerService Service(Models);
        std::vector<MatrixHandle> Handles;
        RegisterPool(Service, Unique, Handles);
        double ChargedMs = 0.0;
        const double CpuStart = CpuSeconds();
        for (size_t K = 0; K < PerMatrix; ++K)
          for (size_t I = 0; I < Unique; ++I) {
            Request R;
            R.Handle = Handles[I];
            R.Iterations = ObsIterations;
            R.Execute = true;
            const auto Response = Service.serve(R);
            const ExpectedAnswer &E = ExpectedFor(I, ObsIterations, true);
            if (!Response ||
                Response->Selection.KernelIndex != E.Selection.KernelIndex ||
                Response->Y != E.Y)
              Run.Identical = false;
            else
              ChargedMs += Response->totalMs();
          }
        const double Cpu = CpuSeconds() - CpuStart;
        Run.CpuSeconds = Rep == 0 ? Cpu : std::min(Run.CpuSeconds, Cpu);
        Run.ChargedMs = ChargedMs; // deterministic: identical every rep
      }
      return Run;
    };

    const ObsRun Disarmed = Replay(/*Armed=*/false);
    const ObsRun Armed = Replay(/*Armed=*/true);
    const std::vector<TraceSpan> Spans = SpanRecorder::instance().drain();
    SpanRecorder::instance().disarm();

    const double TotalOperands =
        static_cast<double>(Unique) * static_cast<double>(PerMatrix);
    ObsDisarmedChargedMsPerOp = Disarmed.ChargedMs / TotalOperands;
    ObsArmedChargedMsPerOp = Armed.ChargedMs / TotalOperands;
    ObsDisarmedCpuUsPerOp = Disarmed.CpuSeconds * 1e6 / TotalOperands;
    ObsArmedCpuUsPerOp = Armed.CpuSeconds * 1e6 / TotalOperands;
    ObsSpansRecorded = Spans.size() + SpanRecorder::instance().dropped();
    const bool ChargedWithinTolerance =
        std::abs(ObsArmedChargedMsPerOp - ObsDisarmedChargedMsPerOp) <=
        0.05 * ObsDisarmedChargedMsPerOp;
    ObsOverheadOk = Disarmed.Identical && Armed.Identical &&
                    ChargedWithinTolerance && ObsSpansRecorded > 0;
    std::fprintf(stderr,
                 "  obs-overhead     charged %.6f -> %.6f ms/op  cpu %.2f -> "
                 "%.2f us/op  spans=%llu  %s\n",
                 ObsDisarmedChargedMsPerOp, ObsArmedChargedMsPerOp,
                 ObsDisarmedCpuUsPerOp, ObsArmedCpuUsPerOp,
                 static_cast<unsigned long long>(ObsSpansRecorded),
                 ObsOverheadOk ? "ok" : "OBS-OVERHEAD-FAIL");
  }

  // Select-micro gate: the compiled hot path's headline number. The
  // identical repeat-heavy request stream is served twice — through the
  // compiled models (flat branch-free trees over arena scratch, the
  // default since every load/train compiles) and through a
  // clearCompiled() copy, which forces the interpreted
  // DecisionTree::predict reference path. Two gates: (a) kernel, route,
  // and Y are bit-identical between the two at every client count, and
  // (b) the mean per-request compiled handle-select cost (single
  // client, process CPU time, best of N reps, pure repeat stream) stays
  // at or below the committed interpreted baseline
  // (--select-baseline-us) — the compiled path must never be slower
  // than the tree walk it replaced.
  bool SelectMicroIdentical = true;
  bool SelectMicroOk = true;
  double SelectMicroCompiledMeanUs = 0.0;
  double SelectMicroInterpretedMeanUs = 0.0;
  double SelectMicroEffectiveBaselineUs = 0.0;
  {
    const double Ratio = HitRatios.back();
    const size_t Unique = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(Requests) * (1.0 - Ratio)));
    SeerModels InterpretedModels = Models;
    InterpretedModels.clearCompiled();

    // (a) Bit-identity at every thread count, on an execute stream so Y
    // participates in the comparison alongside kernel and route.
    for (const unsigned C : Clients) {
      SeerService Compiled(Models);
      SeerService Oracle(InterpretedModels);
      std::vector<MatrixHandle> CompiledHandles, OracleHandles;
      RegisterPool(Compiled, Unique, CompiledHandles);
      RegisterPool(Oracle, Unique, OracleHandles);
      std::vector<char> Identical(Requests, 1);
      parallelFor(C, Requests, [&](size_t I) {
        Request R;
        R.Iterations = IterationPattern[I % 3];
        R.Execute = true;
        R.Handle = CompiledHandles[I % Unique];
        const auto Fast = Compiled.serve(R);
        R.Handle = OracleHandles[I % Unique];
        const auto Reference = Oracle.serve(R);
        if (!Fast || !Reference ||
            Fast->Selection.KernelIndex != Reference->Selection.KernelIndex ||
            Fast->Selection.UsedGatheredModel !=
                Reference->Selection.UsedGatheredModel ||
            Fast->Y != Reference->Y)
          Identical[I] = 0;
      });
      for (size_t I = 0; I < Requests; ++I)
        SelectMicroIdentical = SelectMicroIdentical && Identical[I];
    }

    // (b) The timing micro: select-only, single client, cache warmed
    // outside the window so the timed loop is the pure repeat-stream
    // fingerprint-hit -> select path. Process CPU time and best-of-reps
    // for the same reason as the batch gate: the effect is sub-us.
    const auto CpuSeconds = [] {
      return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
    };
    const size_t Sweeps = std::max<size_t>(1, 8192 / Requests);
    const auto MeasureSelect = [&](const SeerModels &WithModels) {
      constexpr int Reps = 5;
      double Best = 0.0;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        SeerService Service(WithModels);
        std::vector<MatrixHandle> Handles;
        RegisterPool(Service, Unique, Handles);
        for (size_t I = 0; I < Unique; ++I) {
          Request Warm;
          Warm.Handle = Handles[I];
          Warm.Iterations = IterationPattern[I % 3];
          if (const auto Response = Service.serve(Warm); !Response)
            fatal(Response.status());
        }
        const double CpuStart = CpuSeconds();
        for (size_t S = 0; S < Sweeps; ++S)
          for (size_t I = 0; I < Requests; ++I) {
            Request R;
            R.Handle = Handles[I % Unique];
            R.Iterations = IterationPattern[I % 3];
            if (const auto Response = Service.serve(R); !Response)
              fatal(Response.status());
          }
        const double Cpu = CpuSeconds() - CpuStart;
        Best = Rep == 0 ? Cpu : std::min(Best, Cpu);
      }
      return Best * 1e6 / (static_cast<double>(Sweeps) *
                           static_cast<double>(Requests));
    };
    SelectMicroCompiledMeanUs = MeasureSelect(Models);
    SelectMicroInterpretedMeanUs = MeasureSelect(InterpretedModels);

    // The committed baseline (--select-baseline-us) is an absolute
    // number from the CI container; on a slower host the same-run
    // interpreted mean is the honest equivalent, so the effective
    // baseline is the larger of the two. Either way the invariant is
    // the same: the compiled path must never be slower than the
    // interpreted tree walk it replaced.
    SelectMicroEffectiveBaselineUs =
        std::max(SelectBaselineUs, SelectMicroInterpretedMeanUs);
    SelectMicroOk = SelectMicroIdentical &&
                    SelectMicroCompiledMeanUs <= SelectMicroEffectiveBaselineUs;
    std::fprintf(stderr,
                 "  select-micro     compiled %.3f us  interpreted %.3f us  "
                 "baseline %.2f us (effective %.3f)  %s%s\n",
                 SelectMicroCompiledMeanUs, SelectMicroInterpretedMeanUs,
                 SelectBaselineUs, SelectMicroEffectiveBaselineUs,
                 SelectMicroIdentical ? "" : "MISMATCH ",
                 SelectMicroOk ? "ok" : "SELECT-MICRO-FAIL");
  }

  // Churn scenario: a working set several times the cache budget cycles
  // through the server for multiple passes. The unbounded working-set
  // size is measured first so the budget scales with the request pool
  // instead of being a magic constant.
  const size_t ChurnUnique = std::min<size_t>(Requests, 32);
  const size_t ChurnPasses = std::max<size_t>(2, Requests / ChurnUnique);
  // One churn request: register, serve, release. Releasing at once leaves
  // the entry unpinned, so the budget (not a handle table) decides what
  // survives to the next pass. \p WhileLive, if set, receives a snapshot
  // taken while the registration still pins the entry.
  const auto ServeOnce = [&](SeerServer &Server, size_t I,
                             const ServeOptions &Options,
                             ServerStats *WhileLive) {
    const RegisteredMatrix Reg = Server.registerMatrix(
        std::shared_ptr<const CsrMatrix>(std::shared_ptr<void>(), &Pool[I]));
    Expected<ServeResponse> Response = Server.handleRegistered(Reg, Options);
    if (WhileLive)
      *WhileLive = Server.stats();
    Server.releaseMatrix(Reg);
    return Response;
  };
  for (const bool Execute : {false, true}) {
    std::vector<ServeOptions> Pass(ChurnUnique);
    for (size_t I = 0; I < ChurnUnique; ++I) {
      Pass[I].Iterations = IterationPattern[I % 3];
      Pass[I].Execute = Execute;
      Pass[I].VerifyOracle = Execute;
    }
    // Two unbounded measurements size the budget: the full working set
    // (with oracle sweeps and their stashed states) and the lean one
    // (paid preprocessing only — exactly what survives stage-1 shedding).
    // A budget below half the lean set guarantees whole-entry evictions
    // even after every recomputable byte has been shed, so the churn run
    // always exercises eviction, re-analysis AND cost-aware shedding.
    // Both passes also record each entry's bytes: a pinned entry can
    // hold at most its full bytes, and once its own request has policed
    // an over-budget shard, at most its lean ones.
    std::vector<uint64_t> FullEntryBytes(ChurnUnique, 0);
    std::vector<uint64_t> LeanEntryBytes(ChurnUnique, 0);
    const auto WorkingSetBytes = [&](bool VerifyOracle,
                                     std::vector<uint64_t> &EntryBytes) {
      SeerServer Unbounded(Models);
      uint64_t Bytes = 0;
      for (size_t I = 0; I < ChurnUnique; ++I) {
        ServeOptions Options = Pass[I];
        Options.VerifyOracle = VerifyOracle;
        if (const auto Response = ServeOnce(Unbounded, I, Options, nullptr);
            !Response)
          fatal(Response.status());
        EntryBytes[I] = Unbounded.stats().BytesCached - Bytes;
        Bytes += EntryBytes[I];
      }
      return Bytes;
    };
    const uint64_t FullSetBytes = WorkingSetBytes(Execute, FullEntryBytes);
    // Select-only entries hold nothing shed-able: lean == full.
    const uint64_t LeanSetBytes =
        Execute ? WorkingSetBytes(false, LeanEntryBytes) : FullSetBytes;
    if (!Execute)
      LeanEntryBytes = FullEntryBytes;
    const uint64_t MaxFullEntryBytes =
        *std::max_element(FullEntryBytes.begin(), FullEntryBytes.end());

    // Warm the one-shot reference memo outside the timed window so the
    // serial run's wall clock measures the server, not the baseline.
    for (size_t I = 0; I < ChurnUnique; ++I)
      ExpectedFor(I, Pass[I].Iterations, Execute);

    ServerConfig Config;
    // Coarser sharding so the per-shard budget slice stays larger than a
    // single entry.
    Config.CacheShards = 4;
    Config.CacheBudgetBytes = std::max<uint64_t>(
        1, std::min(FullSetBytes / 4, LeanSetBytes / 2));
    const uint64_t SliceBytes = Config.CacheBudgetBytes / Config.CacheShards;

    for (const unsigned C : {1u, 4u}) {
      SeerServer Server(Models, Config);
      RunRecord Record;
      Record.Mode = Execute ? "churn-execute" : "churn-select";
      Record.Clients = C;
      Record.Execute = Execute;
      Record.UniqueMatrices = ChurnUnique;
      Record.Requests = ChurnUnique * ChurnPasses;
      Record.BudgetBytes = Config.CacheBudgetBytes;

      // Each pass serves the working set once over C clients, and every
      // request samples the cache while its registration is live. Pinned
      // entries are never whole-evicted, so a shard may run over its
      // slice only while it holds nothing but pinned entries: a sample
      // may exceed the budget by what the live registrations pin. In the
      // serial run that is the one live entry, already shed to its lean
      // bytes by its own request, beyond its slice. In the concurrent run
      // a pinned entry busy in another request is skipped by shedding, so
      // each of PinnedMatrices may hold the largest full entry. With no
      // registration live (every pass boundary) the budget holds exactly.
      std::vector<char> Identical(Record.Requests, 1);
      std::vector<char> WithinBudget(Record.Requests, 1);
      std::vector<uint64_t> LiveBytes(Record.Requests, 0);
      std::vector<uint64_t> SlackBytes(Record.Requests, 0);
      const auto Start = std::chrono::steady_clock::now();
      for (size_t P = 0; P < ChurnPasses; ++P) {
        parallelFor(C, ChurnUnique, [&](size_t I) {
          ServerStats Live;
          const auto R = ServeOnce(Server, I, Pass[I], &Live);
          const ExpectedAnswer &E =
              ExpectedFor(I, Pass[I].Iterations, Execute);
          const size_t Slot = P * ChurnUnique + I;
          Identical[Slot] =
              R && R->Selection.KernelIndex == E.Selection.KernelIndex &&
              R->Selection.UsedGatheredModel ==
                  E.Selection.UsedGatheredModel &&
              (!Execute || R->Y == E.Y);
          SlackBytes[Slot] =
              C == 1 ? (LeanEntryBytes[I] > SliceBytes
                            ? LeanEntryBytes[I] - SliceBytes
                            : 0)
                     : Live.PinnedMatrices * MaxFullEntryBytes;
          LiveBytes[Slot] = Live.BytesCached;
          WithinBudget[Slot] =
              Live.BytesCached <= Record.BudgetBytes + SlackBytes[Slot];
        });
        const uint64_t Settled = Server.stats().BytesCached;
        Record.MaxBytesCached = std::max(Record.MaxBytesCached, Settled);
        Record.BudgetRespected =
            Record.BudgetRespected && Settled <= Record.BudgetBytes;
      }
      Record.WallSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - Start)
                               .count();
      for (size_t Slot = 0; Slot < Record.Requests; ++Slot) {
        Record.BitIdentical = Record.BitIdentical && Identical[Slot];
        Record.BudgetRespected = Record.BudgetRespected && WithinBudget[Slot];
        Record.MaxBytesCached =
            std::max(Record.MaxBytesCached, LiveBytes[Slot]);
        Record.MaxPinnedSlackBytes =
            std::max(Record.MaxPinnedSlackBytes, SlackBytes[Slot]);
      }
      Record.Stats = Server.stats();
      // A churn run that never evicts and re-analyzes is not stressing
      // the budget at all; flag it the same way as a violation so the
      // baseline stays honest.
      if (Record.Stats.Evictions == 0 || Record.Stats.Reanalyses == 0)
        Record.BudgetRespected = false;
      Records.push_back(Record);
      std::fprintf(stderr,
                   "  %s clients=%u  budget=%zu  max_bytes=%llu  "
                   "pinned_slack=%llu  evictions=%llu  reanalyses=%llu  "
                   "%s%s\n",
                   Record.Mode.c_str(), C, Record.BudgetBytes,
                   static_cast<unsigned long long>(Record.MaxBytesCached),
                   static_cast<unsigned long long>(Record.MaxPinnedSlackBytes),
                   static_cast<unsigned long long>(Record.Stats.Evictions),
                   static_cast<unsigned long long>(Record.Stats.Reanalyses),
                   Record.BitIdentical ? "ok" : "MISMATCH",
                   Record.BudgetRespected ? "" : " OVER-BUDGET");
    }
  }

  // Chaos scenario: deterministic fault plans against live services, one
  // sub-run per failure class. All expected answers (planned and baseline)
  // are computed before any plan is armed — the reference runtime walks
  // the same process-wide fault sites as the server.
  bool ChaosOk = true;
  uint64_t ChaosFaults = 0, ChaosRetries = 0, ChaosExhausted = 0,
           ChaosDegraded = 0, ChaosDeadline = 0;
  {
    struct ChaosDisarm {
      ~ChaosDisarm() { FaultInjector::instance().disarm(); }
    } Disarm;
    const size_t ChaosUnique = std::min<size_t>(Requests, 12);
    const uint32_t ChaosIterations = 5;
    const size_t PerMatrix = 4;

    for (size_t I = 0; I < ChaosUnique; ++I)
      ExpectedFor(I, ChaosIterations, true);
    std::vector<std::vector<double>> BaselineY(ChaosUnique);
    {
      const Planner Pipeline(Registry, Sim);
      SeerService Probe(Models);
      const size_t BaselineKernel = Probe.server().baselineKernel();
      for (size_t I = 0; I < ChaosUnique; ++I) {
        const AnalyzedMatrix A = Pipeline.analyze(Pool[I]);
        const std::vector<double> Ones(Pool[I].numCols(), 1.0);
        BaselineY[I] = Registry.kernel(BaselineKernel)
                           .run(Pool[I], A.Stats, /*State=*/nullptr, Ones, Sim)
                           .Y;
      }
    }

    const auto Arm = [](const char *PlanText) {
      const auto Plan = FaultPlan::parse(PlanText);
      if (!Plan)
        fatal(Plan.status());
      if (const Status S = FaultInjector::instance().arm(*Plan); !S.ok())
        fatal(S);
    };
    const auto InjectedNow = [] {
      return FaultInjector::instance().injectedCount();
    };

    // (a) Transient: UNAVAILABLE on every 4th kernel preparation. Every
    // request must succeed undegraded and bit-identical, and every
    // injected fault must be recovered by exactly one retry (consecutive
    // hits of an every=4 schedule cannot both fire, so the retried
    // attempt always lands clean).
    {
      SeerService Service(Models);
      std::vector<MatrixHandle> Handles;
      RegisterPool(Service, ChaosUnique, Handles);
      Arm("seed 9\nkernel.prepare every=4 status=UNAVAILABLE transient\n");
      const uint64_t FaultsBefore = InjectedNow();
      bool Ok = true;
      for (size_t K = 0; K < PerMatrix; ++K)
        for (size_t I = 0; I < ChaosUnique; ++I) {
          Request R;
          R.Handle = Handles[I];
          R.Iterations = ChaosIterations;
          R.Execute = true;
          const auto Response = Service.serve(R);
          const ExpectedAnswer &E = ExpectedFor(I, ChaosIterations, true);
          Ok = Ok && Response && !Response->Degraded &&
               Response->Selection.KernelIndex == E.Selection.KernelIndex &&
               Response->Y == E.Y;
        }
      FaultInjector::instance().disarm();
      const uint64_t Faults = InjectedNow() - FaultsBefore;
      const ServerStats Stats = Service.stats();
      Ok = Ok && Faults > 0 && Stats.Retries == Faults &&
           Stats.RetriesExhausted == 0 && Stats.DegradedServes == 0;
      ChaosFaults += Faults;
      ChaosRetries += Stats.Retries;
      ChaosExhausted += Stats.RetriesExhausted;
      ChaosOk = ChaosOk && Ok;
      std::fprintf(stderr,
                   "  chaos-transient  faults=%llu retries=%llu "
                   "exhausted=%llu  %s\n",
                   static_cast<unsigned long long>(Faults),
                   static_cast<unsigned long long>(Stats.Retries),
                   static_cast<unsigned long long>(Stats.RetriesExhausted),
                   Ok ? "ok" : "CHAOS-FAIL");
    }

    // (b) Terminal: INTERNAL on every 3rd selection. Affected requests
    // must degrade to the baseline kernel — Y bit-identical to the
    // direct baseline run — while unaffected requests stay bit-identical
    // to the planned answer. Nothing may surface as an error.
    {
      SeerService Service(Models);
      std::vector<MatrixHandle> Handles;
      RegisterPool(Service, ChaosUnique, Handles);
      const size_t BaselineKernel = Service.server().baselineKernel();
      Arm("seed 5\nplan.select every=3 status=INTERNAL model crashed\n");
      const uint64_t FaultsBefore = InjectedNow();
      bool Ok = true;
      uint64_t DegradedSeen = 0;
      for (size_t K = 0; K < PerMatrix; ++K)
        for (size_t I = 0; I < ChaosUnique; ++I) {
          Request R;
          R.Handle = Handles[I];
          R.Iterations = ChaosIterations;
          R.Execute = true;
          const auto Response = Service.serve(R);
          if (!Response) {
            Ok = false;
            continue;
          }
          const ExpectedAnswer &E = ExpectedFor(I, ChaosIterations, true);
          if (Response->Degraded) {
            ++DegradedSeen;
            Ok = Ok && Response->Selection.KernelIndex == BaselineKernel &&
                 Response->Y == BaselineY[I];
          } else {
            Ok = Ok &&
                 Response->Selection.KernelIndex == E.Selection.KernelIndex &&
                 Response->Y == E.Y;
          }
        }
      FaultInjector::instance().disarm();
      const ServerStats Stats = Service.stats();
      Ok = Ok && DegradedSeen > 0 && Stats.DegradedServes == DegradedSeen;
      ChaosDegraded += Stats.DegradedServes;
      ChaosFaults += InjectedNow() - FaultsBefore;
      ChaosOk = ChaosOk && Ok;
      std::fprintf(stderr, "  chaos-terminal   degraded=%llu/%zu  %s\n",
                   static_cast<unsigned long long>(DegradedSeen),
                   ChaosUnique * PerMatrix, Ok ? "ok" : "CHAOS-FAIL");
    }

    // (c) Cache pressure: RESOURCE_EXHAUSTED on every 2nd cache insert.
    // Registration must still hand out working handles (the entry is
    // served uncached) and every answer stays bit-identical.
    {
      Arm("cache.insert every=2 status=RESOURCE_EXHAUSTED cache full\n");
      const uint64_t FaultsBefore = InjectedNow();
      SeerService Service(Models);
      bool Ok = true;
      std::vector<MatrixHandle> Handles(ChaosUnique);
      for (size_t I = 0; I < ChaosUnique; ++I) {
        auto Handle = Service.registerMatrix(std::shared_ptr<const CsrMatrix>(
            std::shared_ptr<void>(), &Pool[I]));
        Ok = Ok && Handle.operator bool();
        if (Handle)
          Handles[I] = *Handle;
      }
      for (size_t I = 0; I < ChaosUnique; ++I) {
        if (!Handles[I].valid())
          continue;
        Request R;
        R.Handle = Handles[I];
        R.Iterations = ChaosIterations;
        R.Execute = true;
        const auto Response = Service.serve(R);
        const ExpectedAnswer &E = ExpectedFor(I, ChaosIterations, true);
        Ok = Ok && Response && !Response->Degraded &&
             Response->Selection.KernelIndex == E.Selection.KernelIndex &&
             Response->Y == E.Y;
      }
      FaultInjector::instance().disarm();
      const uint64_t Faults = InjectedNow() - FaultsBefore;
      Ok = Ok && Faults > 0;
      ChaosFaults += Faults;
      ChaosOk = ChaosOk && Ok;
      std::fprintf(stderr, "  chaos-cache      faults=%llu  %s\n",
                   static_cast<unsigned long long>(Faults),
                   Ok ? "ok" : "CHAOS-FAIL");
    }

    // (d) Deadline: a one-shot 50 ms stall in selection against a 5 ms
    // budget must surface DEADLINE_EXCEEDED (typed, never retried); the
    // same request without the stall then succeeds bit-identically.
    {
      SeerService Service(Models);
      std::vector<MatrixHandle> Handles;
      RegisterPool(Service, ChaosUnique, Handles);
      Arm("plan.select nth=1 latency-ms=50\n");
      const uint64_t FaultsBefore = InjectedNow();
      Request R;
      R.Handle = Handles[0];
      R.Iterations = ChaosIterations;
      R.Execute = true;
      R.DeadlineMs = 5.0;
      const auto Expired = Service.serve(R);
      bool Ok = !Expired &&
                Expired.status().code() == StatusCode::DeadlineExceeded;
      R.DeadlineMs = 0.0; // the nth rule is spent; retry within no budget
      const auto Within = Service.serve(R);
      const ExpectedAnswer &E = ExpectedFor(0, ChaosIterations, true);
      Ok = Ok && Within && !Within->Degraded && Within->Y == E.Y;
      FaultInjector::instance().disarm();
      const ServerStats Stats = Service.stats();
      Ok = Ok && Stats.DeadlineExceeded == 1 && Stats.Retries == 0;
      ChaosDeadline += Stats.DeadlineExceeded;
      ChaosFaults += InjectedNow() - FaultsBefore;
      ChaosOk = ChaosOk && Ok;
      std::fprintf(stderr, "  chaos-deadline   expired=%llu  %s\n",
                   static_cast<unsigned long long>(Stats.DeadlineExceeded),
                   Ok ? "ok" : "CHAOS-FAIL");
    }

    ChaosOk = ChaosOk && ChaosDegraded > 0 && ChaosFaults > 0;
  }

  // Networked serving: a spawned shard fleet behind the consistent-hash
  // balancer, driven through the binary wire protocol. Three gates:
  //   net_bit_identical      every networked answer (kernel choice and Y
  //                          bits) equals the one-shot runtime's,
  //   shard_budget_respected no shard's accounted bytes ever exceed its
  //                          configured budget,
  //   shard_hit_ratio_improved at a FIXED per-process budget, N shards'
  //                          disjoint fingerprint slices re-analyze
  //                          strictly less under churn than one shard
  //                          holding the whole working set — the linear
  //                          cache-capacity claim.
  bool NetBitIdentical = true;
  bool ShardBudgetRespected = true;
  bool ShardHitImproved = true;
  double NetSelectRps = 0.0, NetExecuteRps = 0.0;
  uint64_t NetFullSetBytes = 0, NetShardBudgetBytes = 0;
  struct NetChurnRecord {
    size_t Shards = 0;
    size_t Requests = 0;
    double WallSeconds = 0.0;
    uint64_t Reanalyses = 0;
    uint64_t MaxBytesCached = 0;
    bool BitIdentical = true;
    bool BudgetRespected = true;
  };
  std::vector<NetChurnRecord> NetRuns;
  {
    namespace fs = std::filesystem;
    // The tool binaries land next to this bench in the build tree.
    char ExeBuf[4096];
    const ssize_t ExeLen =
        ::readlink("/proc/self/exe", ExeBuf, sizeof(ExeBuf) - 1);
    if (ExeLen <= 0)
      fatal("cannot resolve /proc/self/exe");
    ExeBuf[ExeLen] = '\0';
    const fs::path BinDir = fs::path(ExeBuf).parent_path();
    const std::string ServeBin = (BinDir / "seer-serve").string();
    const std::string LbBin = (BinDir / "seer-lb").string();
    if (!fs::exists(ServeBin) || !fs::exists(LbBin))
      fatal("seer-serve / seer-lb not found next to the bench binary");

    // The shard processes load the same models this process trained.
    const std::string BundleDir =
        (fs::path(bench::cacheDirectory()) / "net_models").string();
    std::error_code DirEc;
    fs::create_directories(BundleDir, DirEc);
    if (const Status S = storeModelBundle(Models, BundleDir); !S.ok())
      fatal(S);

    struct ShardProc {
      pid_t Pid = -1;
      uint16_t Port = 0;
    };
    const auto Spawn = [&](const std::string &Bin,
                           std::vector<std::string> Args,
                           const std::string &PortFile) {
      std::error_code Ec;
      fs::remove(PortFile, Ec);
      Args.insert(Args.begin(), Bin);
      Args.push_back("--port-file");
      Args.push_back(PortFile);
      std::vector<char *> Argv;
      Argv.reserve(Args.size() + 1);
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      const pid_t Pid = ::fork();
      if (Pid < 0)
        fatal("fork failed");
      if (Pid == 0) {
        ::execv(Bin.c_str(), Argv.data());
        _exit(127);
      }
      // The child binds port 0 and publishes the kernel-assigned port.
      uint16_t Port = 0;
      for (int Tries = 0; Tries < 2000 && Port == 0; ++Tries) {
        std::ifstream In(PortFile);
        unsigned Value = 0;
        if (In >> Value && Value != 0 && Value <= 65535)
          Port = static_cast<uint16_t>(Value);
        else
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (Port == 0)
        fatal("'" + Bin + "' did not publish a port");
      return ShardProc{Pid, Port};
    };

    struct Fleet {
      std::vector<ShardProc> Shards;
      ShardProc Lb;
    };
    const auto StartFleet = [&](size_t N, uint64_t Budget) {
      Fleet F;
      std::string ShardList;
      for (size_t I = 0; I < N; ++I) {
        const std::string PortFile =
            (fs::path(bench::cacheDirectory()) /
             ("net_port_shard" + std::to_string(I) + ".txt"))
                .string();
        // One cache lock shard: the byte budget splits evenly across lock
        // shards, and the churn budgets below are small enough that a
        // split slice could not hold even one whole entry.
        F.Shards.push_back(
            Spawn(ServeBin,
                  {"--models", BundleDir, "--listen", "127.0.0.1:0",
                   "--cache-budget", std::to_string(Budget),
                   "--cache-shards", "1"},
                  PortFile));
        if (!ShardList.empty())
          ShardList += ",";
        ShardList += "127.0.0.1:" + std::to_string(F.Shards.back().Port);
      }
      const std::string LbPortFile =
          (fs::path(bench::cacheDirectory()) / "net_port_lb.txt").string();
      F.Lb = Spawn(LbBin, {"--shards", ShardList, "--listen", "127.0.0.1:0"},
                   LbPortFile);
      return F;
    };
    const auto StopFleet = [&](Fleet &F) {
      // The lb's wire Shutdown stops only the lb; stop each shard
      // directly, then reap everything.
      for (ShardProc &S : F.Shards)
        if (auto Client = net::NetClient::connect("127.0.0.1", S.Port))
          (void)Client->shutdownServer();
      if (auto Client = net::NetClient::connect("127.0.0.1", F.Lb.Port))
        (void)Client->shutdownServer();
      for (ShardProc &S : F.Shards)
        ::waitpid(S.Pid, nullptr, 0);
      ::waitpid(F.Lb.Pid, nullptr, 0);
    };
    const auto StatOf = [](const std::string &Text, const std::string &Name) {
      const std::string Needle = "stat " + Name + " ";
      uint64_t Value = 0;
      const size_t At = Text.find(Needle);
      if (At != std::string::npos &&
          (At == 0 || Text[At - 1] == '\n')) {
        int64_t Parsed = 0;
        const size_t Eol = Text.find('\n', At);
        if (parseInt(std::string(Text, At + Needle.size(),
                                 (Eol == std::string::npos ? Text.size()
                                                           : Eol) -
                                     At - Needle.size()),
                     Parsed) &&
            Parsed >= 0)
          Value = static_cast<uint64_t>(Parsed);
      }
      return Value;
    };
    const auto ShardStat = [&](const ShardProc &S, const std::string &Name) {
      auto Client = net::NetClient::connect("127.0.0.1", S.Port);
      if (!Client.ok())
        fatal(Client.status());
      const auto Text = Client->statsText();
      if (!Text)
        fatal(Text.status());
      return StatOf(*Text, Name);
    };

    const size_t NetSet = std::min<size_t>(24, Pool.size());

    // Phase A: one unbounded shard behind the balancer. Measures wire
    // throughput for select and execute streams, gates bit-identity of
    // every reply, and calibrates the full working-set footprint that
    // sizes the churn budget below.
    {
      Fleet F = StartFleet(1, /*Budget=*/0);
      auto ClientOr = net::NetClient::connect("127.0.0.1", F.Lb.Port);
      if (!ClientOr.ok())
        fatal(ClientOr.status());
      net::NetClient &Client = *ClientOr;

      std::vector<uint64_t> Handles(NetSet, 0);
      for (size_t I = 0; I < NetSet; ++I) {
        const auto Open = Client.open("net" + std::to_string(I), Pool[I]);
        if (!Open)
          fatal(Open.status());
        Handles[I] = Open->Handle;
      }
      // Warm the one-shot reference memo outside the timed windows.
      for (size_t I = 0; I < NetSet; ++I)
        for (const uint32_t Iters : IterationPattern)
          ExpectedFor(I, Iters, true);

      const size_t SelectRequests = NetSet * 8;
      auto Start = std::chrono::steady_clock::now();
      for (size_t I = 0; I < SelectRequests; ++I) {
        const size_t M = I % NetSet;
        const uint32_t Iters = IterationPattern[I % 3];
        const auto R = Client.select(Handles[M], Iters);
        if (!R)
          fatal(R.status());
        const ExpectedAnswer &E = ExpectedFor(M, Iters, false);
        NetBitIdentical =
            NetBitIdentical &&
            R->Selection.KernelIndex == E.Selection.KernelIndex &&
            R->Selection.UsedGatheredModel == E.Selection.UsedGatheredModel;
      }
      double Wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
      NetSelectRps = static_cast<double>(SelectRequests) / Wall;

      // The churn ladder below is select-only, so its budget must be
      // sized from the select-only footprint — sampled now, before the
      // execute stream adds preprocessed bytes the churn never touches.
      NetFullSetBytes = ShardStat(F.Shards[0], "bytes_cached");

      const size_t ExecuteRequests = NetSet * 4;
      Start = std::chrono::steady_clock::now();
      for (size_t I = 0; I < ExecuteRequests; ++I) {
        const size_t M = I % NetSet;
        const uint32_t Iters = IterationPattern[I % 3];
        // Empty operand = the all-ones vector, matching the reference.
        const auto R = Client.execute(Handles[M], Iters, /*Verify=*/false,
                                      /*Operand=*/{});
        if (!R)
          fatal(R.status());
        const ExpectedAnswer &E = ExpectedFor(M, Iters, true);
        NetBitIdentical =
            NetBitIdentical &&
            R->Selection.KernelIndex == E.Selection.KernelIndex && R->Y == E.Y;
      }
      Wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           Start)
                 .count();
      NetExecuteRps = static_cast<double>(ExecuteRequests) / Wall;

      for (size_t I = 0; I < NetSet; ++I)
        (void)Client.close(Handles[I]);
      StopFleet(F);
      std::fprintf(stderr,
                   "  net-select       shards=1  %7.0f req/s  %s\n"
                   "  net-execute      shards=1  %7.0f req/s  %s\n",
                   NetSelectRps, NetBitIdentical ? "ok" : "MISMATCH",
                   NetExecuteRps, NetBitIdentical ? "ok" : "MISMATCH");
    }
    if (NetFullSetBytes == 0)
      fatal("networked calibration run cached no bytes");

    // Phase B: churn ladder at a FIXED per-process budget of 60% of the
    // full working set. One shard must evict and re-analyze on every
    // cyclic pass; N shards each see only their hash slice (~1/N of the
    // set), which fits, so aggregate re-analyses drop — the scale-out
    // payoff the balancer exists for.
    NetShardBudgetBytes = std::max<uint64_t>(1, NetFullSetBytes * 3 / 5);
    const size_t NetPasses = 4;
    for (const size_t N : {size_t(1), size_t(2), size_t(4)}) {
      Fleet F = StartFleet(N, NetShardBudgetBytes);
      auto ClientOr = net::NetClient::connect("127.0.0.1", F.Lb.Port);
      if (!ClientOr.ok())
        fatal(ClientOr.status());
      net::NetClient &Client = *ClientOr;

      NetChurnRecord Rec;
      Rec.Shards = N;
      const auto Start = std::chrono::steady_clock::now();
      for (size_t Pass = 0; Pass < NetPasses; ++Pass) {
        for (size_t I = 0; I < NetSet; ++I) {
          // open -> select -> close: the close unpins the entry, so the
          // shard's budget (not the handle table) decides what survives
          // to the next pass.
          const auto Open = Client.open("net" + std::to_string(I), Pool[I]);
          if (!Open)
            fatal(Open.status());
          const uint32_t Iters = IterationPattern[I % 3];
          const auto R = Client.select(Open->Handle, Iters);
          if (!R)
            fatal(R.status());
          const ExpectedAnswer &E = ExpectedFor(I, Iters, false);
          Rec.BitIdentical =
              Rec.BitIdentical &&
              R->Selection.KernelIndex == E.Selection.KernelIndex &&
              R->Selection.UsedGatheredModel == E.Selection.UsedGatheredModel;
          if (const Status S = Client.close(Open->Handle); !S.ok())
            fatal(S);
          ++Rec.Requests;
        }
        // Sample every shard's accounting between passes; the budget must
        // hold at each observation point.
        for (const ShardProc &S : F.Shards)
          Rec.MaxBytesCached = std::max(Rec.MaxBytesCached,
                                        ShardStat(S, "bytes_cached"));
      }
      Rec.WallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
      for (const ShardProc &S : F.Shards)
        Rec.Reanalyses += ShardStat(S, "reanalyses");
      StopFleet(F);

      Rec.BudgetRespected = Rec.MaxBytesCached <= NetShardBudgetBytes;
      NetBitIdentical = NetBitIdentical && Rec.BitIdentical;
      ShardBudgetRespected = ShardBudgetRespected && Rec.BudgetRespected;
      std::fprintf(stderr,
                   "  sharded-churn    shards=%zu  budget=%llu  "
                   "max_bytes=%llu  reanalyses=%llu  %s%s\n",
                   N, static_cast<unsigned long long>(NetShardBudgetBytes),
                   static_cast<unsigned long long>(Rec.MaxBytesCached),
                   static_cast<unsigned long long>(Rec.Reanalyses),
                   Rec.BitIdentical ? "ok" : "MISMATCH",
                   Rec.BudgetRespected ? "" : " OVER-BUDGET");
      NetRuns.push_back(Rec);
    }
    // The single-shard baseline must actually churn, and every N-shard
    // fleet must re-analyze strictly less than it.
    uint64_t OneShardReanalyses = 0;
    for (const NetChurnRecord &R : NetRuns)
      if (R.Shards == 1)
        OneShardReanalyses = R.Reanalyses;
    ShardHitImproved = OneShardReanalyses > 0;
    for (const NetChurnRecord &R : NetRuns)
      if (R.Shards > 1)
        ShardHitImproved =
            ShardHitImproved && R.Reanalyses < OneShardReanalyses;
  }

  bool AllIdentical = true;
  bool AllWithinBudget = true;
  bool AllBatchFaster = true;
  for (const RunRecord &R : Records) {
    AllIdentical = AllIdentical && R.BitIdentical;
    AllWithinBudget = AllWithinBudget && R.BudgetRespected;
    if (R.Mode == "batch-execute")
      AllBatchFaster = AllBatchFaster && R.BatchFaster;
  }

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out)
    fatal("cannot write '" + OutPath + "'");
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"benchmark\": \"serving_throughput\",\n");
  std::fprintf(Out, "  \"hardware_threads\": %u,\n", resolveParallelism(0));
  std::fprintf(Out, "  \"requests_per_run\": %zu,\n", Requests);
  std::fprintf(Out, "  \"bit_identical\": %s,\n",
               AllIdentical ? "true" : "false");
  std::fprintf(Out, "  \"budget_respected\": %s,\n",
               AllWithinBudget ? "true" : "false");
  std::fprintf(Out, "  \"batch_faster\": %s,\n",
               AllBatchFaster ? "true" : "false");
  std::fprintf(Out, "  \"net_bit_identical\": %s,\n",
               NetBitIdentical ? "true" : "false");
  std::fprintf(Out, "  \"shard_budget_respected\": %s,\n",
               ShardBudgetRespected ? "true" : "false");
  std::fprintf(Out, "  \"shard_hit_ratio_improved\": %s,\n",
               ShardHitImproved ? "true" : "false");
  std::fprintf(Out, "  \"net_select_rps\": %.1f,\n", NetSelectRps);
  std::fprintf(Out, "  \"net_execute_rps\": %.1f,\n", NetExecuteRps);
  std::fprintf(Out, "  \"net_full_set_bytes\": %llu,\n",
               static_cast<unsigned long long>(NetFullSetBytes));
  std::fprintf(Out, "  \"net_shard_budget_bytes\": %llu,\n",
               static_cast<unsigned long long>(NetShardBudgetBytes));
  std::fprintf(Out, "  \"net_runs\": [\n");
  for (size_t I = 0; I < NetRuns.size(); ++I) {
    const NetChurnRecord &R = NetRuns[I];
    std::fprintf(Out,
                 "    {\"shards\": %zu, \"requests\": %zu, "
                 "\"wall_s\": %.6f, \"reanalyses\": %llu, "
                 "\"max_bytes_cached\": %llu, \"budget_respected\": %s, "
                 "\"bit_identical\": %s}%s\n",
                 R.Shards, R.Requests, R.WallSeconds,
                 static_cast<unsigned long long>(R.Reanalyses),
                 static_cast<unsigned long long>(R.MaxBytesCached),
                 R.BudgetRespected ? "true" : "false",
                 R.BitIdentical ? "true" : "false",
                 I + 1 < NetRuns.size() ? "," : "");
  }
  std::fprintf(Out, "  ],\n");
  std::fprintf(Out, "  \"chaos_ok\": %s,\n", ChaosOk ? "true" : "false");
  std::fprintf(Out, "  \"obs_overhead_ok\": %s,\n",
               ObsOverheadOk ? "true" : "false");
  std::fprintf(Out, "  \"obs_spans_recorded\": %llu,\n",
               static_cast<unsigned long long>(ObsSpansRecorded));
  std::fprintf(Out, "  \"execute_charged_ms_per_op_disarmed\": %.6f,\n",
               ObsDisarmedChargedMsPerOp);
  std::fprintf(Out, "  \"execute_charged_ms_per_op_armed\": %.6f,\n",
               ObsArmedChargedMsPerOp);
  std::fprintf(Out, "  \"execute_cpu_us_per_op_disarmed\": %.3f,\n",
               ObsDisarmedCpuUsPerOp);
  std::fprintf(Out, "  \"execute_cpu_us_per_op_armed\": %.3f,\n",
               ObsArmedCpuUsPerOp);
  std::fprintf(Out, "  \"chaos_faults_injected\": %llu,\n",
               static_cast<unsigned long long>(ChaosFaults));
  std::fprintf(Out, "  \"chaos_retries\": %llu,\n",
               static_cast<unsigned long long>(ChaosRetries));
  std::fprintf(Out, "  \"chaos_retries_exhausted\": %llu,\n",
               static_cast<unsigned long long>(ChaosExhausted));
  std::fprintf(Out, "  \"chaos_degraded_serves\": %llu,\n",
               static_cast<unsigned long long>(ChaosDegraded));
  std::fprintf(Out, "  \"chaos_deadline_exceeded\": %llu,\n",
               static_cast<unsigned long long>(ChaosDeadline));
  // The batching headline: mean per-operand execute cost on the
  // repeat-heavy stream, one request at a time vs. one plan per batch
  // (single client). Charged modeled cost is the gated pair; host CPU
  // time rides along as an informational measurement.
  for (const RunRecord &R : Records)
    if (R.Mode == "batch-execute" && R.Clients == 1) {
      std::fprintf(Out, "  \"execute_charged_ms_per_op_single\": %.6f,\n",
                   R.SingleChargedMsPerOp);
      std::fprintf(Out, "  \"execute_charged_ms_per_op_batched\": %.6f,\n",
                   R.BatchChargedMsPerOp);
      std::fprintf(Out, "  \"execute_mean_us_single\": %.3f,\n",
                   R.SingleMeanUs);
      std::fprintf(Out, "  \"execute_mean_us_batched\": %.3f,\n",
                   R.BatchMeanUs);
      break;
    }
  // Mean per-request handle-select cost on a repeat-heavy stream
  // (highest hit ratio, single client).
  for (const RunRecord &R : Records)
    if (R.Mode == "v2-select" && R.Clients == 1 &&
        R.TargetHitRatio == HitRatios.back()) {
      std::fprintf(Out, "  \"select_mean_us_handle_api\": %.3f,\n",
                   R.Stats.MeanLatencyUs);
      break;
    }
  // The compiled-hot-path gate pair (select-micro section above).
  std::fprintf(Out, "  \"select_micro_compiled_mean_us\": %.3f,\n",
               SelectMicroCompiledMeanUs);
  std::fprintf(Out, "  \"select_micro_interpreted_mean_us\": %.3f,\n",
               SelectMicroInterpretedMeanUs);
  std::fprintf(Out, "  \"select_micro_baseline_us\": %.3f,\n",
               SelectBaselineUs);
  std::fprintf(Out, "  \"select_micro_effective_baseline_us\": %.3f,\n",
               SelectMicroEffectiveBaselineUs);
  std::fprintf(Out, "  \"select_micro_bit_identical\": %s,\n",
               SelectMicroIdentical ? "true" : "false");
  std::fprintf(Out, "  \"select_micro_ok\": %s,\n",
               SelectMicroOk ? "true" : "false");
  std::fprintf(Out, "  \"runs\": [\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const RunRecord &R = Records[I];
    std::fprintf(
        Out,
        "    {\"mode\": \"%s\", \"clients\": %u, \"target_hit_ratio\": %.2f, "
        "\"unique_matrices\": %zu, \"wall_s\": %.6f, "
        "\"throughput_rps\": %.1f, \"hit_ratio\": %.4f, "
        "\"p50_us\": %.3f, \"p99_us\": %.3f, \"mean_us\": %.3f, "
        "\"mispredict_rate\": %.4f, \"saved_collection_ms\": %.6f, "
        "\"saved_preprocess_ms\": %.6f, "
        "\"registration_s\": %.6f, "
        "\"async_accepted\": %llu, \"async_rejected\": %llu, "
        "\"budget_bytes\": %zu, \"max_bytes_cached\": %llu, "
        "\"pinned_slack_bytes\": %llu, \"bytes_evicted\": %llu, "
        "\"evictions\": %llu, "
        "\"partial_evictions\": %llu, \"reanalyses\": %llu, "
        "\"plans_built\": %llu, \"plans_reused\": %llu, "
        "\"batch_requests\": %llu, \"batched_operands\": %llu, "
        "\"single_mean_us\": %.3f, \"batch_mean_us\": %.3f, "
        "\"single_charged_ms_per_op\": %.6f, "
        "\"batch_charged_ms_per_op\": %.6f, "
        "\"batch_faster\": %s, "
        "\"budget_respected\": %s, \"bit_identical\": %s}%s\n",
        R.Mode.c_str(), R.Clients, R.TargetHitRatio,
        R.UniqueMatrices, R.WallSeconds,
        static_cast<double>(R.Requests) / R.WallSeconds,
        R.Stats.hitRate(), R.Stats.P50LatencyUs, R.Stats.P99LatencyUs,
        R.Stats.MeanLatencyUs, R.Stats.mispredictRate(),
        R.Stats.SavedCollectionMs, R.Stats.SavedPreprocessMs,
        R.RegistrationSeconds,
        static_cast<unsigned long long>(R.Stats.AsyncAccepted),
        static_cast<unsigned long long>(R.Stats.AsyncRejected),
        R.BudgetBytes,
        static_cast<unsigned long long>(R.MaxBytesCached),
        static_cast<unsigned long long>(R.MaxPinnedSlackBytes),
        static_cast<unsigned long long>(R.Stats.BytesEvicted),
        static_cast<unsigned long long>(R.Stats.Evictions),
        static_cast<unsigned long long>(R.Stats.PartialEvictions),
        static_cast<unsigned long long>(R.Stats.Reanalyses),
        static_cast<unsigned long long>(R.Stats.PlansBuilt),
        static_cast<unsigned long long>(R.Stats.PlansReused),
        static_cast<unsigned long long>(R.Stats.BatchRequests),
        static_cast<unsigned long long>(R.Stats.BatchedOperands),
        R.SingleMeanUs, R.BatchMeanUs, R.SingleChargedMsPerOp,
        R.BatchChargedMsPerOp, R.BatchFaster ? "true" : "false",
        R.BudgetRespected ? "true" : "false",
        R.BitIdentical ? "true" : "false",
        I + 1 < Records.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);

  std::printf("wrote %s (%zu runs, bit_identical=%s, budget_respected=%s, "
              "batch_faster=%s, chaos_ok=%s, obs_overhead_ok=%s, "
              "select_micro_ok=%s, net_bit_identical=%s, "
              "shard_budget_respected=%s, shard_hit_ratio_improved=%s)\n",
              OutPath.c_str(), Records.size(),
              AllIdentical ? "true" : "false",
              AllWithinBudget ? "true" : "false",
              AllBatchFaster ? "true" : "false", ChaosOk ? "true" : "false",
              ObsOverheadOk ? "true" : "false",
              SelectMicroOk ? "true" : "false",
              NetBitIdentical ? "true" : "false",
              ShardBudgetRespected ? "true" : "false",
              ShardHitImproved ? "true" : "false");
  return AllIdentical && AllWithinBudget && AllBatchFaster && ChaosOk &&
                 ObsOverheadOk && SelectMicroOk && NetBitIdentical &&
                 ShardBudgetRespected && ShardHitImproved
             ? 0
             : 1;
}
