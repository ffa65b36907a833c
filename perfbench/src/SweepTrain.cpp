//===- perfbench/src/SweepTrain.cpp - The offline-pipeline workload -------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// sweep-train: the paper's offline pipeline (Fig. 4) on the size-capped
// synthetic collection. One round is Benchmarker::benchmarkCollection ->
// trainSeerModels -> evaluateAggregate on held-out folds, all serial. It is
// the only workload that runs matrix generation, format conversion, all
// nine kernels per matrix and training. The sweep never goes through
// benchmarkCollectionCached, so no round reads an on-disk cache.
//
// Like the paper's fixed SuiteSparse set, the collection (and the
// protocol's measurement-noise stream) is the same on every run; the run's
// seed draws the assignment of members to cross-validation folds.
// Evaluation is ten repeats of five-fold cross-validation: every member is
// held out once per repeat, so the paper metrics aggregate over the whole
// collection ten times, which keeps them steady across seeds.
//
// A "request" here is one collection member: its latency is the time
// from the sweep's progress callback for the member to the next one
// (generation plus every kernel's preparation, run and verification).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Benchmarker.h"
#include "core/Evaluation.h"
#include "core/SeerTrainer.h"
#include "sim/GpuSimulator.h"
#include "sparse/Collection.h"
#include "support/Fnv.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>

using namespace seer;

namespace perfbench {
namespace {

constexpr size_t Folds = 5;
constexpr size_t Repeats = 10;

/// The size-capped collection. Replicas are left out: at up to 254k rows
/// they would dominate every round.
CollectionConfig collectionConfig(const Options &Opts) {
  CollectionConfig Config;
  Config.VariantsPerCell = Opts.Smoke ? 1 : 4;
  Config.MaxRows = 4096;
  Config.IncludeReplicas = false;
  return Config;
}

/// What set-up builds: the kernel registry, the simulator, the collection
/// specs (each Build wrapped in its sparse-layer span) and the folds.
struct Environment {
  KernelRegistry Registry;
  GpuSimulator Sim{DeviceModel::mi100()};
  std::vector<MatrixSpec> Specs;
  /// Per repeat and spec: the cross-validation fold that holds it out.
  std::vector<std::vector<size_t>> Fold;
};

std::unique_ptr<Environment> setUp(const Options &Opts) {
  auto Env = std::make_unique<Environment>();
  Env->Specs = buildCollection(collectionConfig(Opts));
  for (MatrixSpec &Spec : Env->Specs)
    Spec.Build = [Inner = std::move(Spec.Build)] {
      ScopedSpan Span("bench.sparse.generate");
      return Inner();
    };
  // Each repeat's folds are consecutive fifths of a seeded permutation.
  Rng Shuffle(Opts.Seed ^ 0x5b1170ull);
  for (size_t Repeat = 0; Repeat < Repeats; ++Repeat) {
    std::vector<size_t> Order(Env->Specs.size());
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Shuffle.bounded(I)]);
    std::vector<size_t> &Fold = Env->Fold.emplace_back(Order.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Fold[Order[I]] = I % Folds;
  }
  return Env;
}

void addTrees(Fnv1a &Hash, const SeerModels &Models) {
  for (const DecisionTree *Tree :
       {&Models.Known, &Models.Gathered, &Models.Selector})
    for (char C : Tree->serialize())
      Hash.add(static_cast<uint64_t>(static_cast<unsigned char>(C)));
}

/// The held-out evaluations of all folds at one iteration count, summed
/// the way evaluateAggregate sums one set.
struct CrossEvaluation {
  size_t Cases = 0;
  double OracleMs = 0.0;
  double SelectorMs = 0.0;
  double CorrectCases = 0.0;
  std::vector<double> PerKernelMs;

  void add(const AggregateEvaluation &Eval) {
    Cases += Eval.NumCases;
    OracleMs += Eval.OracleMs;
    SelectorMs += Eval.SelectorMs;
    CorrectCases += Eval.SelectorAccuracy * double(Eval.NumCases);
    PerKernelMs.resize(Eval.PerKernelMs.size(), 0.0);
    for (size_t K = 0; K < Eval.PerKernelMs.size(); ++K)
      PerKernelMs[K] += Eval.PerKernelMs[K];
  }

  /// The paper metrics as AggregateEvaluation defines them, over all
  /// folds' cases.
  void emit(std::map<std::string, double> &Metrics) const {
    std::vector<double> Speedups;
    for (double KernelMs : PerKernelMs)
      Speedups.push_back(KernelMs / SelectorMs);
    Metrics["modeled_ms_per_request"] = SelectorMs / double(Cases);
    Metrics["regret_pct"] = 100.0 * (SelectorMs / OracleMs - 1.0);
    Metrics["speedup_vs_best_kernel"] =
        *std::min_element(Speedups.begin(), Speedups.end());
    Metrics["geomean_speedup"] = geomean(Speedups);
    Metrics["selector_accuracy"] = CorrectCases / double(Cases);
  }
};

/// The trained trees of one (build, size, seed) must be identical on every
/// run: the first run records their digest in the state directory, keyed
/// by the build digest, and later runs compare against it.
void checkTreeDigest(const Options &Opts, uint64_t Digest, Outcome &Out) {
  const std::string Path = Opts.StateDir + "/trees-" + Opts.Build +
                           (Opts.Smoke ? "-smoke-" : "-full-") +
                           std::to_string(Opts.Seed) + ".fnv";
  std::ifstream In(Path);
  uint64_t Recorded = 0;
  Out.attempt();
  if (In >> Recorded) {
    if (Recorded != Digest)
      Out.fail("trained .tree text differs from an earlier run of this build");
    return;
  }
  std::ofstream(Path) << Digest << "\n";
}

/// The traced run's replay: per member, the same public Planner calls the
/// Benchmarker makes, each in its own span. Checks that they reproduce the
/// sweep's modeled timings: feature-collection cost exactly, kernel
/// timings within the protocol's measurement noise (the Benchmarker
/// averages TimedRuns log-normal samples of sigma NoiseSigma around the
/// modeled value).
void replay(const Environment &Env, const std::vector<MatrixBenchmark> &Sweep,
            const BenchmarkConfig &Protocol, RunResult &R) {
  const Planner Pipeline(Env.Registry, Env.Sim);
  const double Envelope =
      std::exp(8.0 * Protocol.NoiseSigma / std::sqrt(double(Protocol.TimedRuns)));
  for (size_t I = 0; I < Env.Specs.size(); ++I) {
    const CsrMatrix M = Env.Specs[I].Build();
    R.Out.attempt();
    if (!M.verify()) {
      ++R.Out.GenerateFaults;
      R.Out.fail("generated matrix " + Env.Specs[I].Name + " is invalid");
      continue;
    }
    const MatrixReference Ref =
        computeReference(Pipeline, M, /*WithModels=*/false, R.Out);
    const MatrixBenchmark &Bench = Sweep[I];
    R.Out.attempt();
    if (Ref.CollectionMs != Bench.FeatureCollectionMs)
      R.Out.fail("replay: collection cost of " + Bench.Name + " differs");
    for (size_t K = 0; K < Ref.Kernels.size(); ++K) {
      const KernelMeasurement &Got = Bench.PerKernel[K];
      const KernelReference &Want = Ref.Kernels[K];
      const auto Within = [&](double Measured, double Modeled) {
        if (Modeled == 0.0)
          return Measured == 0.0;
        const double Ratio = Measured / Modeled;
        return Ratio <= Envelope && Ratio >= 1.0 / Envelope;
      };
      if (!Within(Got.IterationMs, Want.IterationMs) ||
          !Within(Got.PreprocessMs, Want.PreprocessMs))
        R.Out.fail("replay: modeled timing of " + Bench.Name + " / " +
                   Env.Registry.kernel(K).name() + " differs from the sweep");
    }
  }
}

} // namespace

int runSweepTrain(const Options &Opts, RunResult &R) {
  // Set-up takes well under a millisecond, so it is repeated and the
  // median reported. Each repetition builds into fresh memory, as the one
  // real set-up of a process does: the earlier ones stay alive until all
  // are done. Rebuilding into the memory the previous repetition freed
  // gave medians that jumped between about 35 and 55 us from one process
  // to the next.
  const size_t SetupReps = 51;
  std::vector<std::unique_ptr<Environment>> Setups;
  Setups.reserve(SetupReps);
  for (size_t I = 0; I < SetupReps; ++I) {
    const double Start = wallNow();
    Setups.push_back(setUp(Opts));
    R.SetupS.push_back(wallNow() - Start);
  }
  const std::unique_ptr<Environment> Env = std::move(Setups.back());
  Setups.clear();
  R.KernelNames = Env->Registry.names();
  R.Notes["collection_members"] = std::to_string(Env->Specs.size());
  R.Notes["collection"] = "buildCollection(default seed, variants " +
                          std::to_string(collectionConfig(Opts).VariantsPerCell) +
                          ", max rows " +
                          std::to_string(collectionConfig(Opts).MaxRows) +
                          ", no replicas)";

  BenchmarkConfig Protocol;
  Protocol.Parallelism = 1;
  Protocol.VerifyResults = true;
  TrainerConfig Trainer;
  Trainer.Parallelism = 1;
  const Benchmarker Bench(Env->Registry, Env->Sim, Protocol);

  // Per-member latency and, when armed, a member span: the progress
  // callback fires as each member starts, serially (Parallelism 1).
  double MemberStart = 0.0;
  uint64_t MemberStartNs = 0;
  const auto EndMember = [&] {
    if (MemberStart == 0.0)
      return;
    R.LatenciesUs.push_back(1e6 * (wallNow() - MemberStart));
    if (SpanRecorder::instance().armed()) {
      const uint64_t Now = SpanRecorder::nowNs();
      SpanRecorder::instance().record("bench.sweep.member", MemberStartNs,
                                      Now - MemberStartNs);
    }
    MemberStart = 0.0;
  };
  const auto Progress = [&](size_t, size_t, const std::string &) {
    EndMember();
    MemberStart = wallNow();
    MemberStartNs = SpanRecorder::nowNs();
  };

  std::vector<MatrixBenchmark> FirstSweep;
  CrossEvaluation FirstEval;
  uint64_t FirstDigest = 0;
  const auto Round = [&]() -> perfbench::Round {
    const double Wall0 = wallNow();
    const double Cpu0 = processCpuNow();
    std::vector<MatrixBenchmark> Sweep;
    std::vector<SeerModels> Models(Repeats * Folds);
    std::vector<AggregateEvaluation> Evals(Repeats * Folds);
    {
      ScopedSpan RoundSpan("bench.round");
      {
        ScopedSpan Span("bench.core.benchmark");
        Sweep = Bench.benchmarkCollection(Env->Specs, Progress);
        EndMember();
      }
      for (size_t F = 0; F < Repeats * Folds; ++F) {
        std::vector<MatrixBenchmark> Train, Test;
        for (size_t I = 0; I < Sweep.size(); ++I)
          (Env->Fold[F / Folds][I] == F % Folds ? Test : Train)
              .push_back(Sweep[I]);
        {
          ScopedSpan Span("bench.ml.train");
          Models[F] = trainSeerModels(Train, Env->Registry.names(), Trainer);
        }
        ScopedSpan Span("bench.core.evaluate");
        Evals[F] = evaluateAggregate(Models[F], Test, 1);
      }
    }
    const perfbench::Round Timing{wallNow() - Wall0, processCpuNow() - Cpu0};

    // Output checks (outside the round's timing): every round of one run
    // must reproduce the first bit for bit.
    CrossEvaluation Eval;
    Fnv1a Digest;
    for (size_t F = 0; F < Repeats * Folds; ++F) {
      Eval.add(Evals[F]);
      addTrees(Digest, Models[F]);
    }
    R.Out.Attempted += Sweep.size() + Eval.Cases;
    if (FirstSweep.empty()) {
      FirstSweep = Sweep;
      FirstEval = Eval;
      FirstDigest = Digest.value();
    } else if (Digest.value() != FirstDigest ||
               Eval.SelectorMs != FirstEval.SelectorMs ||
               Eval.OracleMs != FirstEval.OracleMs) {
      R.Out.fail("a later round trained or evaluated differently");
    }
    if (Eval.Cases != Repeats * Sweep.size())
      R.Out.fail("the folds do not hold out every member once per repeat");
    return Timing;
  };

  if (Opts.Trace) {
    runRounds(Opts.Seconds / 2, R.Rounds, Round);
    R.UntracedWallS = medianWall(R.Rounds);
    armTracing();
    std::vector<perfbench::Round> Traced;
    runRounds(
        Opts.Seconds / 2, Traced,
        [&] {
          const perfbench::Round Timing = Round();
          drainTracing(Opts.TraceOut, /*Final=*/false);
          return Timing;
        },
        MaxTracedRounds);
    R.TracedWallS = medianWall(Traced);
    replay(*Env, FirstSweep, Protocol, R);
    drainTracing(Opts.TraceOut, /*Final=*/true);
  } else {
    runRounds(Opts.Seconds, R.Rounds, Round);
  }
  checkTreeDigest(Opts, FirstDigest, R.Out);

  FirstEval.emit(R.Modeled);
  return 0;
}

} // namespace perfbench
