//===- bench/pipeline_scaling.cpp - Perf trajectory of the pipeline -------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
//
// The thread-scaling harness for the parallel pipeline engine: times the
// three hot stages of a from-scratch `seer-train` — the benchmark sweep,
// the single-pass matrix analysis / feature collection, and model
// training — at a ladder of thread counts, verifies that every parallel
// run is bit-identical to the serial one (same CSVs, same serialized
// trees, same generated headers), and writes a machine-readable
// BENCH_pipeline.json. The repository's benchmark of record is
// perfbench/; this harness is its determinism gate and scaling record.
//
//   pipeline_scaling [--out FILE] [--threads LIST] [--variants N]
//                    [--max-rows N]
//
// Speedups are wall-clock, so the numbers reflect the cores the machine
// actually has; "threads" beyond the hardware width measure
// oversubscription, not speedup.
//
//===----------------------------------------------------------------------===//

#include "core/Seer.h"
#include "support/ThreadPool.h"

#include "../tools/ToolSupport.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace seer;
using namespace seer::tools;

namespace {

constexpr const char *Usage =
    "usage: pipeline_scaling [options]\n"
    "\n"
    "Times sweep / analysis / train at several thread counts, checks\n"
    "serial-vs-parallel bit-identity, and writes BENCH_pipeline.json.\n"
    "\n"
    "options:\n"
    "  --out FILE      output JSON path (default BENCH_pipeline.json)\n"
    "  --threads LIST  comma-separated thread counts (default 1,2,4,8)\n"
    "  --variants N    synthetic variants per family/size cell (default 2)\n"
    "  --max-rows N    largest synthetic size (default 65536)\n";

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Everything one thread-count run produces: stage timings plus the
/// artifacts whose bits must not depend on the thread count.
struct RunResult {
  double SweepSeconds = 0.0;
  double AnalysisSeconds = 0.0;
  double TrainSeconds = 0.0;
  std::string RuntimeCsv;
  std::string PreprocessingCsv;
  std::string FeaturesCsv;
  std::string Trees; // three serialized models, concatenated
  std::string Headers; // three generated C++ headers, concatenated

  double totalSeconds() const {
    return SweepSeconds + AnalysisSeconds + TrainSeconds;
  }
};

RunResult runAt(uint32_t Threads, const std::vector<MatrixSpec> &Specs,
                const KernelRegistry &Registry, const GpuSimulator &Sim) {
  RunResult Result;

  BenchmarkConfig Protocol;
  Protocol.Parallelism = Threads;
  const Benchmarker Runner(Registry, Sim, Protocol);

  auto Start = std::chrono::steady_clock::now();
  const std::vector<MatrixBenchmark> Benchmarks =
      Runner.benchmarkCollection(Specs);
  Result.SweepSeconds = secondsSince(Start);

  // The standalone analysis stage: the fused single pass plus the modeled
  // feature collection, per matrix (what a feature-only refresh costs).
  Start = std::chrono::steady_clock::now();
  std::vector<double> CollectionMs(Specs.size());
  parallelFor(Threads, Specs.size(), [&](size_t I) {
    const CsrMatrix M = Specs[I].Build();
    const MatrixStats Stats = computeMatrixStats(M);
    CollectionMs[I] =
        collectGatheredFeatures(M, Sim, Stats.Gathered).CollectionMs;
  });
  Result.AnalysisSeconds = secondsSince(Start);

  TrainerConfig Trainer;
  Trainer.Parallelism = Threads;
  Start = std::chrono::steady_clock::now();
  const SeerModels Models =
      trainSeerModels(Benchmarks, Registry.names(), Trainer);
  Result.TrainSeconds = secondsSince(Start);

  Result.RuntimeCsv =
      Benchmarker::runtimeCsv(Benchmarks, Registry.names()).toString();
  Result.PreprocessingCsv =
      Benchmarker::preprocessingCsv(Benchmarks, Registry.names()).toString();
  Result.FeaturesCsv = Benchmarker::featuresCsv(Benchmarks).toString();
  Result.Trees = Models.Known.serialize() + Models.Gathered.serialize() +
                 Models.Selector.serialize();
  for (const auto &[Function, Tree] :
       {std::pair<const char *, const DecisionTree *>{"seer_known_predict",
                                                      &Models.Known},
        {"seer_gathered_predict", &Models.Gathered},
        {"seer_selector_predict", &Models.Selector}}) {
    CodegenOptions Options;
    Options.FunctionName = Function;
    Options.ClassNames = Tree == &Models.Selector
                             ? std::vector<std::string>{"known", "gathered"}
                             : Registry.names();
    Result.Headers += generateTreeHeader(*Tree, Options);
  }
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  FlagSpec Spec;
  Spec.Value = {"out", "threads"};
  Spec.Int = {"variants", "max-rows"};
  const CommandLine Cmd(Argc, Argv, Usage, Spec);
  if (const auto Early = Cmd.earlyExit())
    return *Early;
  const std::string OutPath = Cmd.flag("out", "BENCH_pipeline.json");

  std::vector<uint32_t> Threads;
  for (const std::string &Part :
       splitString(Cmd.flag("threads", "1,2,4,8"), ',')) {
    int64_t Value = 0;
    if (!parseInt(Part, Value) || Value < 1)
      fatal("bad --threads entry '" + Part + "'");
    Threads.push_back(static_cast<uint32_t>(Value));
  }
  if (Threads.empty() || Threads.front() != 1)
    Threads.insert(Threads.begin(), 1); // serial baseline is mandatory

  CollectionConfig Collection;
  Collection.VariantsPerCell =
      static_cast<uint32_t>(Cmd.intFlag("variants", 2));
  Collection.MaxRows = static_cast<uint32_t>(Cmd.intFlag("max-rows", 65536));
  const std::vector<MatrixSpec> Specs = buildCollection(Collection);

  const KernelRegistry Registry;
  const GpuSimulator Sim(DeviceModel::mi100());

  std::fprintf(stderr,
               "pipeline_scaling: %zu matrices, %u hardware threads\n",
               Specs.size(), resolveParallelism(0));

  std::vector<RunResult> Results;
  for (uint32_t T : Threads) {
    std::fprintf(stderr, "  %2u thread(s)... ", T);
    Results.push_back(runAt(T, Specs, Registry, Sim));
    const RunResult &R = Results.back();
    std::fprintf(stderr,
                 "sweep %.2fs  analysis %.2fs  train %.2fs  total %.2fs\n",
                 R.SweepSeconds, R.AnalysisSeconds, R.TrainSeconds,
                 R.totalSeconds());
  }

  const RunResult &Serial = Results.front();
  bool BitIdentical = true;
  for (const RunResult &R : Results)
    BitIdentical = BitIdentical && R.RuntimeCsv == Serial.RuntimeCsv &&
                   R.PreprocessingCsv == Serial.PreprocessingCsv &&
                   R.FeaturesCsv == Serial.FeaturesCsv &&
                   R.Trees == Serial.Trees && R.Headers == Serial.Headers;

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out)
    fatal("cannot write '" + OutPath + "'");
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"benchmark\": \"pipeline_scaling\",\n");
  std::fprintf(Out, "  \"matrices\": %zu,\n", Specs.size());
  std::fprintf(Out, "  \"hardware_threads\": %u,\n", resolveParallelism(0));
  std::fprintf(Out, "  \"bit_identical\": %s,\n",
               BitIdentical ? "true" : "false");
  std::fprintf(Out, "  \"runs\": [\n");
  for (size_t I = 0; I < Results.size(); ++I) {
    const RunResult &R = Results[I];
    std::fprintf(
        Out,
        "    {\"threads\": %u, \"sweep_s\": %.6f, \"analysis_s\": %.6f, "
        "\"train_s\": %.6f, \"total_s\": %.6f, \"speedup\": %.3f}%s\n",
        Threads[I], R.SweepSeconds, R.AnalysisSeconds, R.TrainSeconds,
        R.totalSeconds(), Serial.totalSeconds() / R.totalSeconds(),
        I + 1 < Results.size() ? "," : "");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);

  std::printf("wrote %s (bit_identical=%s, best speedup %.2fx)\n",
              OutPath.c_str(), BitIdentical ? "true" : "false",
              [&] {
                double Best = 1.0;
                for (const RunResult &R : Results)
                  Best = std::max(Best,
                                  Serial.totalSeconds() / R.totalSeconds());
                return Best;
              }());
  return BitIdentical ? 0 : 1;
}
