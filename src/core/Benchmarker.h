//===- core/Benchmarker.h - GPU benchmarking stage of the Seer API --------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "GPU benchmarking" stage of Fig. 4: runs every kernel variant over
/// every member of the representative dataset, recording per-iteration
/// runtime and one-time preprocessing time, plus the feature-collection
/// kernels and their cost. Produces both in-memory measurements and the
/// CSV files the paper's training script ingests.
///
/// Protocol (Section IV-B): the paper uses 10 warm-up iterations and
/// averages 10 timed runs. The simulator is deterministic, so warm-up is
/// a no-op; instead the benchmarker synthesizes the 10 timed samples by
/// applying seeded log-normal measurement noise to the simulated time and
/// averaging — giving the training data the measurement jitter a real
/// testbed would have without re-simulating.
///
/// Every kernel's host result is verified against the reference multiply;
/// a mismatch is a fatal error (a kernel schedule bug, not a data issue).
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_BENCHMARKER_H
#define SEER_CORE_BENCHMARKER_H

#include "core/ExecutionPlan.h"
#include "kernels/KernelRegistry.h"
#include "sparse/Collection.h"
#include "sparse/MatrixStats.h"
#include "support/Csv.h"

#include <functional>
#include <string>
#include <vector>

namespace seer {

/// Timing of one kernel on one matrix.
struct KernelMeasurement {
  /// One-time preprocessing cost, ms (0 for most kernels).
  double PreprocessMs = 0.0;
  /// Averaged per-iteration runtime, ms.
  double IterationMs = 0.0;

  /// Total cost of \p Iterations iterations (preprocessing amortized).
  double totalMs(double Iterations) const {
    return PreprocessMs + Iterations * IterationMs;
  }
};

/// All measurements for one dataset member.
struct MatrixBenchmark {
  std::string Name;
  KnownFeatures Known;
  GatheredFeatures Gathered;
  /// Simulated cost of running the feature-collection kernels.
  double FeatureCollectionMs = 0.0;
  /// Indexed by KernelRegistry order.
  std::vector<KernelMeasurement> PerKernel;

  /// Index of the fastest kernel for \p Iterations iterations.
  size_t fastestKernel(double Iterations) const;
};

/// Benchmarking configuration.
struct BenchmarkConfig {
  /// Timed samples averaged per measurement (paper: 10).
  uint32_t TimedRuns = 10;
  /// Log-normal measurement-noise sigma applied to each timed sample.
  double NoiseSigma = 0.02;
  /// Seed of the noise stream (per-matrix streams derive from it).
  uint64_t NoiseSeed = 0x5ee2b41cull;
  /// Verify every kernel's numeric result against the reference multiply.
  bool VerifyResults = true;
  /// Worker threads for the sweep: 1 = serial, 0 = one per hardware
  /// thread, N = exactly N. benchmarkCollection parallelizes across
  /// matrices and benchmarkMatrix across the kernel registry; results are
  /// bit-identical at every setting because the noise streams are seeded
  /// per (matrix, kernel), never per thread. Deliberately excluded from
  /// the benchmark cache key for the same reason.
  uint32_t Parallelism = 1;
};

/// Runs the benchmarking stage.
class Benchmarker {
public:
  Benchmarker(const KernelRegistry &Registry, const GpuSimulator &Sim,
              BenchmarkConfig Config = BenchmarkConfig());

  /// Benchmarks a single matrix.
  MatrixBenchmark benchmarkMatrix(const std::string &Name,
                                  const CsrMatrix &M) const;

  /// Benchmarks every spec in \p Specs, building matrices on demand so
  /// peak memory stays one matrix per worker. With Parallelism != 1 the
  /// members are benchmarked concurrently; the returned vector is always
  /// in spec order and bit-identical to a serial run. \p Progress (may be
  /// null) is invoked with (index, total, name) as each member starts —
  /// serialized, but possibly from worker threads and out of index order.
  std::vector<MatrixBenchmark> benchmarkCollection(
      const std::vector<MatrixSpec> &Specs,
      const std::function<void(size_t, size_t, const std::string &)>
          &Progress = nullptr) const;

  const KernelRegistry &registry() const { return Registry; }
  const GpuSimulator &simulator() const { return Sim; }

  /// CSV emission (Fig. 4 schemas). Runtime/preprocessing tables have one
  /// column per kernel plus the leading name column; the feature table has
  /// the known + gathered features and a trailing collection-time column.
  static CsvTable runtimeCsv(const std::vector<MatrixBenchmark> &Benchmarks,
                             const std::vector<std::string> &KernelNames);
  static CsvTable
  preprocessingCsv(const std::vector<MatrixBenchmark> &Benchmarks,
                   const std::vector<std::string> &KernelNames);
  static CsvTable featuresCsv(const std::vector<MatrixBenchmark> &Benchmarks);

  /// Rebuilds measurements from the three CSV tables (inverse of the
  /// emitters; used by the `seer()` entry point that consumes files).
  static std::optional<std::vector<MatrixBenchmark>>
  fromCsv(const CsvTable &Runtime, const CsvTable &Preprocessing,
          const CsvTable &Features, std::string *ErrorMessage);

private:
  const KernelRegistry &Registry;
  const GpuSimulator &Sim;
  /// The shared pipeline's model-less stages (analyze/collect/prepare/
  /// run): the sweep builds one per-kernel ExecutionPlan per matrix and
  /// reuses its prepared state for verification and the timed runs.
  Planner Pipeline;
  BenchmarkConfig Config;
};

} // namespace seer

#endif // SEER_CORE_BENCHMARKER_H
