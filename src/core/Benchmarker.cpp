//===- core/Benchmarker.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "core/Benchmarker.h"

#include "core/Features.h"
#include "kernels/FeatureKernels.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Tracing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace seer;

size_t MatrixBenchmark::fastestKernel(double Iterations) const {
  assert(!PerKernel.empty() && "no measurements");
  size_t Best = 0;
  for (size_t K = 1; K < PerKernel.size(); ++K)
    if (PerKernel[K].totalMs(Iterations) < PerKernel[Best].totalMs(Iterations))
      Best = K;
  return Best;
}

Benchmarker::Benchmarker(const KernelRegistry &Registry,
                         const GpuSimulator &Sim, BenchmarkConfig Config)
    : Registry(Registry), Sim(Sim), Pipeline(Registry, Sim), Config(Config) {}

namespace {

/// Derives a per-(matrix, kernel) noise seed from the names.
uint64_t noiseSeed(uint64_t Base, const std::string &Matrix, size_t Kernel) {
  uint64_t Hash = Base;
  for (char C : Matrix)
    Hash = Hash * 1099511628211ull + static_cast<unsigned char>(C);
  return Hash * 1099511628211ull + Kernel;
}

/// Averages \p Runs log-normal noisy samples of \p TrueMs.
double averageNoisy(double TrueMs, double Sigma, uint32_t Runs, Rng &R) {
  if (Sigma <= 0.0 || Runs == 0)
    return TrueMs;
  double Sum = 0.0;
  for (uint32_t I = 0; I < Runs; ++I)
    Sum += TrueMs * R.logNormal(-0.5 * Sigma * Sigma, Sigma);
  return Sum / Runs;
}

/// Fatal diagnostic for a kernel whose host result diverges from the
/// reference multiply: this is a schedule implementation bug.
[[noreturn]] void reportVerificationFailure(const std::string &Matrix,
                                            const std::string &Kernel,
                                            uint32_t Row, double Got,
                                            double Want) {
  std::fprintf(stderr,
               "error: kernel %s produced wrong result on %s: row %u is %g, "
               "expected %g\n",
               Kernel.c_str(), Matrix.c_str(), Row, Got, Want);
  std::abort();
}

} // namespace

MatrixBenchmark Benchmarker::benchmarkMatrix(const std::string &Name,
                                             const CsrMatrix &M) const {
  MatrixBenchmark Bench;
  Bench.Name = Name;
  // One shared single-pass analysis feeds everything downstream: the known
  // features, the simulator's memory model, every kernel's schedule, and
  // the feature-collection result (which no longer re-walks the rows).
  const AnalyzedMatrix Analyzed = Pipeline.analyze(M);
  Bench.Known = Analyzed.Stats.Known;

  // Feature collection: the GPU kernels return the same statistics the
  // shared analysis already computed, plus their simulated cost.
  const FeatureCollectionResult Collection = Pipeline.collect(Analyzed);
  Bench.Gathered = Collection.Features;
  Bench.FeatureCollectionMs = Collection.CollectionMs;

  // Operand and reference result, hoisted so the per-kernel work is only
  // the kernel itself plus an elementwise compare.
  std::vector<double> X(M.numCols());
  Rng XRng(noiseSeed(0x5eedf00dull, Name, 0));
  for (double &V : X)
    V = XRng.uniform(-1.0, 1.0);
  std::vector<double> Reference;
  if (Config.VerifyResults) {
    ScopedSpan Span(spanname::PlanVerify);
    Reference = M.multiply(X);
  }

  Bench.PerKernel.resize(Registry.size());
  parallelFor(Config.Parallelism, Registry.size(), [&](size_t K) {
    // One prepared plan per kernel; its state serves the verification run
    // and the timed measurements alike.
    const ExecutionPlan Plan = Pipeline.planForKernel(Analyzed, K);
    const SpmvRun Run = Pipeline.run(Plan, Analyzed, X);

    if (Config.VerifyResults) {
      ScopedSpan Span(spanname::PlanVerify);
      assert(Run.Y.size() == Reference.size() && "result length mismatch");
      for (uint32_t Row = 0; Row < M.numRows(); ++Row) {
        const double Got = Run.Y[Row];
        const double Want = Reference[Row];
        const double Tolerance =
            1e-9 * std::max({std::abs(Got), std::abs(Want), 1.0});
        if (std::abs(Got - Want) > Tolerance)
          reportVerificationFailure(Name, Registry.kernel(K).name(), Row, Got,
                                    Want);
      }
    }

    Rng Noise(noiseSeed(Config.NoiseSeed, Name, K));
    Bench.PerKernel[K].PreprocessMs = averageNoisy(
        Plan.ModeledPreprocessMs, Config.NoiseSigma, Config.TimedRuns, Noise);
    Bench.PerKernel[K].IterationMs = averageNoisy(
        Run.Timing.TotalMs, Config.NoiseSigma, Config.TimedRuns, Noise);
  });
  return Bench;
}

std::vector<MatrixBenchmark> Benchmarker::benchmarkCollection(
    const std::vector<MatrixSpec> &Specs,
    const std::function<void(size_t, size_t, const std::string &)> &Progress)
    const {
  std::vector<MatrixBenchmark> Benchmarks(Specs.size());
  std::mutex ProgressMutex;
  parallelFor(Config.Parallelism, Specs.size(), [&](size_t I) {
    if (Progress) {
      std::lock_guard<std::mutex> Lock(ProgressMutex);
      Progress(I, Specs.size(), Specs[I].Name);
    }
    const CsrMatrix M = Specs[I].Build();
    Benchmarks[I] = benchmarkMatrix(Specs[I].Name, M);
  });
  return Benchmarks;
}

CsvTable
Benchmarker::runtimeCsv(const std::vector<MatrixBenchmark> &Benchmarks,
                        const std::vector<std::string> &KernelNames) {
  std::vector<std::string> Columns = {"name"};
  Columns.insert(Columns.end(), KernelNames.begin(), KernelNames.end());
  CsvTable Table(std::move(Columns));
  for (const MatrixBenchmark &Bench : Benchmarks) {
    assert(Bench.PerKernel.size() == KernelNames.size() &&
           "kernel arity mismatch");
    std::vector<std::string> Row = {Bench.Name};
    for (const KernelMeasurement &M : Bench.PerKernel)
      Row.push_back(CsvTable::formatDouble(M.IterationMs));
    Table.addRow(std::move(Row));
  }
  return Table;
}

CsvTable
Benchmarker::preprocessingCsv(const std::vector<MatrixBenchmark> &Benchmarks,
                              const std::vector<std::string> &KernelNames) {
  std::vector<std::string> Columns = {"name"};
  Columns.insert(Columns.end(), KernelNames.begin(), KernelNames.end());
  CsvTable Table(std::move(Columns));
  for (const MatrixBenchmark &Bench : Benchmarks) {
    std::vector<std::string> Row = {Bench.Name};
    for (const KernelMeasurement &M : Bench.PerKernel)
      Row.push_back(CsvTable::formatDouble(M.PreprocessMs));
    Table.addRow(std::move(Row));
  }
  return Table;
}

CsvTable
Benchmarker::featuresCsv(const std::vector<MatrixBenchmark> &Benchmarks) {
  // The column list is the feature schema itself (features::gatheredNames
  // minus the train-time-only iterations axis), so the CSV and the
  // in-memory feature vectors cannot drift apart.
  CsvTable Table(features::featureCsvColumns());
  for (const MatrixBenchmark &Bench : Benchmarks) {
    Table.addRow({Bench.Name, std::to_string(Bench.Known.NumRows),
                  std::to_string(Bench.Known.NumCols),
                  std::to_string(Bench.Known.Nnz),
                  CsvTable::formatDouble(Bench.Gathered.MaxRowDensity),
                  CsvTable::formatDouble(Bench.Gathered.MinRowDensity),
                  CsvTable::formatDouble(Bench.Gathered.MeanRowDensity),
                  CsvTable::formatDouble(Bench.Gathered.VarRowDensity),
                  CsvTable::formatDouble(Bench.FeatureCollectionMs)});
  }
  return Table;
}

std::optional<std::vector<MatrixBenchmark>>
Benchmarker::fromCsv(const CsvTable &Runtime, const CsvTable &Preprocessing,
                     const CsvTable &Features, std::string *ErrorMessage) {
  const auto Fail =
      [&](const std::string &Message)
      -> std::optional<std::vector<MatrixBenchmark>> {
    if (ErrorMessage)
      *ErrorMessage = Message;
    return std::nullopt;
  };
  if (Runtime.numColumns() < 2 ||
      Runtime.columns() != Preprocessing.columns())
    return Fail("runtime and preprocessing tables must share kernel columns");
  if (Runtime.numRows() != Preprocessing.numRows() ||
      Runtime.numRows() != Features.numRows())
    return Fail("tables disagree on dataset size");
  if (Features.columns() != features::featureCsvColumns())
    return Fail("features table does not match the feature schema");

  const size_t NumKernels = Runtime.numColumns() - 1;
  std::vector<MatrixBenchmark> Benchmarks;
  Benchmarks.reserve(Runtime.numRows());
  for (size_t Row = 0; Row < Runtime.numRows(); ++Row) {
    MatrixBenchmark Bench;
    Bench.Name = Runtime.cell(Row, 0);
    if (Features.cell(Row, 0) != Bench.Name ||
        Preprocessing.cell(Row, 0) != Bench.Name)
      return Fail("row " + std::to_string(Row) +
                  ": tables disagree on member names");
    Bench.PerKernel.resize(NumKernels);
    for (size_t K = 0; K < NumKernels; ++K) {
      const auto Iter = Runtime.cellAsDouble(Row, Runtime.columns()[K + 1]);
      const auto Prep =
          Preprocessing.cellAsDouble(Row, Runtime.columns()[K + 1]);
      if (!Iter || !Prep)
        return Fail("row " + std::to_string(Row) + ": non-numeric timing");
      Bench.PerKernel[K].IterationMs = *Iter;
      Bench.PerKernel[K].PreprocessMs = *Prep;
    }
    const auto Rows = Features.cellAsInt(Row, "rows");
    const auto Cols = Features.cellAsInt(Row, "cols");
    const auto Nnz = Features.cellAsInt(Row, "nnz");
    const auto MaxD = Features.cellAsDouble(Row, "max_density");
    const auto MinD = Features.cellAsDouble(Row, "min_density");
    const auto MeanD = Features.cellAsDouble(Row, "mean_density");
    const auto VarD = Features.cellAsDouble(Row, "var_density");
    const auto Cost = Features.cellAsDouble(Row, "collection_ms");
    if (!Rows || !Cols || !Nnz || !MaxD || !MinD || !MeanD || !VarD || !Cost)
      return Fail("row " + std::to_string(Row) + ": malformed feature row");
    Bench.Known.NumRows = static_cast<uint32_t>(*Rows);
    Bench.Known.NumCols = static_cast<uint32_t>(*Cols);
    Bench.Known.Nnz = static_cast<uint64_t>(*Nnz);
    Bench.Gathered.MaxRowDensity = *MaxD;
    Bench.Gathered.MinRowDensity = *MinD;
    Bench.Gathered.MeanRowDensity = *MeanD;
    Bench.Gathered.VarRowDensity = *VarD;
    Bench.FeatureCollectionMs = *Cost;
    Benchmarks.push_back(std::move(Bench));
  }
  return Benchmarks;
}
