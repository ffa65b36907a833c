//===- tests/kernels_test.cpp - Tests for the SpMV kernel variants --------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// Two kinds of coverage:
///  - correctness: every kernel's host execution must reproduce the
///    reference multiply on every generator family (parameterized sweep);
///  - behavioural shape: the relative timings the paper's selection
///    problem depends on (divergence collapse of CSR,TM, ELL's padding
///    blow-up, adaptive preprocessing amortization, Fig. 6's crossover).
///
//===----------------------------------------------------------------------===//

#include "core/ExecutionPlan.h"
#include "kernels/AdaptiveKernels.h"
#include "kernels/CsrKernels.h"
#include "kernels/FeatureKernels.h"
#include "kernels/FormatKernels.h"
#include "kernels/KernelRegistry.h"
#include "sparse/EllMatrix.h"
#include "sparse/Generators.h"
#include "support/Fnv.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

using namespace seer;

namespace {

GpuSimulator makeSim() { return GpuSimulator(DeviceModel::mi100()); }

std::vector<double> randomVector(uint32_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<double> X(N);
  for (double &V : X)
    V = R.uniform(-1.0, 1.0);
  return X;
}

/// Runs \p Kernel end to end (preprocess + run) and returns the result.
SpmvRun runKernel(const SpmvKernel &Kernel, const CsrMatrix &M,
                  const std::vector<double> &X, const GpuSimulator &Sim,
                  double *PreprocessMs = nullptr) {
  const MatrixStats Stats = computeMatrixStats(M);
  const PreprocessResult Prep = Kernel.preprocess(M, Stats, Sim);
  if (PreprocessMs)
    *PreprocessMs = Prep.TimeMs;
  return Kernel.run(M, Stats, Prep.State.get(), X, Sim);
}

void expectMatches(const std::vector<double> &Got,
                   const std::vector<double> &Want, const std::string &Label) {
  ASSERT_EQ(Got.size(), Want.size()) << Label;
  for (size_t I = 0; I < Got.size(); ++I)
    ASSERT_NEAR(Got[I], Want[I],
                1e-9 * std::max({std::abs(Got[I]), std::abs(Want[I]), 1.0}))
        << Label << " row " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Correctness sweep: every kernel x every matrix family.
//===----------------------------------------------------------------------===//

struct NamedMatrixCase {
  const char *Name;
  CsrMatrix (*Build)();
};

// Small but structurally diverse instances; each exercises a different
// scheduling regime (empty rows, skew, uniformity, single long row, ...).
const NamedMatrixCase CorrectnessCases[] = {
    {"banded", [] { return genBanded(300, 4, 1.0, 1); }},
    {"banded_sparse_fill", [] { return genBanded(257, 9, 0.4, 2); }},
    {"uniform", [] { return genUniformRandom(400, 350, 8.0, 0.3, 3); }},
    {"powerlaw", [] { return genPowerLaw(500, 500, 1.4, 1, 200, 4); }},
    {"blockdiag", [] { return genBlockDiagonal(256, 32, 0.5, 5); }},
    {"diagonal", [] { return genDiagonal(128, 6); }},
    {"rmat", [] { return genRmat(8, 8, 7); }},
    {"denserow", [] { return genDenseRowOutlier(512, 512, 3.0, 2, 300, 8); }},
    {"constrow", [] { return genConstantRowRandom(200, 180, 12, 9); }},
    {"single_row",
     [] {
       return CsrMatrix::fromTriplets(1, 64,
                                      {{0, 0, 1.0}, {0, 31, 2.0}, {0, 63, 3.0}});
     }},
    {"with_empty_rows",
     [] {
       return CsrMatrix::fromTriplets(
           7, 7, {{0, 0, 1.0}, {3, 2, 2.0}, {3, 3, 3.0}, {6, 6, 4.0}});
     }},
    {"one_huge_row", [] { return genDenseRowOutlier(64, 8192, 2.0, 1, 8000, 10); }},
};

class KernelCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KernelCorrectnessTest, MatchesReference) {
  const auto [KernelIdx, CaseIdx] = GetParam();
  const KernelRegistry Registry;
  const GpuSimulator Sim = makeSim();
  const NamedMatrixCase &Case = CorrectnessCases[CaseIdx];
  const CsrMatrix M = Case.Build();
  const std::vector<double> X = randomVector(M.numCols(), 1234 + CaseIdx);
  const std::vector<double> Reference = M.multiply(X);
  const SpmvKernel &Kernel = Registry.kernel(KernelIdx);
  const SpmvRun Run = runKernel(Kernel, M, X, Sim);
  expectMatches(Run.Y, Reference, Kernel.name() + " on " + Case.Name);
  EXPECT_GT(Run.Timing.TotalMs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllFamilies, KernelCorrectnessTest,
    ::testing::Combine(::testing::Range<size_t>(0, 9),
                       ::testing::Range<size_t>(
                           0, std::size(CorrectnessCases))),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>> &Info) {
      static const KernelRegistry Registry;
      std::string Name =
          Registry.kernel(std::get<0>(Info.param)).name() + "_" +
          CorrectnessCases[std::get<1>(Info.param)].Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Bit identity across the compute/timing split, pinned to recorded hashes.
//===----------------------------------------------------------------------===//

namespace {

/// One input per regime the split could get wrong: skew, a regular band,
/// empty rows, one dense row, an ELL input above the materialization
/// budget (the virtual view), and no nonzeros at all.
std::vector<CsrMatrix> bitIdentityShapes() {
  std::vector<CsrMatrix> Shapes;
  Shapes.push_back(genPowerLaw(2048, 2048, 1.6, 1, 600, 41));
  Shapes.push_back(genBanded(1500, 6, 0.8, 42));
  {
    // Two of every three rows empty, the rest short runs.
    Rng R(43);
    std::vector<Triplet> Entries;
    for (uint32_t Row = 0; Row < 900; Row += 3) {
      const uint32_t Length = 1 + static_cast<uint32_t>(R.bounded(12));
      for (uint32_t Col = Row; Col < std::min<uint32_t>(900, Row + Length);
           ++Col)
        Entries.push_back({Row, Col, R.uniform(-2.0, 2.0)});
    }
    Shapes.push_back(CsrMatrix::fromTriplets(900, 900, std::move(Entries)));
  }
  Shapes.push_back(genDenseRowOutlier(1024, 4096, 4.0, 1, 4000, 44));
  Shapes.push_back(genDenseRowOutlier(16384, 16384, 2.0, 1, 4200, 45));
  Shapes.push_back(CsrMatrix::fromTriplets(64, 64, {}));
  return Shapes;
}

/// FNV-1a over the bits of everything kernel \p K produces on \p Shapes:
/// a prepared plan's Y and TotalMs from Planner::run, and the one-shot
/// SpmvKernel::run's Y and every field of its Timing.
uint64_t kernelBitsHash(size_t K, const std::vector<CsrMatrix> &Shapes) {
  const KernelRegistry Registry;
  const GpuSimulator Sim = makeSim();
  const Planner Pipeline(Registry, Sim);
  const SpmvKernel &Kernel = Registry.kernel(K);
  Fnv1a Hash;
  for (size_t S = 0; S < Shapes.size(); ++S) {
    const CsrMatrix &M = Shapes[S];
    const std::vector<double> X = randomVector(M.numCols(), 7000 + S);
    const AnalyzedMatrix A = Pipeline.analyze(M);
    const ExecutionPlan Plan = Pipeline.planForKernel(A, K);
    const SpmvRun Planned = Pipeline.run(Plan, A, X);
    for (double V : Planned.Y)
      Hash.add(V);
    Hash.add(Planned.Timing.TotalMs);
    const SpmvRun OneShot = Kernel.run(M, A.Stats, Plan.State.get(), X, Sim);
    for (double V : OneShot.Y)
      Hash.add(V);
    Hash.add(OneShot.Timing.TotalMs);
    Hash.add(OneShot.Timing.ComputeMs);
    Hash.add(OneShot.Timing.MemoryMs);
    Hash.add(OneShot.Timing.OverheadMs);
    Hash.add(OneShot.Timing.NumWavefronts);
    Hash.add(OneShot.Timing.DramBytes);
  }
  return Hash.value();
}

} // namespace

TEST(KernelSplitTest, BitIdenticalToTheFusedRun) {
  // Recorded from the fused run() that computed Y and simulated the
  // launch in one pass, before the split into compute() and timing():
  // the split must not move one bit of any product or timing.
  const std::pair<const char *, uint64_t> Expected[] = {
      {"CSR,A", 0xcc7fce81af6fb8eeull},
      {"CSR,BM", 0x737782b0524ae55dull},
      {"CSR,MP", 0x6d47b2b0cdbe6e1full},
      {"CSR,WM", 0x199abce5c81afadfull},
      {"CSR,WO", 0xece21059f683e8e2ull},
      {"CSR,TM", 0x24981ff974cb2bbcull},
      {"COO,WM", 0xf6fe511ad46b9b25ull},
      {"ELL,TM", 0xae7975f73f906b8cull},
      {"rocSPARSE", 0x15256d06feebc4d8ull},
  };
  const std::vector<CsrMatrix> Shapes = bitIdentityShapes();
  ASSERT_GT(static_cast<uint64_t>(Shapes[4].numRows()) *
                Shapes[4].maxRowLength(),
            EllMatrix::DefaultMaxMaterializedCells);
  ASSERT_EQ(Shapes[5].nnz(), 0u);
  const KernelRegistry Registry;
  ASSERT_EQ(Registry.size(), std::size(Expected));
  for (size_t K = 0; K < Registry.size(); ++K) {
    ASSERT_EQ(Registry.kernel(K).name(), Expected[K].first);
    const uint64_t Got = kernelBitsHash(K, Shapes);
    EXPECT_EQ(Got, Expected[K].second)
        << Expected[K].first << " hashes to 0x" << std::hex << Got;
  }
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(KernelRegistryTest, ContainsTheTable2Zoo) {
  const KernelRegistry Registry;
  EXPECT_EQ(Registry.size(), 9u);
  for (const char *Name : {"CSR,A", "CSR,BM", "CSR,MP", "CSR,WM", "CSR,WO",
                           "CSR,TM", "COO,WM", "ELL,TM", "rocSPARSE"})
    EXPECT_NE(Registry.indexOf(Name), KernelRegistry::npos) << Name;
  EXPECT_EQ(Registry.indexOf("nope"), KernelRegistry::npos);
}

TEST(KernelRegistryTest, OrderIsStable) {
  const KernelRegistry A, B;
  EXPECT_EQ(A.names(), B.names());
  EXPECT_EQ(A.names()[0], "CSR,A");
  EXPECT_EQ(A.names()[7], "ELL,TM");
}

TEST(KernelRegistryTest, FormatsAreReported) {
  const KernelRegistry Registry;
  EXPECT_EQ(Registry.kernel(Registry.indexOf("ELL,TM")).format(), "ELL");
  EXPECT_EQ(Registry.kernel(Registry.indexOf("COO,WM")).format(), "COO");
  EXPECT_EQ(Registry.kernel(Registry.indexOf("CSR,TM")).format(), "CSR");
}

//===----------------------------------------------------------------------===//
// Behavioural shape (the signal the predictor learns).
//===----------------------------------------------------------------------===//

TEST(KernelBehaviourTest, ThreadMappedCollapsesOnSkew) {
  const GpuSimulator Sim = makeSim();
  const CsrThreadMapped Tm;
  const CsrWorkOriented Wo;
  // Heavily skewed: a few 20k-long rows among 2-long rows.
  const CsrMatrix Skewed = genDenseRowOutlier(20000, 20000, 2.0, 4, 15000, 77);
  const std::vector<double> X = randomVector(Skewed.numCols(), 1);
  const double TmMs = runKernel(Tm, Skewed, X, Sim).Timing.TotalMs;
  const double WoMs = runKernel(Wo, Skewed, X, Sim).Timing.TotalMs;
  // Divergence makes one thread drag the whole device.
  EXPECT_GT(TmMs, 2.0 * WoMs);
}

TEST(KernelBehaviourTest, ThreadMappedFineOnUniformShortRows) {
  const GpuSimulator Sim = makeSim();
  const CsrThreadMapped Tm;
  const CsrBlockMapped Bm;
  // Tiny uniform rows: one thread per row is the right granularity; a
  // whole workgroup per 4-nnz row is absurd overkill.
  const CsrMatrix Uniform = genConstantRowRandom(30000, 30000, 4, 78);
  const std::vector<double> X = randomVector(Uniform.numCols(), 2);
  const double TmMs = runKernel(Tm, Uniform, X, Sim).Timing.TotalMs;
  const double BmMs = runKernel(Bm, Uniform, X, Sim).Timing.TotalMs;
  EXPECT_LT(TmMs, BmMs);
}

TEST(KernelBehaviourTest, BlockMappedWinsOnFewHugeRows) {
  const GpuSimulator Sim = makeSim();
  const CsrBlockMapped Bm;
  const CsrThreadMapped Tm;
  // 32 rows of 100k nonzeros: a row per thread serializes everything;
  // a workgroup per row parallelizes within the row.
  std::vector<Triplet> Entries;
  Rng R(99);
  for (uint32_t Row = 0; Row < 32; ++Row)
    for (uint32_t K = 0; K < 100000; ++K)
      Entries.push_back({Row, static_cast<uint32_t>(R.bounded(200000)),
                         R.uniform(-1.0, 1.0)});
  const CsrMatrix M = CsrMatrix::fromTriplets(32, 200000, std::move(Entries));
  const std::vector<double> X = randomVector(M.numCols(), 3);
  const double BmMs = runKernel(Bm, M, X, Sim).Timing.TotalMs;
  const double TmMs = runKernel(Tm, M, X, Sim).Timing.TotalMs;
  // Both kernels stream the same nonzeros, so the memory roofline bounds
  // the possible gap; the divergence win must still be decisive.
  EXPECT_LT(BmMs, TmMs / 2.0);
}

TEST(KernelBehaviourTest, EllWinsOnUniformLosesOnSkew) {
  const GpuSimulator Sim = makeSim();
  const EllThreadMapped Ell;
  const CsrWarpMapped Wm;
  // Uniform constant rows: ELL's zero-divergence coalesced slab wins over
  // a wavefront per 8-nnz row.
  const CsrMatrix Uniform = genConstantRowRandom(50000, 50000, 8, 101);
  const std::vector<double> XU = randomVector(Uniform.numCols(), 4);
  EXPECT_LT(runKernel(Ell, Uniform, XU, Sim).Timing.TotalMs,
            runKernel(Wm, Uniform, XU, Sim).Timing.TotalMs);
  // Skew: one 10k row pads every row to width 10k — catastrophic.
  const CsrMatrix Skewed = genDenseRowOutlier(50000, 50000, 4.0, 1, 10000, 102);
  const std::vector<double> XS = randomVector(Skewed.numCols(), 5);
  EXPECT_GT(runKernel(Ell, Skewed, XS, Sim).Timing.TotalMs,
            10.0 * runKernel(Wm, Skewed, XS, Sim).Timing.TotalMs);
}

TEST(KernelBehaviourTest, AdaptivePreprocessingGrowsWithRows) {
  const GpuSimulator Sim = makeSim();
  const CsrAdaptive Adaptive;
  double SmallPrep = 0.0, LargePrep = 0.0;
  const CsrMatrix Small = genBanded(1000, 4, 1.0, 11);
  const CsrMatrix Large = genBanded(100000, 4, 1.0, 12);
  runKernel(Adaptive, Small, randomVector(Small.numCols(), 6), Sim,
            &SmallPrep);
  runKernel(Adaptive, Large, randomVector(Large.numCols(), 7), Sim,
            &LargePrep);
  EXPECT_GT(SmallPrep, 0.0);
  EXPECT_GT(LargePrep, 50.0 * SmallPrep);
}

TEST(KernelBehaviourTest, RocSparsePreprocessCostlierSteadyStateFaster) {
  const GpuSimulator Sim = makeSim();
  const CsrAdaptive A;
  const RocSparseAdaptive Roc;
  // Wide column space: the x gather misses in L2, so rocSPARSE's LDS
  // staging advantage is visible (on cache-resident inputs both adaptive
  // kernels are equally memory bound, which is realistic).
  const CsrMatrix M = genUniformRandom(150000, 3000000, 12.0, 0.2, 13);
  const std::vector<double> X = randomVector(M.numCols(), 8);
  double APrep = 0.0, RocPrep = 0.0;
  const double AMs = runKernel(A, M, X, Sim, &APrep).Timing.TotalMs;
  const double RocMs = runKernel(Roc, M, X, Sim, &RocPrep).Timing.TotalMs;
  EXPECT_GT(RocPrep, APrep);
  EXPECT_LT(RocMs, AMs);
}

TEST(KernelBehaviourTest, AdaptiveBeatsWarpMappedOnShortRows) {
  const GpuSimulator Sim = makeSim();
  const CsrAdaptive Adaptive;
  const CsrWarpMapped Wm;
  // 3-nnz rows: WM wastes 61 of 64 lanes; adaptive packs rows per lane.
  const CsrMatrix M = genConstantRowRandom(80000, 80000, 3, 21);
  const std::vector<double> X = randomVector(M.numCols(), 9);
  EXPECT_LT(runKernel(Adaptive, M, X, Sim).Timing.TotalMs,
            runKernel(Wm, M, X, Sim).Timing.TotalMs);
}

TEST(KernelBehaviourTest, MergePathHasSecondLaunchOverhead) {
  const GpuSimulator Sim = makeSim();
  const CsrMergePath Mp;
  const CsrWorkOriented Wo;
  // Tiny problem: MP's extra fix-up launch dominates; WO wins.
  const CsrMatrix Tiny = genBanded(64, 2, 1.0, 31);
  const std::vector<double> X = randomVector(Tiny.numCols(), 10);
  EXPECT_LT(runKernel(Wo, Tiny, X, Sim).Timing.TotalMs,
            runKernel(Mp, Tiny, X, Sim).Timing.TotalMs);
}

TEST(KernelBehaviourTest, LaunchOverheadFloorsTinyMatrices) {
  const GpuSimulator Sim = makeSim();
  const KernelRegistry Registry;
  const CsrMatrix Tiny = genDiagonal(16, 41);
  const std::vector<double> X = randomVector(16, 11);
  for (size_t K = 0; K < Registry.size(); ++K) {
    const double Ms =
        runKernel(Registry.kernel(K), Tiny, X, Sim).Timing.TotalMs;
    EXPECT_GE(Ms, Sim.device().LaunchOverheadUs * 1e-3)
        << Registry.kernel(K).name();
    EXPECT_LT(Ms, 0.1) << Registry.kernel(K).name(); // still micro-scale
  }
}

//===----------------------------------------------------------------------===//
// Feature collection (Fig. 6 shape).
//===----------------------------------------------------------------------===//

TEST(FeatureKernelsTest, StatisticsMatchHostComputation) {
  const GpuSimulator Sim = makeSim();
  const CsrMatrix M = genPowerLaw(3000, 3000, 1.5, 1, 100, 51);
  const MatrixStats Stats = computeMatrixStats(M);
  const FeatureCollectionResult R = collectGatheredFeatures(M, Sim);
  EXPECT_DOUBLE_EQ(R.Features.MaxRowDensity, Stats.Gathered.MaxRowDensity);
  EXPECT_DOUBLE_EQ(R.Features.MinRowDensity, Stats.Gathered.MinRowDensity);
  EXPECT_DOUBLE_EQ(R.Features.MeanRowDensity, Stats.Gathered.MeanRowDensity);
  EXPECT_DOUBLE_EQ(R.Features.VarRowDensity, Stats.Gathered.VarRowDensity);
}

TEST(FeatureKernelsTest, CostGrowsWithRows) {
  const GpuSimulator Sim = makeSim();
  const CsrMatrix Small = genDiagonal(1000, 52);
  const CsrMatrix Large = genDiagonal(2000000, 53);
  const double SmallMs = collectGatheredFeatures(Small, Sim).CollectionMs;
  const double LargeMs = collectGatheredFeatures(Large, Sim).CollectionMs;
  EXPECT_GT(LargeMs, 2.0 * SmallMs);
}

TEST(FeatureKernelsTest, FixedFloorForTinyMatrices) {
  const GpuSimulator Sim = makeSim();
  const CsrMatrix Tiny = genDiagonal(10, 54);
  const double Ms = collectGatheredFeatures(Tiny, Sim).CollectionMs;
  // Two launches + two readbacks (see FeatureKernels.cpp).
  const double FloorMs = (2.0 * Sim.device().LaunchOverheadUs +
                          2.0 * Sim.device().ReadbackOverheadUs) *
                         1e-3;
  EXPECT_GE(Ms, FloorMs);
  EXPECT_LT(Ms, 2.0 * FloorMs);
}

TEST(FeatureKernelsTest, Fig6CrossoverCollectionCheaperForLargeWork) {
  // Fig. 6: for small matrices the collection cost rivals the kernel
  // runtime; for large ones the kernel runtime grows faster (it touches
  // nonzeros, collection touches only rows).
  const GpuSimulator Sim = makeSim();
  const CsrBlockMapped Bm;
  const CsrMatrix Large = genBanded(200000, 26, 1.0, 55); // ~53 nnz/row
  const std::vector<double> X = randomVector(Large.numCols(), 12);
  const double KernelMs = runKernel(Bm, Large, X, Sim).Timing.TotalMs;
  const double CollectMs = collectGatheredFeatures(Large, Sim).CollectionMs;
  EXPECT_LT(CollectMs, KernelMs);

  const CsrMatrix Small = genBanded(500, 26, 1.0, 56);
  const std::vector<double> XS = randomVector(Small.numCols(), 13);
  const double SmallKernelMs = runKernel(Bm, Small, XS, Sim).Timing.TotalMs;
  const double SmallCollectMs =
      collectGatheredFeatures(Small, Sim).CollectionMs;
  // At the small end collection is comparable or worse.
  EXPECT_GT(SmallCollectMs, 0.5 * SmallKernelMs);
}

TEST(FeatureKernelsTest, DeterministicCost) {
  const GpuSimulator Sim = makeSim();
  const CsrMatrix M = genUniformRandom(5000, 5000, 10.0, 0.2, 57);
  const double A = collectGatheredFeatures(M, Sim).CollectionMs;
  const double B = collectGatheredFeatures(M, Sim).CollectionMs;
  EXPECT_DOUBLE_EQ(A, B);
}
