//===- tests/property_test.cpp - Property-based invariant sweeps ----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// Parameterized property tests: each suite states an invariant and sweeps
/// it across randomized instances (seeds are the parameters, so failures
/// reproduce exactly).
///
//===----------------------------------------------------------------------===//

#include "core/Seer.h"
#include "sparse/CooMatrix.h"
#include "sparse/EllMatrix.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <cmath>

using namespace seer;

//===----------------------------------------------------------------------===//
// Sparse format round-trip properties.
//===----------------------------------------------------------------------===//

class FormatRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

/// Any random triplet soup assembles into a valid CSR whose per-format
/// conversions all agree on y = A x.
TEST_P(FormatRoundTripProperty, AllFormatsAgreeOnMultiply) {
  Rng R(GetParam());
  const uint32_t Rows = static_cast<uint32_t>(1 + R.bounded(300));
  const uint32_t Cols = static_cast<uint32_t>(1 + R.bounded(300));
  const size_t Count = R.bounded(2000);
  std::vector<Triplet> Entries;
  for (size_t I = 0; I < Count; ++I)
    Entries.push_back({static_cast<uint32_t>(R.bounded(Rows)),
                       static_cast<uint32_t>(R.bounded(Cols)),
                       R.uniform(-2.0, 2.0)});
  const CsrMatrix Csr = CsrMatrix::fromTriplets(Rows, Cols, Entries);
  std::string Why;
  ASSERT_TRUE(Csr.verify(&Why)) << Why;

  std::vector<double> X(Cols);
  for (double &V : X)
    V = R.uniform(-1.0, 1.0);
  const auto Reference = Csr.multiply(X);

  const CooMatrix Coo = CooMatrix::fromCsr(Csr);
  ASSERT_TRUE(Coo.verify(&Why)) << Why;
  const auto CooY = Coo.multiply(X);

  const EllMatrix Ell = EllMatrix::fromCsr(Csr);
  ASSERT_TRUE(Ell.verify(&Why)) << Why;
  const auto EllY = Ell.multiply(X);

  for (uint32_t Row = 0; Row < Rows; ++Row) {
    EXPECT_NEAR(CooY[Row], Reference[Row], 1e-9) << "COO row " << Row;
    EXPECT_NEAR(EllY[Row], Reference[Row], 1e-9) << "ELL row " << Row;
  }
}

/// Matrix Market serialization is lossless for structure.
TEST_P(FormatRoundTripProperty, MatrixMarketRoundTrip) {
  Rng R(GetParam() ^ 0x1111);
  const CsrMatrix M = genUniformRandom(
      static_cast<uint32_t>(2 + R.bounded(200)),
      static_cast<uint32_t>(2 + R.bounded(200)), 1.0 + R.uniform() * 8.0,
      0.3, GetParam());
  const auto Parsed = parseMatrixMarket(writeMatrixMarket(M));
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().message();
  EXPECT_EQ(Parsed->numRows(), M.numRows());
  EXPECT_EQ(Parsed->numCols(), M.numCols());
  EXPECT_EQ(Parsed->rowOffsets(), M.rowOffsets());
  EXPECT_EQ(Parsed->columnIndices(), M.columnIndices());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Kernel correctness under random shapes (beyond the fixed families).
//===----------------------------------------------------------------------===//

class KernelRandomShapeProperty : public ::testing::TestWithParam<uint64_t> {
};

/// Every kernel computes the exact product on arbitrarily shaped random
/// matrices (including rectangular and empty-row-heavy ones).
TEST_P(KernelRandomShapeProperty, AllKernelsExact) {
  Rng R(GetParam());
  const uint32_t Rows = static_cast<uint32_t>(1 + R.bounded(400));
  const uint32_t Cols = static_cast<uint32_t>(1 + R.bounded(400));
  std::vector<Triplet> Entries;
  const size_t Count = R.bounded(3000);
  for (size_t I = 0; I < Count; ++I)
    Entries.push_back({static_cast<uint32_t>(R.bounded(Rows)),
                       static_cast<uint32_t>(R.bounded(Cols)),
                       R.uniform(-1.0, 1.0)});
  const CsrMatrix M = CsrMatrix::fromTriplets(Rows, Cols, Entries);
  const MatrixStats Stats = computeMatrixStats(M);
  const GpuSimulator Sim(DeviceModel::mi100());
  const KernelRegistry Registry;

  std::vector<double> X(Cols);
  for (double &V : X)
    V = R.uniform(-1.0, 1.0);
  const auto Reference = M.multiply(X);

  for (size_t K = 0; K < Registry.size(); ++K) {
    const SpmvKernel &Kernel = Registry.kernel(K);
    const PreprocessResult Prep = Kernel.preprocess(M, Stats, Sim);
    const SpmvRun Run = Kernel.run(M, Stats, Prep.State.get(), X, Sim);
    ASSERT_EQ(Run.Y.size(), Reference.size()) << Kernel.name();
    for (uint32_t Row = 0; Row < Rows; ++Row)
      ASSERT_NEAR(Run.Y[Row], Reference[Row],
                  1e-9 * std::max(1.0, std::abs(Reference[Row])))
          << Kernel.name() << " row " << Row << " seed " << GetParam();
    EXPECT_GE(Run.Timing.TotalMs,
              Sim.device().LaunchOverheadUs * 1e-3 - 1e-12)
        << Kernel.name();
    EXPECT_GE(Prep.TimeMs, 0.0) << Kernel.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelRandomShapeProperty,
                         ::testing::Range<uint64_t>(100, 116));

//===----------------------------------------------------------------------===//
// Simulator monotonicity properties.
//===----------------------------------------------------------------------===//

class SimulatorMonotonicityProperty
    : public ::testing::TestWithParam<uint64_t> {};

/// Adding work to a launch never makes it faster.
TEST_P(SimulatorMonotonicityProperty, MoreWorkNeverFaster) {
  Rng R(GetParam());
  const GpuSimulator Sim(DeviceModel::mi100());
  LaunchBuilder Small = Sim.launch(), Large = Sim.launch();
  const size_t Waves = 1 + R.bounded(200);
  for (size_t I = 0; I < Waves; ++I) {
    WavefrontWork Work;
    Work.MaxLaneOps = R.uniform(1.0, 500.0);
    Work.CoalescedBytes = R.uniform(0.0, 5e4);
    Work.RandomBytes = R.uniform(0.0, 1e4);
    Work.ActiveLanes = static_cast<uint32_t>(1 + R.bounded(64));
    Small.addWavefront(Work);
    Large.addWavefront(Work);
    // Large gets an extra copy of every wavefront.
    Large.addWavefront(Work);
  }
  const double SmallMs = Sim.simulate(Small.take()).TotalMs;
  const double LargeMs = Sim.simulate(Large.take()).TotalMs;
  EXPECT_GE(LargeMs, SmallMs - 1e-12);
}

/// Lowering the gather hit rate never makes a launch faster.
TEST_P(SimulatorMonotonicityProperty, WorseLocalityNeverFaster) {
  Rng R(GetParam() ^ 0xabcd);
  const GpuSimulator Sim(DeviceModel::mi100());
  LaunchBuilder Builder = Sim.launch();
  const size_t Waves = 1 + R.bounded(100);
  for (size_t I = 0; I < Waves; ++I) {
    WavefrontWork Work;
    Work.MaxLaneOps = R.uniform(1.0, 100.0);
    Work.RandomBytes = R.uniform(1e3, 1e5);
    Work.ActiveLanes = 64;
    Builder.addWavefront(Work);
  }
  KernelLaunch Launch = Builder.take();
  double Previous = -1.0;
  for (double HitRate : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    Launch.GatherHitRate = HitRate;
    const double Ms = Sim.simulate(Launch).TotalMs;
    EXPECT_GE(Ms, Previous - 1e-12) << "hit rate " << HitRate;
    Previous = Ms;
  }
}

/// A device with more compute units is never slower on the same launch.
TEST_P(SimulatorMonotonicityProperty, MoreComputeUnitsNeverSlower) {
  Rng R(GetParam() ^ 0x7777);
  std::vector<WavefrontWork> Waves(1 + R.bounded(3000));
  for (WavefrontWork &Work : Waves) {
    Work.MaxLaneOps = R.uniform(1.0, 300.0);
    Work.ActiveLanes = 64;
  }
  // A launch is priced for one device, so each device builds its own.
  const auto ComputeMs = [&](uint32_t NumComputeUnits) {
    DeviceModel Device = DeviceModel::mi100();
    Device.NumComputeUnits = NumComputeUnits;
    const GpuSimulator Sim(Device);
    LaunchBuilder Builder = Sim.launch();
    for (const WavefrontWork &Work : Waves)
      Builder.addWavefront(Work);
    return Sim.simulate(Builder.take()).ComputeMs;
  };
  EXPECT_LE(ComputeMs(120), ComputeMs(30) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorMonotonicityProperty,
                         ::testing::Range<uint64_t>(200, 212));

//===----------------------------------------------------------------------===//
// Kernel timing properties.
//===----------------------------------------------------------------------===//

class KernelTimingProperty : public ::testing::TestWithParam<uint64_t> {};

/// Scaling a matrix up (same structure family, more rows) never reduces
/// any kernel's runtime.
TEST_P(KernelTimingProperty, RuntimeMonotoneInSize) {
  const uint64_t Seed = GetParam();
  const GpuSimulator Sim(DeviceModel::mi100());
  const KernelRegistry Registry;
  double Previous[16] = {};
  bool First = true;
  for (uint32_t Rows : {1000u, 4000u, 16000u, 64000u}) {
    const CsrMatrix M = genUniformRandom(Rows, Rows, 10.0, 0.2, Seed);
    const MatrixStats Stats = computeMatrixStats(M);
    std::vector<double> X(M.numCols(), 1.0);
    for (size_t K = 0; K < Registry.size(); ++K) {
      const SpmvKernel &Kernel = Registry.kernel(K);
      const PreprocessResult Prep = Kernel.preprocess(M, Stats, Sim);
      const double Ms =
          Kernel.run(M, Stats, Prep.State.get(), X, Sim).Timing.TotalMs;
      if (!First) {
        EXPECT_GE(Ms, Previous[K] * 0.95) // allow small efficiency wiggle
            << Kernel.name() << " at " << Rows << " rows";
      }
      Previous[K] = Ms;
    }
    First = false;
  }
}

/// The oracle kernel's time is a lower bound on every predictor's time,
/// for every iteration count.
TEST_P(KernelTimingProperty, OracleBoundsAcrossIterations) {
  const uint64_t Seed = GetParam();
  const GpuSimulator Sim(DeviceModel::mi100());
  const KernelRegistry Registry;
  const Benchmarker Runner(Registry, Sim);
  const CsrMatrix M = genPowerLaw(2000, 2000, 1.5, 1, 200, Seed);
  const MatrixBenchmark Bench = Runner.benchmarkMatrix("p", M);
  for (uint32_t Iterations : {1u, 2u, 7u, 19u, 100u}) {
    const size_t Best = Bench.fastestKernel(Iterations);
    for (size_t K = 0; K < Bench.PerKernel.size(); ++K)
      EXPECT_LE(Bench.PerKernel[Best].totalMs(Iterations),
                Bench.PerKernel[K].totalMs(Iterations) + 1e-12);
  }
}

/// Amortization is monotone: once a preprocessing kernel beats a
/// preprocessing-free one, it keeps beating it at higher iteration counts.
TEST_P(KernelTimingProperty, AmortizationIsMonotone) {
  const uint64_t Seed = GetParam();
  const GpuSimulator Sim(DeviceModel::mi100());
  const KernelRegistry Registry;
  const Benchmarker Runner(Registry, Sim);
  const CsrMatrix M = genBanded(30000, 5, 0.9, Seed);
  const MatrixBenchmark Bench = Runner.benchmarkMatrix("b", M);
  const size_t A = Registry.indexOf("CSR,A");
  const size_t Mp = Registry.indexOf("CSR,MP");
  bool AWasAhead = false;
  for (uint32_t Iterations = 1; Iterations <= 256; Iterations *= 2) {
    const bool AAhead = Bench.PerKernel[A].totalMs(Iterations) <
                        Bench.PerKernel[Mp].totalMs(Iterations);
    if (AWasAhead) {
      EXPECT_TRUE(AAhead) << "lead lost at " << Iterations << " iterations";
    }
    AWasAhead = AAhead;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTimingProperty,
                         ::testing::Range<uint64_t>(300, 308));

//===----------------------------------------------------------------------===//
// Decision-tree properties.
//===----------------------------------------------------------------------===//

class TreeProperty : public ::testing::TestWithParam<uint64_t> {};

namespace {

Dataset randomDataset(uint64_t Seed, uint32_t Classes) {
  Rng R(Seed);
  Dataset Data;
  Data.FeatureNames = {"a", "b", "c"};
  const size_t N = 20 + R.bounded(200);
  for (size_t I = 0; I < N; ++I) {
    const uint32_t Label = static_cast<uint32_t>(R.bounded(Classes));
    // Correlate feature "a" with the label, leave the rest noisy.
    Data.addSample("s", {Label + R.normal(0.0, 0.6), R.uniform(), R.uniform()},
                   Label);
  }
  return Data;
}

} // namespace

/// Trained trees are structurally sound: children in range, thresholds
/// finite, every leaf predicting a known class, sample counts conserved.
TEST_P(TreeProperty, StructuralInvariants) {
  const Dataset Data = randomDataset(GetParam(), 4);
  TreeConfig Config;
  Config.MaxDepth = 6;
  const DecisionTree Tree = DecisionTree::train(Data, Config);
  ASSERT_FALSE(Tree.nodes().empty());
  EXPECT_EQ(Tree.nodes()[0].SampleCount, Data.numSamples());
  for (size_t I = 0; I < Tree.nodes().size(); ++I) {
    const TreeNode &N = Tree.nodes()[I];
    EXPECT_TRUE(std::isfinite(N.Threshold));
    EXPECT_LT(N.Prediction, Tree.numClasses());
    if (N.isLeaf())
      continue;
    ASSERT_GT(N.Left, static_cast<int32_t>(I));
    ASSERT_GT(N.Right, static_cast<int32_t>(I));
    ASSERT_LT(N.Left, static_cast<int32_t>(Tree.nodes().size()));
    ASSERT_LT(N.Right, static_cast<int32_t>(Tree.nodes().size()));
    // Children partition the parent's samples.
    EXPECT_EQ(Tree.nodes()[N.Left].SampleCount +
                  Tree.nodes()[N.Right].SampleCount,
              N.SampleCount);
  }
}

/// predict() agrees with a manual walk of the node array.
TEST_P(TreeProperty, PredictMatchesManualTraversal) {
  const Dataset Data = randomDataset(GetParam() ^ 0x55, 3);
  const DecisionTree Tree = DecisionTree::train(Data, TreeConfig());
  Rng R(GetParam());
  for (int Trial = 0; Trial < 50; ++Trial) {
    const std::vector<double> Point = {R.uniform(-1.0, 4.0), R.uniform(),
                                       R.uniform()};
    int32_t Node = 0;
    while (!Tree.nodes()[Node].isLeaf()) {
      const TreeNode &N = Tree.nodes()[Node];
      Node = Point[N.FeatureIndex] <= N.Threshold ? N.Left : N.Right;
    }
    EXPECT_EQ(Tree.predict(Point), Tree.nodes()[Node].Prediction);
  }
}

/// Serialization round-trips behaviour, not just bytes.
TEST_P(TreeProperty, SerializationPreservesPredictions) {
  const Dataset Data = randomDataset(GetParam() ^ 0x99, 5);
  const DecisionTree Tree = DecisionTree::train(Data, TreeConfig());
  DecisionTree Parsed;
  std::string Error;
  ASSERT_TRUE(DecisionTree::parse(Tree.serialize(), Parsed, &Error)) << Error;
  for (const auto &Row : Data.Rows)
    EXPECT_EQ(Parsed.predict(Row), Tree.predict(Row));
}

/// The generated C++ has one return per leaf and one comparison per
/// internal node (a cheap structural proxy for codegen fidelity; the
/// compile-and-compare test lives in ml_test).
TEST_P(TreeProperty, CodegenStructureMatchesTree) {
  const Dataset Data = randomDataset(GetParam() ^ 0xcc, 3);
  const DecisionTree Tree = DecisionTree::train(Data, TreeConfig());
  CodegenOptions Options;
  Options.FunctionName = "p";
  const std::string Header = generateTreeHeader(Tree, Options);
  size_t Returns = 0, Ifs = 0;
  for (size_t Pos = 0; (Pos = Header.find("return ", Pos)) != std::string::npos;
       ++Pos)
    ++Returns;
  for (size_t Pos = 0; (Pos = Header.find("if (features[", Pos)) !=
                       std::string::npos;
       ++Pos)
    ++Ifs;
  size_t Leaves = 0, Internal = 0;
  for (const TreeNode &N : Tree.nodes())
    ++(N.isLeaf() ? Leaves : Internal);
  EXPECT_EQ(Returns, Leaves);
  EXPECT_EQ(Ifs, Internal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty,
                         ::testing::Range<uint64_t>(400, 412));

//===----------------------------------------------------------------------===//
// Statistics properties.
//===----------------------------------------------------------------------===//

class StatisticsProperty : public ::testing::TestWithParam<uint64_t> {};

/// Kendall tau is symmetric, reflexive (+1 on itself), and bounded.
TEST_P(StatisticsProperty, KendallTauAxioms) {
  Rng R(GetParam());
  const size_t N = 3 + R.bounded(100);
  std::vector<double> X(N), Y(N);
  for (size_t I = 0; I < N; ++I) {
    X[I] = R.uniform(-10.0, 10.0);
    Y[I] = R.uniform(-10.0, 10.0);
  }
  const double XY = kendallTau(X, Y);
  EXPECT_NEAR(kendallTau(Y, X), XY, 1e-12);
  EXPECT_LE(std::abs(XY), 1.0 + 1e-12);
  EXPECT_NEAR(kendallTau(X, X), 1.0, 1e-12);
  // Monotone transforms preserve tau exactly.
  std::vector<double> Cubed(N);
  for (size_t I = 0; I < N; ++I)
    Cubed[I] = X[I] * X[I] * X[I];
  EXPECT_NEAR(kendallTau(Cubed, Y), XY, 1e-12);
}

/// RunningSummary matches two-pass formulas on random streams.
TEST_P(StatisticsProperty, RunningSummaryMatchesTwoPass) {
  Rng R(GetParam() ^ 0x1234);
  const size_t N = 1 + R.bounded(1000);
  std::vector<double> Values(N);
  RunningSummary S;
  for (double &V : Values) {
    V = R.uniform(-100.0, 100.0);
    S.add(V);
  }
  EXPECT_NEAR(S.mean(), mean(Values), 1e-9);
  EXPECT_NEAR(S.variance(), variance(Values), 1e-6);
  EXPECT_DOUBLE_EQ(S.min(), *std::min_element(Values.begin(), Values.end()));
  EXPECT_DOUBLE_EQ(S.max(), *std::max_element(Values.begin(), Values.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatisticsProperty,
                         ::testing::Range<uint64_t>(500, 510));
