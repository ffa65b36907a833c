//===- tests/sim_test.cpp - Unit tests for the GPU simulator --------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "sim/GpuSimulator.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

using namespace seer;

namespace {

GpuSimulator makeSim() { return GpuSimulator(DeviceModel::mi100()); }

/// A launch on \p Sim of \p Waves identical wavefronts with \p Ops max
/// lane ops.
KernelLaunch uniformLaunch(const GpuSimulator &Sim, uint64_t Waves, double Ops,
                           double Coalesced = 0.0, double Random = 0.0) {
  LaunchBuilder Builder = Sim.launch();
  for (uint64_t I = 0; I < Waves; ++I) {
    WavefrontWork Work;
    Work.MaxLaneOps = Ops;
    Work.CoalescedBytes = Coalesced;
    Work.RandomBytes = Random;
    Work.ActiveLanes = 64;
    Builder.addWavefront(Work);
  }
  return Builder.take();
}

/// Reference compute makespan over every wavefront's busy cycles: greedy
/// list scheduling through a plain std::priority_queue of slot loads, and
/// the closed-form bound past \p ExactLimit wavefronts.
double referenceMakespan(const std::vector<double> &Busy, uint32_t NumSlots,
                         uint64_t ExactLimit) {
  double Sum = 0.0;
  double Max = 0.0;
  for (double B : Busy) {
    Sum += B;
    Max = std::max(Max, B);
  }
  if (Busy.size() <= NumSlots)
    return Max;
  if (Busy.size() > ExactLimit)
    return Sum / NumSlots + Max;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      Slots;
  for (uint32_t I = 0; I < NumSlots; ++I)
    Slots.push(0.0);
  double Makespan = 0.0;
  for (double B : Busy) {
    const double Load = Slots.top() + B;
    Slots.pop();
    Slots.push(Load);
    Makespan = std::max(Makespan, Load);
  }
  return Makespan;
}

} // namespace

TEST(DeviceModelTest, Mi100Defaults) {
  const DeviceModel M = DeviceModel::mi100();
  EXPECT_EQ(M.NumComputeUnits, 120u);
  EXPECT_EQ(M.WavefrontSize, 64u);
  EXPECT_EQ(M.numSlots(), 480u);
}

TEST(DeviceModelTest, UnitConversions) {
  const DeviceModel M = DeviceModel::mi100();
  // 1.502e6 cycles at 1.502 GHz is exactly 1 ms.
  EXPECT_NEAR(M.cyclesToMs(1.502e6), 1.0, 1e-12);
  // 3e6 host cycles at 3 GHz is 1 ms.
  EXPECT_NEAR(M.hostSequentialMs(3000000, 1.0), 1.0, 1e-12);
  // 16 MB over 16 GB/s PCIe is 1 ms.
  EXPECT_NEAR(M.pcieCopyMs(16e6), 1.0, 1e-12);
}

TEST(GpuSimulatorTest, EmptyLaunchIsPureOverhead) {
  const GpuSimulator Sim = makeSim();
  const LaunchTiming T = Sim.simulate(KernelLaunch());
  EXPECT_NEAR(T.TotalMs, Sim.device().LaunchOverheadUs * 1e-3, 1e-12);
  EXPECT_EQ(T.NumWavefronts, 0u);
}

TEST(GpuSimulatorTest, FixedOverheadAdds) {
  const GpuSimulator Sim = makeSim();
  KernelLaunch Launch;
  Launch.FixedOverheadUs = 100.0;
  const LaunchTiming T = Sim.simulate(Launch);
  EXPECT_NEAR(T.OverheadMs, (Sim.device().LaunchOverheadUs + 100.0) * 1e-3,
              1e-12);
}

TEST(GpuSimulatorTest, SingleWavefrontComputeTime) {
  const GpuSimulator Sim = makeSim();
  const LaunchTiming T = Sim.simulate(uniformLaunch(Sim, 1, 1000.0));
  const double ExpectedCycles =
      1000.0 * Sim.device().CyclesPerOp + Sim.device().WavefrontOverheadCycles;
  EXPECT_NEAR(T.ComputeMs, Sim.device().cyclesToMs(ExpectedCycles), 1e-12);
}

TEST(GpuSimulatorTest, FewerWavesThanSlotsRunFullyParallel) {
  const GpuSimulator Sim = makeSim();
  // 480 slots; 10 identical waves must take the time of one.
  const LaunchTiming One = Sim.simulate(uniformLaunch(Sim, 1, 5000.0));
  const LaunchTiming Ten = Sim.simulate(uniformLaunch(Sim, 10, 5000.0));
  EXPECT_NEAR(One.ComputeMs, Ten.ComputeMs, 1e-12);
}

TEST(GpuSimulatorTest, OversubscriptionScalesLinearly) {
  const GpuSimulator Sim = makeSim();
  const uint32_t Slots = Sim.device().numSlots();
  const LaunchTiming Single = Sim.simulate(uniformLaunch(Sim, Slots, 5000.0));
  const LaunchTiming Double =
      Sim.simulate(uniformLaunch(Sim, 2 * Slots, 5000.0));
  EXPECT_NEAR(Double.ComputeMs / Single.ComputeMs, 2.0, 0.01);
}

TEST(GpuSimulatorTest, DeepOversubscriptionMatchesBalancedBound) {
  const GpuSimulator Sim = makeSim();
  const uint32_t Slots = Sim.device().numSlots();
  // > 16x slots triggers the closed-form path; it must stay close to the
  // exact greedy result for uniform waves (within the one-wave slack).
  const uint64_t Waves = 20ull * Slots;
  const LaunchTiming T = Sim.simulate(uniformLaunch(Sim, Waves, 1000.0));
  const double PerWave =
      1000.0 * Sim.device().CyclesPerOp + Sim.device().WavefrontOverheadCycles;
  const double Balanced = PerWave * static_cast<double>(Waves) / Slots;
  EXPECT_GE(T.ComputeMs, Sim.device().cyclesToMs(Balanced) - 1e-12);
  EXPECT_LE(T.ComputeMs, Sim.device().cyclesToMs(Balanced + PerWave) + 1e-12);
}

TEST(GpuSimulatorTest, DivergenceCostsMaxNotMean) {
  const GpuSimulator Sim = makeSim();
  // One wavefront with a single 6400-op lane among 64 idle lanes must cost
  // the same as one whose lanes all have 6400 ops: lockstep.
  LaunchBuilder A = Sim.launch();
  A.beginWavefront();
  A.addLane(6400.0, 0.0, 0.0);
  for (int I = 0; I < 63; ++I)
    A.addLane(0.0, 0.0, 0.0);
  A.endWavefront();
  const LaunchTiming Skewed = Sim.simulate(A.take());
  const LaunchTiming Uniform = Sim.simulate(uniformLaunch(Sim, 1, 6400.0));
  EXPECT_NEAR(Skewed.ComputeMs, Uniform.ComputeMs, 1e-12);
}

TEST(GpuSimulatorTest, BalancedBeatsImbalanced) {
  const GpuSimulator Sim = makeSim();
  // Same total work, split evenly across lanes vs. dumped on one lane per
  // wavefront: balanced must be dramatically faster.
  LaunchBuilder Balanced = Sim.launch();
  Balanced.addUniformLanes(64 * 64, 100.0, 0.0, 0.0);
  LaunchBuilder Imbalanced = Sim.launch();
  for (int Wave = 0; Wave < 64; ++Wave) {
    Imbalanced.beginWavefront();
    Imbalanced.addLane(6400.0, 0.0, 0.0);
    for (int I = 0; I < 63; ++I)
      Imbalanced.addLane(0.0, 0.0, 0.0);
    Imbalanced.endWavefront();
  }
  const LaunchTiming B = Sim.simulate(Balanced.take());
  const LaunchTiming I = Sim.simulate(Imbalanced.take());
  EXPECT_LT(B.ComputeMs * 10.0, I.ComputeMs);
}

TEST(GpuSimulatorTest, MemoryRooflineDominatesBigStreams) {
  const GpuSimulator Sim = makeSim();
  // 1 GB of coalesced traffic with trivial compute: the memory component
  // must set the total (~1 ms at ~1 TB/s effective).
  const LaunchTiming T = Sim.simulate(uniformLaunch(Sim, 480, 10.0, 2.1e6));
  EXPECT_GT(T.MemoryMs, T.ComputeMs);
  const double ExpectedMs = (480 * 2.1e6) / (Sim.device().MemoryBandwidthGBs *
                                             Sim.device().StreamEfficiency *
                                             1e6);
  EXPECT_NEAR(T.MemoryMs, ExpectedMs, 1e-9);
}

TEST(GpuSimulatorTest, GatherMissesInflateTraffic) {
  const GpuSimulator Sim = makeSim();
  KernelLaunch Hits = uniformLaunch(Sim, 480, 10.0, 0.0, 1e5);
  Hits.GatherHitRate = 1.0;
  KernelLaunch Misses = uniformLaunch(Sim, 480, 10.0, 0.0, 1e5);
  Misses.GatherHitRate = 0.0;
  const LaunchTiming THits = Sim.simulate(Hits);
  const LaunchTiming TMisses = Sim.simulate(Misses);
  const double Inflation = Sim.device().CacheLineBytes / 8.0;
  EXPECT_NEAR(TMisses.DramBytes / THits.DramBytes, Inflation, 1e-9);
}

TEST(GpuSimulatorTest, AtomicsSerialize) {
  const GpuSimulator Sim = makeSim();
  LaunchBuilder NoAtomics = Sim.launch();
  NoAtomics.addUniformLanes(64, 100.0, 0.0, 0.0, 0.0);
  LaunchBuilder WithAtomics = Sim.launch();
  WithAtomics.addUniformLanes(64, 100.0, 0.0, 0.0, 1.0);
  const LaunchTiming A = Sim.simulate(NoAtomics.take());
  const LaunchTiming B = Sim.simulate(WithAtomics.take());
  EXPECT_GT(B.ComputeMs, A.ComputeMs);
}

TEST(GpuSimulatorTest, EmptyWavefrontsAreDropped) {
  const GpuSimulator Sim = makeSim();
  LaunchBuilder Builder = Sim.launch();
  Builder.beginWavefront();
  Builder.endWavefront();
  Builder.addWavefront(WavefrontWork());
  const KernelLaunch Launch = Builder.take();
  EXPECT_EQ(Launch.NumWavefronts, 0u);
  EXPECT_TRUE(Launch.ScheduleCycles.empty());
  EXPECT_EQ(Sim.simulate(Launch).NumWavefronts, 0u);
}

TEST(GpuSimulatorTest, AddUniformLanesSplitsIntoWavefronts) {
  const GpuSimulator Sim = makeSim();
  LaunchBuilder Builder = Sim.launch();
  Builder.addUniformLanes(130, 10.0, 4.0, 8.0);
  const KernelLaunch Launch = Builder.take();
  // 64 + 64 + 2 lanes: three wavefronts, each as long as one lane.
  ASSERT_EQ(Launch.NumWavefronts, 3u);
  const double Busy = 10.0 * Sim.device().CyclesPerOp +
                      Sim.device().WavefrontOverheadCycles;
  EXPECT_EQ(Launch.ScheduleCycles, std::vector<double>(3, Busy));
  EXPECT_EQ(Launch.BusyCycles, 3.0 * Busy);
  EXPECT_EQ(Launch.MaxBusyCycles, Busy);
  EXPECT_EQ(Launch.CoalescedBytes, 4.0 * 130);
  EXPECT_EQ(Launch.RandomBytes, 8.0 * 130);
}

TEST(GpuSimulatorTest, ExactScheduleMatchesPriorityQueueReference) {
  const GpuSimulator Sim = makeSim();
  const DeviceModel &Device = Sim.device();
  const uint32_t Slots = Device.numSlots();
  const uint64_t Limit = exactScheduleLimit(Device);
  ASSERT_EQ(Limit, 16ull * Slots);
  Rng R(2024);
  for (uint64_t Waves : {uint64_t(Slots), uint64_t(Slots) + 1, Limit,
                         Limit + 1}) {
    LaunchBuilder Builder = Sim.launch();
    std::vector<double> Busy;
    for (uint64_t I = 0; I < Waves; ++I) {
      WavefrontWork Work;
      Work.MaxLaneOps = R.uniform(1.0, 5000.0);
      Work.AtomicOps = R.uniform(0.0, 4.0);
      Work.ActiveLanes = 64;
      Builder.addWavefront(Work);
      Busy.push_back(Work.MaxLaneOps * Device.CyclesPerOp +
                     Work.AtomicOps * Device.CyclesPerAtomic +
                     Device.WavefrontOverheadCycles);
    }
    const KernelLaunch Launch = Builder.take();
    // The busy cycles are kept exactly as long as the schedule needs them.
    EXPECT_EQ(Launch.ScheduleCycles.size(), Waves <= Limit ? Waves : 0u)
        << Waves << " wavefronts";
    const LaunchTiming T = Sim.simulate(Launch);
    EXPECT_EQ(T.NumWavefronts, Waves);
    EXPECT_EQ(T.ComputeMs,
              Device.cyclesToMs(referenceMakespan(Busy, Slots, Limit)))
        << Waves << " wavefronts";
  }
}

TEST(GatherHitRateTest, SmallVectorFitsInCache) {
  const DeviceModel M = DeviceModel::mi100();
  // 1000-column x vector = 8 KB, far under L2: hit rate ~1.
  EXPECT_GT(estimateGatherHitRate(M, 1000, 1000.0), 0.99);
}

TEST(GatherHitRateTest, HugeVectorWithRandomAccessMisses) {
  const DeviceModel M = DeviceModel::mi100();
  // 100M columns, huge gaps: most gathers miss.
  EXPECT_LT(estimateGatherHitRate(M, 100000000, 1e6), 0.2);
}

TEST(GatherHitRateTest, LocalityHelpsLargeVectors) {
  const DeviceModel M = DeviceModel::mi100();
  const double Tight = estimateGatherHitRate(M, 100000000, 1.0);
  const double Loose = estimateGatherHitRate(M, 100000000, 1e5);
  EXPECT_GT(Tight, Loose);
}

TEST(GatherHitRateTest, MonotoneInColumns) {
  const DeviceModel M = DeviceModel::mi100();
  double Prev = 1.1;
  for (uint64_t Cols = 1u << 10; Cols <= 1u << 28; Cols <<= 4) {
    const double Rate = estimateGatherHitRate(M, Cols, 64.0);
    EXPECT_LE(Rate, Prev + 1e-12);
    Prev = Rate;
  }
}
