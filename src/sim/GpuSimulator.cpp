//===- sim/GpuSimulator.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "sim/GpuSimulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <vector>

using namespace seer;

void LaunchBuilder::addUniformLanes(uint64_t Lanes, double OpsPerLane,
                                    double CoalescedPerLane,
                                    double RandomPerLane,
                                    double AtomicPerLane) {
  assert(!InWavefront && "addUniformLanes inside begin/end pair");
  for (uint64_t Remaining = Lanes; Remaining > 0;) {
    const uint32_t InThisWave = static_cast<uint32_t>(
        std::min<uint64_t>(Remaining, Device.WavefrontSize));
    // All lanes are identical, so one aggregate update suffices.
    WavefrontWork Wave;
    Wave.MaxLaneOps = OpsPerLane;
    Wave.CoalescedBytes = CoalescedPerLane * InThisWave;
    Wave.RandomBytes = RandomPerLane * InThisWave;
    Wave.AtomicOps = AtomicPerLane * InThisWave;
    Wave.ActiveLanes = InThisWave;
    fold(Wave);
    Remaining -= InThisWave;
  }
}

namespace {

/// Makespan of greedy list scheduling: \p Cycles (more than \p NumSlots
/// wavefronts) dispatched in order, each to the least loaded slot. Each
/// of the first NumSlots wavefronts lands on an empty slot, so the
/// min-heap of slot loads starts as their busy cycles; every later
/// wavefront adds to the root's load and sifts it down once.
double greedyMakespan(const std::vector<double> &Cycles, uint32_t NumSlots) {
  assert(Cycles.size() > NumSlots && "every wavefront has its own slot");
  std::vector<double> Loads(Cycles.begin(), Cycles.begin() + NumSlots);
  double Makespan = *std::max_element(Loads.begin(), Loads.end());
  std::make_heap(Loads.begin(), Loads.end(), std::greater<double>());
  for (size_t I = NumSlots; I < Cycles.size(); ++I) {
    const double Load = Loads[0] + Cycles[I];
    Makespan = std::max(Makespan, Load);
    size_t Hole = 0;
    for (size_t Child = 1; Child < NumSlots; Child = 2 * Hole + 1) {
      if (Child + 1 < NumSlots && Loads[Child + 1] < Loads[Child])
        ++Child;
      if (!(Loads[Child] < Load))
        break;
      Loads[Hole] = Loads[Child];
      Hole = Child;
    }
    Loads[Hole] = Load;
  }
  return Makespan;
}

} // namespace

LaunchTiming GpuSimulator::simulate(const KernelLaunch &Launch) const {
  assert((Launch.Device == nullptr || Launch.Device == &Model) &&
         "launch built for another device");
  LaunchTiming Timing;
  Timing.NumWavefronts = Launch.NumWavefronts;
  Timing.OverheadMs =
      (Model.LaunchOverheadUs + Launch.FixedOverheadUs) * 1e-3;

  if (Launch.NumWavefronts == 0) {
    Timing.TotalMs = Timing.OverheadMs;
    return Timing;
  }

  // --- Compute makespan: greedy list scheduling onto CU x SIMD slots. ---
  const uint32_t NumSlots = Model.numSlots();
  double MakespanCycles;
  if (Launch.NumWavefronts <= NumSlots) {
    // Fewer wavefronts than slots: the longest wavefront is the makespan.
    MakespanCycles = Launch.MaxBusyCycles;
  } else if (Launch.NumWavefronts > exactScheduleLimit(Model)) {
    // Deep oversubscription: greedy scheduling converges to the balanced
    // bound; skip the heap to keep huge launches cheap to simulate. The
    // classic Graham bound caps the error we ignore at the longest single
    // wavefront, which we add back conservatively.
    MakespanCycles = Launch.BusyCycles / NumSlots + Launch.MaxBusyCycles;
  } else {
    assert(Launch.ScheduleCycles.size() == Launch.NumWavefronts &&
           "exact schedule needs every wavefront's busy cycles");
    MakespanCycles = greedyMakespan(Launch.ScheduleCycles, NumSlots);
  }
  Timing.ComputeMs = Model.cyclesToMs(MakespanCycles);

  // --- Memory roofline. ---
  // A gather miss drags CacheLineBytes of traffic for 8 useful bytes.
  const double MissInflation = Model.CacheLineBytes / 8.0;
  const double HitRate = Launch.GatherHitRate;
  const double EffectiveRandomBytes =
      Launch.RandomBytes * (HitRate + (1.0 - HitRate) * MissInflation);
  Timing.DramBytes = Launch.CoalescedBytes + EffectiveRandomBytes;
  const double BytesPerMs = Model.MemoryBandwidthGBs *
                            Model.StreamEfficiency *
                            Launch.StreamEfficiencyFactor * 1e6;
  Timing.MemoryMs = Timing.DramBytes / BytesPerMs;

  Timing.TotalMs =
      Timing.OverheadMs + std::max(Timing.ComputeMs, Timing.MemoryMs);
  return Timing;
}

double seer::rowBurstEfficiency(double BurstBytes, double HalfSaturationBytes,
                                double Lo, double Hi) {
  assert(Lo > 0.0 && Lo <= Hi && Hi <= 1.0 && "bad efficiency clamp");
  const double Raw = BurstBytes / (BurstBytes + HalfSaturationBytes);
  return std::clamp(Raw, Lo, Hi);
}

double seer::estimateGatherHitRate(const DeviceModel &Model, uint64_t NumCols,
                                   double MeanColumnGap) {
  const double VectorBytes = static_cast<double>(NumCols) * 8.0;
  // Resident fraction of x in L2 (leave half the cache to the streams).
  const double Resident =
      std::min(1.0, (0.5 * Model.L2CapacityBytes) / std::max(VectorBytes, 1.0));
  // Spatial locality: consecutive gathers within a fetched line hit. A gap
  // of G doubles spend one line per ceil(G * 8 / line) elements.
  const double ElementsPerLine = Model.CacheLineBytes / 8.0;
  const double Gap = std::max(MeanColumnGap, 1.0);
  const double Spatial = std::min(1.0, ElementsPerLine / Gap) *
                         (1.0 - 1.0 / ElementsPerLine);
  const double HitRate = std::max(Resident, Spatial);
  return std::clamp(HitRate, 0.0, 1.0);
}
