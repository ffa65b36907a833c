//===- kernels/FeatureKernels.cpp ------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "kernels/FeatureKernels.h"

#include "support/Statistics.h"

#include <cmath>

using namespace seer;

namespace {

/// Simulated cost of the full (two-pass) collection. The collection runs
/// as two passes, as a real implementation of mean *and* variance over row
/// densities does:
///
///   pass 1: thread per row loads two adjacent offsets (~8 B/row of
///           stream after overlap), computes the density, writes it to a
///           scratch array (8 B/row) and feeds wavefront min/max/sum
///           reductions whose partials hit global counters (atomics);
///   pass 2: re-reads the densities (8 B/row) to accumulate the squared
///           deviations from the pass-1 mean, again with per-wavefront
///           atomics; offsets are re-touched for bounds (8 B/row).
///
/// Each pass ends with a device->host readback of the scalars that the
/// host must synchronize on; the second launch and both readbacks are
/// fixed overhead (the simulator charges the first launch itself).
LaunchTiming simulateFullCollection(const CsrMatrix &M,
                                    const GpuSimulator &Sim) {
  LaunchBuilder Builder = Sim.launch();
  Builder.setGatherHitRate(1.0); // offsets/densities are streamed
  const double OpsPerLanePerPass = 12.0;
  for (int Pass = 0; Pass < 2; ++Pass)
    Builder.addUniformLanes(M.numRows(), OpsPerLanePerPass,
                            /*CoalescedPerLane=*/16.0,
                            /*RandomPerLane=*/0.0,
                            /*AtomicPerLane=*/4.0 / 64.0);
  Builder.addFixedOverheadUs(Sim.device().LaunchOverheadUs +
                             2.0 * Sim.device().ReadbackOverheadUs);
  return Sim.simulate(Builder.take());
}

/// Simulated cost of the cheap tier: one pass, two reductions (max + sum),
/// no density scratch array and a single readback — about half the cost of
/// the full collection.
LaunchTiming simulateCheapCollection(const CsrMatrix &M,
                                     const GpuSimulator &Sim) {
  LaunchBuilder Builder = Sim.launch();
  Builder.setGatherHitRate(1.0);
  Builder.addUniformLanes(M.numRows(), /*OpsPerLane=*/8.0,
                          /*CoalescedPerLane=*/8.0,
                          /*RandomPerLane=*/0.0,
                          /*AtomicPerLane=*/2.0 / 64.0);
  Builder.addFixedOverheadUs(Sim.device().ReadbackOverheadUs);
  return Sim.simulate(Builder.take());
}

/// Host-side exact density statistics (what the GPU reduction returns) —
/// the standalone path for callers without a precomputed analysis.
GatheredFeatures hostDensityStats(const CsrMatrix &M) {
  GatheredFeatures Features;
  RunningSummary Densities;
  const double InvCols =
      M.numCols() == 0 ? 0.0 : 1.0 / static_cast<double>(M.numCols());
  for (uint32_t Row = 0; Row < M.numRows(); ++Row)
    Densities.add(static_cast<double>(M.rowLength(Row)) * InvCols);
  if (Densities.count() > 0) {
    Features.MaxRowDensity = Densities.max();
    Features.MinRowDensity = Densities.min();
    Features.MeanRowDensity = Densities.mean();
    Features.VarRowDensity = Densities.variance();
  }
  return Features;
}

} // namespace

FeatureCollectionResult
seer::collectGatheredFeatures(const CsrMatrix &M, const GpuSimulator &Sim,
                              const GatheredFeatures &Precomputed) {
  FeatureCollectionResult Result;
  Result.Features = Precomputed;
  Result.Timing = simulateFullCollection(M, Sim);
  Result.CollectionMs = Result.Timing.TotalMs;
  return Result;
}

FeatureCollectionResult
seer::collectGatheredFeatures(const CsrMatrix &M, const GpuSimulator &Sim) {
  return collectGatheredFeatures(M, Sim, hostDensityStats(M));
}

FeatureCollectionResult
seer::collectCheapFeatures(const CsrMatrix &M, const GpuSimulator &Sim,
                           const GatheredFeatures &Precomputed) {
  FeatureCollectionResult Result;
  // Min and variance deliberately left at 0: not collected on this tier.
  Result.Features.MaxRowDensity = Precomputed.MaxRowDensity;
  Result.Features.MeanRowDensity = Precomputed.MeanRowDensity;
  Result.Timing = simulateCheapCollection(M, Sim);
  Result.CollectionMs = Result.Timing.TotalMs;
  return Result;
}

FeatureCollectionResult
seer::collectCheapFeatures(const CsrMatrix &M, const GpuSimulator &Sim) {
  return collectCheapFeatures(M, Sim, hostDensityStats(M));
}
