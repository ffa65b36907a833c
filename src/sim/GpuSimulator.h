//===- sim/GpuSimulator.h - Wavefront-level GPU timing simulator ----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic timing simulator for SpMV-class kernels. Given a
/// KernelLaunch (wavefront work folded into aggregates), it produces a
/// wall-clock estimate as the max of:
///
///  1. *Compute makespan*: each wavefront's busy time is its lockstep issue
///     length (max lane ops) plus per-wavefront overhead plus serialized
///     atomics; wavefronts are dispatched in submission order to the least
///     loaded of NumComputeUnits x SimdsPerCu slots (greedy list
///     scheduling), and the makespan is the largest slot load. Load
///     imbalance, SIMD divergence and low-parallelism underutilization all
///     emerge from this step. A launch of at most exactScheduleLimit()
///     wavefronts is scheduled exactly; a larger one takes the balanced
///     bound plus its longest wavefront.
///
///  2. *Memory roofline*: coalesced traffic moves at StreamEfficiency x
///     peak; gathers that miss in L2 drag a whole cache line per useful
///     element. The L2 hit rate is the launch's GatherHitRate, which
///     kernels estimate from the matrix's column locality (helper below).
///
/// plus fixed launch/readback overheads. The simulator is a pure function;
/// all measurement noise is added (seeded) by the benchmarking layer. A
/// launch is built by the LaunchBuilder that launch() hands out, so one
/// simulation takes O(1) memory plus the bounded exact-schedule buffer.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SIM_GPUSIMULATOR_H
#define SEER_SIM_GPUSIMULATOR_H

#include "sim/DeviceModel.h"
#include "sim/Launch.h"

#include <cstdint>

namespace seer {

/// Timing breakdown of one simulated launch.
struct LaunchTiming {
  /// End-to-end time, ms: Overhead + max(Compute, Memory).
  double TotalMs = 0.0;
  /// Compute makespan component, ms.
  double ComputeMs = 0.0;
  /// Memory roofline component, ms.
  double MemoryMs = 0.0;
  /// Fixed overhead component, ms.
  double OverheadMs = 0.0;
  /// Number of wavefronts simulated.
  uint64_t NumWavefronts = 0;
  /// Total bytes of modeled DRAM traffic (after gather inflation).
  double DramBytes = 0.0;
};

/// The simulator. Stateless apart from the device description; safe to
/// share across threads.
class GpuSimulator {
public:
  explicit GpuSimulator(DeviceModel Model) : Model(Model) {}

  const DeviceModel &device() const { return Model; }

  /// A builder for one launch on this simulator's device.
  LaunchBuilder launch() const { return LaunchBuilder(Model); }

  /// Simulates one kernel launch built by launch() (or default-constructed).
  LaunchTiming simulate(const KernelLaunch &Launch) const;

private:
  DeviceModel Model;
};

/// Estimates the probability that the x-vector gather of an SpMV over a
/// matrix with \p NumCols columns and \p MeanColumnGap average intra-row
/// column stride hits in L2.
///
/// Two effects: (a) if the whole x vector fits in L2, everything hits after
/// warmup; (b) otherwise small strides still hit within a fetched line.
double estimateGatherHitRate(const DeviceModel &Model, uint64_t NumCols,
                             double MeanColumnGap);

/// Achieved-bandwidth fraction of a schedule that issues one DRAM burst of
/// \p BurstBytes per row: short bursts waste row-buffer/line granularity,
/// long bursts saturate. Returns BurstBytes / (BurstBytes +
/// HalfSaturationBytes), clamped to [Lo, Hi].
double rowBurstEfficiency(double BurstBytes, double HalfSaturationBytes,
                          double Lo, double Hi);

} // namespace seer

#endif // SEER_SIM_GPUSIMULATOR_H
