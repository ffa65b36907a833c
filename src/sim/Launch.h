//===- sim/Launch.h - Kernel launch descriptions for the simulator --------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A kernel variant describes the work its schedule would put on the GPU as
/// a sequence of wavefronts, each summarizing its lanes. The simulator only
/// needs, per wavefront:
///
///  - the *maximum* per-lane op count (SIMD lockstep: every lane waits for
///    the slowest — this is where load imbalance becomes time);
///  - total coalesced and random (gather) memory traffic;
///  - total atomic updates (serialized within the wavefront).
///
/// LaunchBuilder folds each wavefront, as the kernel walks its schedule,
/// into launch-wide aggregates: the count, the sum and the max of the
/// wavefronts' busy cycles on the device, and the coalesced and random
/// byte sums. A launch therefore takes O(1) memory plus a bounded
/// exact-schedule buffer: the per-wavefront busy cycles, kept only while
/// the launch is small enough (exactScheduleLimit()) for the simulator to
/// schedule its wavefronts one by one. Larger launches are priced by a
/// closed-form bound that needs only the aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SIM_LAUNCH_H
#define SEER_SIM_LAUNCH_H

#include "sim/DeviceModel.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace seer {

class GpuSimulator;

/// Aggregated description of one wavefront's work.
struct WavefrontWork {
  /// Max over lanes of scalar op count: the lockstep issue length.
  double MaxLaneOps = 0.0;
  /// Sum over lanes of coalesced bytes (streamed values/indices/outputs).
  double CoalescedBytes = 0.0;
  /// Sum over lanes of randomly addressed bytes (x-vector gathers).
  double RandomBytes = 0.0;
  /// Atomic updates issued by the wavefront.
  double AtomicOps = 0.0;
  /// Lanes that carry any work (< WavefrontSize means underfill).
  uint32_t ActiveLanes = 0;
};

/// The most wavefronts the simulator schedules one by one on \p Device;
/// a larger launch takes the closed-form bound (see GpuSimulator.h).
inline uint64_t exactScheduleLimit(const DeviceModel &Device) {
  return 16ull * Device.numSlots();
}

/// A whole kernel launch: its wavefronts folded into aggregates (in
/// submission order) plus launch-wide memory locality. A LaunchBuilder
/// fills the aggregates for one device; a default-constructed launch has
/// no wavefronts.
struct KernelLaunch {
  /// Non-empty wavefronts folded in.
  uint64_t NumWavefronts = 0;
  /// Sum and maximum of the wavefronts' busy cycles.
  double BusyCycles = 0.0;
  double MaxBusyCycles = 0.0;
  /// Coalesced and random bytes summed over the wavefronts.
  double CoalescedBytes = 0.0;
  double RandomBytes = 0.0;
  /// Each wavefront's busy cycles in submission order while NumWavefronts
  /// is at most exactScheduleLimit(); empty beyond it.
  std::vector<double> ScheduleCycles;
  /// Estimated probability that a gather hits in L2 (see
  /// estimateGatherHitRate); 1.0 means gathers are as cheap as streams.
  double GatherHitRate = 1.0;
  /// Fraction of the device's streaming bandwidth this kernel's access
  /// pattern achieves (1.0 = perfectly coalesced long bursts). Row-mapped
  /// schedules issue one short burst per row and achieve less; packed/
  /// regularized schedules approach 1. Kernels set this from their
  /// schedule's burst granularity.
  double StreamEfficiencyFactor = 1.0;
  /// Extra fixed host-visible time (e.g. a device->host readback).
  double FixedOverheadUs = 0.0;
  /// The device whose cycle costs priced the wavefronts; nullptr for a
  /// default-constructed launch.
  const DeviceModel *Device = nullptr;
};

/// Incrementally builds a KernelLaunch for one device. Only
/// GpuSimulator::launch() makes one, so a launch is simulated on the
/// device that priced its wavefronts.
class LaunchBuilder {
public:
  /// Opens a new wavefront; lanes are then added with addLane().
  void beginWavefront() {
    assert(!InWavefront && "nested wavefront");
    InWavefront = true;
    Current = WavefrontWork();
  }

  /// Adds one lane's work to the open wavefront.
  void addLane(double Ops, double CoalescedBytes, double RandomBytes,
               double AtomicOps = 0.0) {
    assert(InWavefront && "addLane outside wavefront");
    assert(Current.ActiveLanes < Device.WavefrontSize &&
           "wavefront overfilled");
    Current.MaxLaneOps = Current.MaxLaneOps < Ops ? Ops : Current.MaxLaneOps;
    Current.CoalescedBytes += CoalescedBytes;
    Current.RandomBytes += RandomBytes;
    Current.AtomicOps += AtomicOps;
    ++Current.ActiveLanes;
  }

  /// Closes the open wavefront (empty wavefronts are dropped).
  void endWavefront() {
    assert(InWavefront && "endWavefront without begin");
    InWavefront = false;
    if (Current.ActiveLanes > 0)
      fold(Current);
  }

  /// Adds a wavefront whose aggregates the kernel computed analytically
  /// (e.g. one-wavefront-per-row schedules know max lane ops in O(1)).
  void addWavefront(const WavefrontWork &Work) {
    assert(!InWavefront && "addWavefront inside begin/end pair");
    assert(Work.ActiveLanes <= Device.WavefrontSize && "wavefront overfilled");
    if (Work.ActiveLanes > 0)
      fold(Work);
  }

  /// Convenience: emits ceil(Lanes / WavefrontSize) wavefronts of identical
  /// lanes — the common case for regularized schedules (ELL, work-split).
  void addUniformLanes(uint64_t Lanes, double OpsPerLane,
                       double CoalescedPerLane, double RandomPerLane,
                       double AtomicPerLane = 0.0);

  /// Sets the launch-wide gather locality (see KernelLaunch).
  void setGatherHitRate(double HitRate) {
    assert(HitRate >= 0.0 && HitRate <= 1.0 && "hit rate is a probability");
    Launch.GatherHitRate = HitRate;
  }

  /// Sets the launch-wide achieved-bandwidth fraction (see KernelLaunch).
  void setStreamEfficiency(double Factor) {
    assert(Factor > 0.0 && Factor <= 1.0 && "efficiency is a fraction");
    Launch.StreamEfficiencyFactor = Factor;
  }

  /// Adds fixed host-visible overhead in microseconds.
  void addFixedOverheadUs(double Us) { Launch.FixedOverheadUs += Us; }

  /// Lanes per wavefront for this device.
  uint32_t wavefrontSize() const { return Device.WavefrontSize; }

  /// Finalizes and returns the launch.
  KernelLaunch take() {
    assert(!InWavefront && "take() with an open wavefront");
    return std::move(Launch);
  }

private:
  friend class GpuSimulator;

  explicit LaunchBuilder(const DeviceModel &Device)
      : Device(Device), ScheduleLimit(exactScheduleLimit(Device)) {
    Launch.Device = &Device;
  }

  /// Folds one non-empty wavefront into the aggregates. Every sum adds in
  /// submission order.
  void fold(const WavefrontWork &Wave) {
    const double Busy = Wave.MaxLaneOps * Device.CyclesPerOp +
                        Wave.AtomicOps * Device.CyclesPerAtomic +
                        Device.WavefrontOverheadCycles;
    ++Launch.NumWavefronts;
    Launch.BusyCycles += Busy;
    Launch.MaxBusyCycles = std::max(Launch.MaxBusyCycles, Busy);
    Launch.CoalescedBytes += Wave.CoalescedBytes;
    Launch.RandomBytes += Wave.RandomBytes;
    if (Launch.NumWavefronts <= ScheduleLimit)
      Launch.ScheduleCycles.push_back(Busy);
    else if (Launch.NumWavefronts == ScheduleLimit + 1)
      Launch.ScheduleCycles = std::vector<double>(); // past the exact path
  }

  const DeviceModel &Device;
  uint64_t ScheduleLimit;
  bool InWavefront = false;
  WavefrontWork Current;
  KernelLaunch Launch;
};

} // namespace seer

#endif // SEER_SIM_LAUNCH_H
