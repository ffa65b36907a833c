//===- kernels/AdaptiveKernels.cpp -----------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "kernels/AdaptiveKernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

using namespace seer;
using namespace seer::spmvcost;

PreprocessResult
AdaptiveKernelBase::preprocess(const CsrMatrix &M, const MatrixStats &,
                               const GpuSimulator &Sim) const {
  auto State = std::make_unique<RowBinsState>();
  // The binning pass the paper describes is sequential on the host
  // ("the rows within the matrix must be binned sequentially", Sec. IV).
  for (uint32_t Row = 0; Row < M.numRows(); ++Row) {
    const uint32_t Length = M.rowLength(Row);
    if (Length < ShortRowLimit)
      State->ShortRows.push_back(Row);
    else if (Length <= LongRowLimit)
      State->MediumRows.push_back(Row);
    else
      State->LongRows.push_back(Row);
  }

  PreprocessResult Result;
  const DeviceModel &Device = Sim.device();
  Result.TimeMs =
      Device.hostSequentialMs(M.numRows(), hostCyclesPerRow()) +
      Device.hostSequentialMs(M.nnz(), hostCyclesPerNnz()) +
      Device.pcieCopyMs(metadataBytesPerRow() *
                        static_cast<double>(M.numRows()));
  Result.State = std::move(State);
  return Result;
}

LaunchTiming AdaptiveKernelBase::timing(const CsrMatrix &M,
                                        const MatrixStats &Stats,
                                        const KernelState *State,
                                        const GpuSimulator &Sim) const {
  assert(State != nullptr && "adaptive kernels require preprocessing");
  const auto *Bins = static_cast<const RowBinsState *>(State);

  LaunchBuilder Builder = Sim.launch();
  const double BaseHitRate = estimateGatherHitRate(
      Sim.device(), M.numCols(), Stats.MeanColumnGap);
  // LDS gather staging eliminates a fraction of the misses.
  Builder.setGatherHitRate(1.0 -
                           (1.0 - BaseHitRate) * (1.0 - gatherStagingBoost()));
  Builder.setStreamEfficiency(streamEfficiency());
  const double WaveSize = Builder.wavefrontSize();
  const double Efficiency = issueEfficiency();

  // --- Short rows: CSR-stream bundles. Consecutive binned rows are packed
  // until a bundle holds ~WaveSize * shortBinNnzPerLane nonzeros; lanes
  // split the bundle evenly, so divergence is bounded by one row.
  const double BundleCapacity = WaveSize * shortBinNnzPerLane();
  double BundleNnz = 0.0;
  uint32_t BundleRows = 0;
  const auto FlushBundle = [&] {
    if (BundleRows == 0)
      return;
    WavefrontWork Wave;
    Wave.MaxLaneOps =
        (std::ceil(BundleNnz / WaveSize) * OpsPerNnz + WaveReductionOps) *
            Efficiency +
        2.0;
    Wave.CoalescedBytes = BundleNnz * StreamBytesPerNnz +
                          static_cast<double>(BundleRows) * StreamBytesPerRow;
    Wave.RandomBytes = BundleNnz * GatherBytesPerNnz;
    Wave.ActiveLanes = static_cast<uint32_t>(WaveSize);
    Builder.addWavefront(Wave);
    BundleNnz = 0.0;
    BundleRows = 0;
  };
  for (uint32_t Row : Bins->ShortRows) {
    BundleNnz += M.rowLength(Row);
    ++BundleRows;
    if (BundleNnz >= BundleCapacity)
      FlushBundle();
  }
  FlushBundle();

  // --- Medium rows: CSR-vector, one wavefront each.
  for (uint32_t Row : Bins->MediumRows) {
    const double Length = M.rowLength(Row);
    WavefrontWork Wave;
    Wave.MaxLaneOps =
        (std::ceil(Length / WaveSize) * OpsPerNnz + WaveReductionOps) *
            Efficiency +
        2.0;
    Wave.CoalescedBytes = Length * StreamBytesPerNnz + StreamBytesPerRow;
    Wave.RandomBytes = Length * GatherBytesPerNnz;
    Wave.ActiveLanes = static_cast<uint32_t>(WaveSize);
    Builder.addWavefront(Wave);
  }

  // --- Long rows: split into LongRowLimit-sized segments, one wavefront
  // per segment, partial sums combined through LDS/atomics.
  for (uint32_t Row : Bins->LongRows) {
    const double Length = M.rowLength(Row);
    const uint32_t Segments = static_cast<uint32_t>(
        std::ceil(Length / static_cast<double>(LongRowLimit)));
    const double PerSegment = Length / Segments;
    for (uint32_t S = 0; S < Segments; ++S) {
      WavefrontWork Wave;
      Wave.MaxLaneOps =
          (std::ceil(PerSegment / WaveSize) * OpsPerNnz + WaveReductionOps) *
              Efficiency +
          2.0;
      Wave.CoalescedBytes =
          PerSegment * StreamBytesPerNnz + StreamBytesPerRow / Segments;
      Wave.RandomBytes = PerSegment * GatherBytesPerNnz;
      Wave.AtomicOps = 1.0;
      Wave.ActiveLanes = static_cast<uint32_t>(WaveSize);
      Builder.addWavefront(Wave);
    }
  }

  return Sim.simulate(Builder.take());
}
