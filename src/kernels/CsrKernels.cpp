//===- kernels/CsrKernels.cpp ----------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "kernels/CsrKernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace seer;
using namespace seer::spmvcost;

namespace {

/// Shared setup for schedules over a CSR matrix.
LaunchBuilder makeBuilder(const CsrMatrix &M, const MatrixStats &Stats,
                          const GpuSimulator &Sim) {
  LaunchBuilder Builder = Sim.launch();
  Builder.setGatherHitRate(estimateGatherHitRate(
      Sim.device(), M.numCols(), Stats.MeanColumnGap));
  return Builder;
}

/// Mean bytes of matrix stream data per row: the burst each row-mapped
/// schedule issues per row.
double meanRowBurstBytes(const MatrixStats &Stats) {
  return Stats.MeanRowLength * StreamBytesPerNnz;
}

} // namespace

//===----------------------------------------------------------------------===//
// CSR,TM — one thread per row.
//===----------------------------------------------------------------------===//

LaunchTiming CsrThreadMapped::timing(const CsrMatrix &M,
                                     const MatrixStats &Stats,
                                     const KernelState *State,
                                     const GpuSimulator &Sim) const {
  assert(State == nullptr && "CSR,TM takes no preprocessing state");
  LaunchBuilder Builder = makeBuilder(M, Stats, Sim);
  // Each lane streams its own row: the burst per lane is one row, and
  // concurrent lanes interleave 64 unrelated bursts — the least coalesced
  // schedule in the zoo.
  Builder.setStreamEfficiency(
      rowBurstEfficiency(meanRowBurstBytes(Stats), 320.0, 0.15, 0.85));
  const uint32_t WaveSize = Builder.wavefrontSize();
  for (uint32_t RowBase = 0; RowBase < M.numRows(); RowBase += WaveSize) {
    const uint32_t RowEnd =
        std::min<uint32_t>(RowBase + WaveSize, M.numRows());
    Builder.beginWavefront();
    for (uint32_t Row = RowBase; Row < RowEnd; ++Row) {
      const double Length = M.rowLength(Row);
      Builder.addLane(/*Ops=*/Length * OpsPerNnz + 2.0,
                      /*CoalescedBytes=*/Length * StreamBytesPerNnz +
                          StreamBytesPerRow,
                      /*RandomBytes=*/Length * GatherBytesPerNnz);
    }
    Builder.endWavefront();
  }
  return Sim.simulate(Builder.take());
}

//===----------------------------------------------------------------------===//
// CSR,WM — one wavefront per row.
//===----------------------------------------------------------------------===//

LaunchTiming CsrWarpMapped::timing(const CsrMatrix &M,
                                   const MatrixStats &Stats,
                                   const KernelState *State,
                                   const GpuSimulator &Sim) const {
  assert(State == nullptr && "CSR,WM takes no preprocessing state");
  LaunchBuilder Builder = makeBuilder(M, Stats, Sim);
  // One wavefront-wide burst per row: coalesced within the row, but short
  // rows leave the burst (and most lanes) underfilled.
  Builder.setStreamEfficiency(
      rowBurstEfficiency(meanRowBurstBytes(Stats), 160.0, 0.30, 0.90));
  const double WaveSize = Builder.wavefrontSize();
  for (uint32_t Row = 0; Row < M.numRows(); ++Row) {
    const double Length = M.rowLength(Row);
    const double StepsPerLane = std::ceil(Length / WaveSize);
    WavefrontWork Wave;
    Wave.MaxLaneOps = StepsPerLane * OpsPerNnz + WaveReductionOps + 2.0;
    Wave.CoalescedBytes = Length * StreamBytesPerNnz + StreamBytesPerRow;
    Wave.RandomBytes = Length * GatherBytesPerNnz;
    Wave.ActiveLanes = static_cast<uint32_t>(
        std::min<double>(WaveSize, std::max(Length, 1.0)));
    Builder.addWavefront(Wave);
  }
  return Sim.simulate(Builder.take());
}

//===----------------------------------------------------------------------===//
// CSR,BM — one workgroup (WavesPerBlock wavefronts) per row.
//===----------------------------------------------------------------------===//

LaunchTiming CsrBlockMapped::timing(const CsrMatrix &M,
                                    const MatrixStats &Stats,
                                    const KernelState *State,
                                    const GpuSimulator &Sim) const {
  assert(State == nullptr && "CSR,BM takes no preprocessing state");
  LaunchBuilder Builder = makeBuilder(M, Stats, Sim);
  // A 256-thread workgroup streams one row: only rows of several KB keep
  // the whole block's burst machinery busy.
  Builder.setStreamEfficiency(
      rowBurstEfficiency(meanRowBurstBytes(Stats), 768.0, 0.35, 0.95));
  const double WaveSize = Builder.wavefrontSize();
  const double BlockThreads = WaveSize * WavesPerBlock;
  // LDS staging + cross-wavefront reduction cost paid by each wavefront.
  const double BlockReductionOps = WaveReductionOps + 6.0;
  for (uint32_t Row = 0; Row < M.numRows(); ++Row) {
    const double Length = M.rowLength(Row);
    const double StepsPerLane = std::ceil(Length / BlockThreads);
    const double BytesShare = 1.0 / WavesPerBlock;
    for (uint32_t Wave = 0; Wave < WavesPerBlock; ++Wave) {
      WavefrontWork Work;
      Work.MaxLaneOps = StepsPerLane * OpsPerNnz + BlockReductionOps + 2.0;
      Work.CoalescedBytes =
          (Length * StreamBytesPerNnz + StreamBytesPerRow) * BytesShare;
      Work.RandomBytes = Length * GatherBytesPerNnz * BytesShare;
      Work.ActiveLanes = static_cast<uint32_t>(WaveSize);
      Builder.addWavefront(Work);
    }
  }
  return Sim.simulate(Builder.take());
}

//===----------------------------------------------------------------------===//
// CSR,WO — equal nonzeros per thread, atomic row combination.
//===----------------------------------------------------------------------===//

std::vector<double> CsrWorkOriented::compute(const CsrMatrix &M,
                                             const KernelState *State,
                                             const std::vector<double> &X,
                                             const GpuSimulator &) const {
  assert(State == nullptr && "CSR,WO takes no preprocessing state");
  assert(X.size() == M.numCols() && "operand size mismatch");
  // Thread T owns nonzeros [T * ItemsPerThread, (T + 1) * ItemsPerThread)
  // and atomically adds its partial sum of each row it touches into y.
  // Row by row, that is the row's chunk-bounded segments, each summed from
  // zero and added in chunk order: the device's additions, in its order.
  std::vector<double> Y(M.numRows());
  const uint64_t *Offsets = M.rowOffsets().data();
  const uint32_t *Cols = M.columnIndices().data();
  const double *Vals = M.values().data();
  const double *In = X.data();
  for (uint32_t Row = 0; Row < M.numRows(); ++Row) {
    const uint64_t End = Offsets[Row + 1];
    double Sum = 0.0;
    for (uint64_t K = Offsets[Row]; K < End;) {
      const uint64_t SegmentEnd =
          std::min(End, K - K % ItemsPerThread + ItemsPerThread);
      double Partial = 0.0;
      for (; K < SegmentEnd; ++K)
        Partial += Vals[K] * In[Cols[K]];
      Sum += Partial; // atomic add on the device
    }
    Y[Row] = Sum;
  }
  return Y;
}

LaunchTiming CsrWorkOriented::timing(const CsrMatrix &M,
                                     const MatrixStats &Stats,
                                     const KernelState *State,
                                     const GpuSimulator &Sim) const {
  assert(State == nullptr && "CSR,WO takes no preprocessing state");
  LaunchBuilder Builder = makeBuilder(M, Stats, Sim);
  // Reference-quality nonzero splitting: contiguous chunks coalesce, but
  // the per-chunk row search and atomic combines disturb the stream.
  Builder.setStreamEfficiency(0.62);
  const uint64_t Threads = (M.nnz() + ItemsPerThread - 1) / ItemsPerThread;
  const double SearchOps =
      2.0 * std::log2(static_cast<double>(M.numRows()) + 2.0);
  const double RowsPerThread =
      static_cast<double>(M.numRows()) / std::max<uint64_t>(Threads, 1);
  // Every thread issues the same op count: perfect balance by construction.
  Builder.addUniformLanes(
      Threads,
      /*OpsPerLane=*/ItemsPerThread * OpsPerNnz + SearchOps + 4.0,
      /*CoalescedPerLane=*/ItemsPerThread * StreamBytesPerNnz +
          (RowsPerThread + 1.0) * StreamBytesPerRow,
      /*RandomPerLane=*/ItemsPerThread * GatherBytesPerNnz,
      /*AtomicPerLane=*/std::min(RowsPerThread + 1.0, 2.0));
  return Sim.simulate(Builder.take());
}

//===----------------------------------------------------------------------===//
// CSR,MP — merge-path split of (nonzeros + rows).
//===----------------------------------------------------------------------===//

std::vector<double> CsrMergePath::compute(const CsrMatrix &M,
                                          const KernelState *State,
                                          const std::vector<double> &X,
                                          const GpuSimulator &) const {
  assert(State == nullptr && "CSR,MP takes no preprocessing state");
  assert(X.size() == M.numCols() && "operand size mismatch");
  // Host execution walks the merge path: a diagonal split of the (row-end,
  // nonzero) merge produces per-thread segments covering ItemsPerThread
  // merge items; row carries are fixed up after the walk, which we emulate
  // directly by accumulating into Y.
  std::vector<double> Y(M.numRows());
  const uint32_t NumRows = M.numRows();
  const uint64_t MergeItems = M.nnz() + NumRows;
  const uint64_t *Offsets = M.rowOffsets().data();
  const uint32_t *Cols = M.columnIndices().data();
  const double *Vals = M.values().data();
  const double *In = X.data();
  uint32_t Row = 0;
  uint64_t K = 0;
  double Partial = 0.0;
  for (uint64_t Item = 0; Item < MergeItems; ++Item) {
    // Advance the merge: consume a row end if reached, else a nonzero.
    if (Row < NumRows && K == Offsets[Row + 1]) {
      Y[Row] += Partial; // carry write (fix-up pass on device)
      Partial = 0.0;
      ++Row;
    } else {
      Partial += Vals[K] * In[Cols[K]];
      ++K;
    }
  }
  if (Row < NumRows)
    Y[Row] += Partial;
  return Y;
}

LaunchTiming CsrMergePath::timing(const CsrMatrix &M, const MatrixStats &Stats,
                                  const KernelState *State,
                                  const GpuSimulator &Sim) const {
  assert(State == nullptr && "CSR,MP takes no preprocessing state");
  LaunchBuilder Builder = makeBuilder(M, Stats, Sim);
  // Merge path keeps perfectly even chunks; the diagonal searches and the
  // carry fix-up pass cost some achieved bandwidth versus a pure stream.
  Builder.setStreamEfficiency(0.72);
  const uint64_t Nnz = M.nnz();
  const uint64_t MergeItems = Nnz + M.numRows();
  const uint64_t Threads = (MergeItems + ItemsPerThread - 1) / ItemsPerThread;
  // Each thread runs a 2D diagonal binary search to find its segment.
  const double SearchOps =
      2.0 * std::log2(static_cast<double>(MergeItems) + 2.0);
  const double NnzShare =
      static_cast<double>(Nnz) / std::max<double>(MergeItems, 1.0);
  Builder.addUniformLanes(
      Threads,
      /*OpsPerLane=*/ItemsPerThread * (NnzShare * OpsPerNnz +
                                       (1.0 - NnzShare) * 1.0) +
          SearchOps + 4.0,
      /*CoalescedPerLane=*/ItemsPerThread * NnzShare * StreamBytesPerNnz +
          ItemsPerThread * (1.0 - NnzShare) * StreamBytesPerRow,
      /*RandomPerLane=*/ItemsPerThread * NnzShare * GatherBytesPerNnz);
  // Carry fix-up runs as a second (small) launch.
  Builder.addFixedOverheadUs(Sim.device().LaunchOverheadUs);
  return Sim.simulate(Builder.take());
}
