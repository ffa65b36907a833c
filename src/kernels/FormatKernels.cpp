//===- kernels/FormatKernels.cpp -------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "kernels/FormatKernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

using namespace seer;
using namespace seer::spmvcost;

//===----------------------------------------------------------------------===//
// ELL,TM
//===----------------------------------------------------------------------===//

PreprocessResult EllThreadMapped::preprocess(const CsrMatrix &M,
                                             const MatrixStats &,
                                             const GpuSimulator &) const {
  auto State = std::make_unique<EllState>();
  State->Ell = EllMatrix::fromCsr(M);
  PreprocessResult Result;
  Result.State = std::move(State);
  Result.TimeMs = 0.0; // format conversion is dataset preparation
  return Result;
}

std::vector<double> EllThreadMapped::compute(const CsrMatrix &M,
                                             const KernelState *State,
                                             const std::vector<double> &X,
                                             const GpuSimulator &) const {
  assert(State != nullptr && "ELL,TM requires the converted matrix");
  const EllMatrix &Ell = static_cast<const EllState *>(State)->Ell;
  assert(Ell.numRows() == M.numRows() && "state/matrix mismatch");
  return Ell.multiply(X); // one lane per padded row
}

LaunchTiming EllThreadMapped::timing(const CsrMatrix &M,
                                     const MatrixStats &Stats,
                                     const KernelState *,
                                     const GpuSimulator &Sim) const {
  LaunchBuilder Builder = Sim.launch();
  // ELL slabs are stored column-major on the device: lane L of a wavefront
  // reads slot K of row Base+L at a fixed stride — perfectly coalesced, so
  // the launch keeps the default StreamEfficiencyFactor of 1.
  Builder.setGatherHitRate(estimateGatherHitRate(
      Sim.device(), M.numCols(), Stats.MeanColumnGap));

  // The padded width is the longest row.
  const double Width = Stats.MaxRowLength;
  const double MeanLength = Stats.MeanRowLength;
  // All lanes iterate the full padded width in lockstep (a padded slot
  // still issues the bounds check + masked ops).
  const double PaddedOps = Width * OpsPerNnz;
  // Padding streams index+value but gathers nothing (masked lanes).
  Builder.addUniformLanes(
      M.numRows(),
      /*OpsPerLane=*/PaddedOps + 2.0,
      /*CoalescedPerLane=*/Width * StreamBytesPerNnz + 8.0 /*y write*/,
      /*RandomPerLane=*/MeanLength * GatherBytesPerNnz);
  return Sim.simulate(Builder.take());
}

//===----------------------------------------------------------------------===//
// COO,WM
//===----------------------------------------------------------------------===//

PreprocessResult CooWarpMapped::preprocess(const CsrMatrix &M,
                                           const MatrixStats &,
                                           const GpuSimulator &) const {
  auto State = std::make_unique<CooState>();
  State->Coo = CooMatrix::fromCsr(M);
  PreprocessResult Result;
  Result.State = std::move(State);
  Result.TimeMs = 0.0; // format conversion is dataset preparation
  return Result;
}

std::vector<double> CooWarpMapped::compute(const CsrMatrix &M,
                                           const KernelState *State,
                                           const std::vector<double> &X,
                                           const GpuSimulator &Sim) const {
  assert(State != nullptr && "COO,WM requires the converted matrix");
  assert(X.size() == M.numCols() && "operand size mismatch");
  const CooMatrix &Coo = static_cast<const CooState *>(State)->Coo;
  assert(Coo.numRows() == M.numRows() && "state/matrix mismatch");

  // Each wavefront reduces one slice of WavefrontSize triples segmented by
  // row: a run ends at a row change or the slice end and commits with one
  // atomic add. One trip is one run, so additions keep the device's order.
  std::vector<double> Y(M.numRows());
  const uint64_t Slice = Sim.device().WavefrontSize;
  const uint64_t Nnz = Coo.nnz();
  const uint32_t *Rows = Coo.rowIndices().data();
  const uint32_t *Cols = Coo.colIndices().data();
  const double *Vals = Coo.values().data();
  const double *In = X.data();
  for (uint64_t K = 0; K < Nnz;) {
    const uint64_t SliceEnd = std::min(Nnz, K - K % Slice + Slice);
    const uint32_t Row = Rows[K];
    double RunSum = 0.0;
    for (; K < SliceEnd && Rows[K] == Row; ++K)
      RunSum += Vals[K] * In[Cols[K]];
    Y[Row] += RunSum; // boundary atomic
  }
  return Y;
}

LaunchTiming CooWarpMapped::timing(const CsrMatrix &M,
                                   const MatrixStats &Stats,
                                   const KernelState *,
                                   const GpuSimulator &Sim) const {
  LaunchBuilder Builder = Sim.launch();
  Builder.setGatherHitRate(estimateGatherHitRate(
      Sim.device(), M.numCols(), Stats.MeanColumnGap));
  // Triples stream contiguously, but the segmented scan's shuffle traffic
  // and boundary atomics cost achieved bandwidth; with 16 B/nonzero of
  // stream this is the most traffic-hungry schedule in the zoo.
  Builder.setStreamEfficiency(0.60);
  const uint32_t WaveSize = Builder.wavefrontSize();
  const uint64_t Nnz = M.nnz();
  const uint32_t NumRows = M.numRows();
  const uint64_t *Offsets = M.rowOffsets().data();

  // COO bytes per nonzero: row index (4) + column index (4) + value (8).
  constexpr double CooStreamBytesPerNnz = 16.0;

  // Row is the first row starting after the slice's first nonzero; it only
  // moves forward, so the walk is O(rows + slices).
  uint32_t Row = 0;
  for (uint64_t Base = 0; Base < Nnz; Base += WaveSize) {
    const uint64_t End = std::min<uint64_t>(Base + WaveSize, Nnz);
    // One atomic per run of equal row index in the slice (see compute()):
    // a run starts at the slice's first nonzero and at every distinct
    // row start inside the slice.
    while (Row < NumRows && Offsets[Row] <= Base)
      ++Row;
    uint32_t Boundaries = 1;
    for (; Row < NumRows && Offsets[Row] < End; ++Row)
      Boundaries += Offsets[Row] != Offsets[Row - 1];

    const double Lanes = static_cast<double>(End - Base);
    WavefrontWork Wave;
    // One nonzero per lane + segmented-scan steps (2 * log2(WaveSize)).
    Wave.MaxLaneOps = OpsPerNnz + 2.0 * WaveReductionOps + 2.0;
    Wave.CoalescedBytes = Lanes * CooStreamBytesPerNnz + 8.0;
    Wave.RandomBytes = Lanes * GatherBytesPerNnz;
    Wave.AtomicOps = Boundaries;
    Wave.ActiveLanes = static_cast<uint32_t>(Lanes);
    Builder.addWavefront(Wave);
  }
  return Sim.simulate(Builder.take());
}
