//===- kernels/CsrKernels.h - CSR-format load-balancing schedules ---------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five schedule-only CSR variants of Table II (the two adaptive
/// variants with preprocessing live in AdaptiveKernels.h):
///
///  - CSR,TM  (Thread Mapped, Bell & Garland 2008): one thread per row.
///    Minimal overhead; SIMD divergence makes it collapse on skewed rows.
///  - CSR,WM  (Warp Mapped / vector, Bell & Garland 2008): one wavefront
///    per row with an intra-wavefront reduction. Robust for medium rows,
///    wasteful when rows are much shorter than the wavefront.
///  - CSR,BM  (Block Mapped, GraphIt-style): one workgroup (4 wavefronts)
///    per row. Best for very long rows; heavy overhead for short ones.
///  - CSR,WO  (Work Oriented, nonzero splitting): equal nonzeros per
///    thread, partial row sums combined with atomics.
///  - CSR,MP  (Merge Path, Merrill & Garland 2016): equal (nonzeros +
///    rows) merge items per thread, carry fix-up in a second launch.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_KERNELS_CSRKERNELS_H
#define SEER_KERNELS_CSRKERNELS_H

#include "kernels/SpmvKernel.h"

namespace seer {

/// CSR,TM: one thread per row.
class CsrThreadMapped : public SpmvKernel {
public:
  std::string name() const override { return "CSR,TM"; }
  std::string format() const override { return "CSR"; }
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

/// CSR,WM: one wavefront per row.
class CsrWarpMapped : public SpmvKernel {
public:
  std::string name() const override { return "CSR,WM"; }
  std::string format() const override { return "CSR"; }
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

/// CSR,BM: one workgroup per row.
class CsrBlockMapped : public SpmvKernel {
public:
  /// Wavefronts per workgroup (256 threads / 64 lanes).
  static constexpr uint32_t WavesPerBlock = 4;

  std::string name() const override { return "CSR,BM"; }
  std::string format() const override { return "CSR"; }
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

/// CSR,WO: equal nonzeros per thread.
class CsrWorkOriented : public SpmvKernel {
public:
  /// Nonzeros statically assigned to each thread.
  static constexpr uint32_t ItemsPerThread = 8;

  std::string name() const override { return "CSR,WO"; }
  std::string format() const override { return "CSR"; }
  std::vector<double> compute(const CsrMatrix &M, const KernelState *State,
                              const std::vector<double> &X,
                              const GpuSimulator &Sim) const override;
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

/// CSR,MP: merge-path splitting of (nonzeros + rows).
class CsrMergePath : public SpmvKernel {
public:
  /// Merge items (nonzeros + row ends) per thread.
  static constexpr uint32_t ItemsPerThread = 16;

  std::string name() const override { return "CSR,MP"; }
  std::string format() const override { return "CSR"; }
  std::vector<double> compute(const CsrMatrix &M, const KernelState *State,
                              const std::vector<double> &X,
                              const GpuSimulator &Sim) const override;
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

} // namespace seer

#endif // SEER_KERNELS_CSRKERNELS_H
