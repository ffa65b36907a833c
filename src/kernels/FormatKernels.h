//===- kernels/FormatKernels.h - ELL and COO format kernels ---------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two non-CSR variants of Table II:
///
///  - ELL,TM (Bell & Garland 2008): the matrix is padded to its longest
///    row; one thread per row streams the fixed-width slab with perfect
///    coalescing and zero divergence. Unbeatable on uniform row lengths,
///    catastrophic on skewed ones because every row pays for the longest
///    (G3_circuit in Fig. 7c vs. the power-law matrices of Fig. 5).
///
///  - COO,WM (Merrill, Garland & Grimshaw 2012): wavefronts stream equal
///    slices of the nonzero triples and combine per-row partial sums with
///    a segmented reduction plus boundary atomics. Fully load balanced at
///    the cost of streaming an extra row index per nonzero and atomic
///    traffic proportional to rows touched per slice.
///
/// Both kernels build their format from CSR at preprocess time; per the
/// paper's benchmarking setup the conversion is dataset preparation and is
/// charged zero time (see SpmvKernel.h). Only compute() reads the converted
/// format: timing() reads no state, taking ELL's padded width from
/// MatrixStats::MaxRowLength and COO's per-slice row boundaries from the
/// CSR row offsets.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_KERNELS_FORMATKERNELS_H
#define SEER_KERNELS_FORMATKERNELS_H

#include "kernels/SpmvKernel.h"
#include "sparse/CooMatrix.h"
#include "sparse/EllMatrix.h"

namespace seer {

/// Preprocessed state holding the converted ELL matrix.
struct EllState : KernelState {
  EllMatrix Ell;

  size_t bytes() const override {
    return sizeof(EllState) + Ell.storageBytes();
  }
};

/// ELL,TM — thread-per-row over the padded ELLPACK slab.
class EllThreadMapped : public SpmvKernel {
public:
  std::string name() const override { return "ELL,TM"; }
  std::string format() const override { return "ELL"; }

  PreprocessResult preprocess(const CsrMatrix &M, const MatrixStats &Stats,
                              const GpuSimulator &Sim) const override;

  std::vector<double> compute(const CsrMatrix &M, const KernelState *State,
                              const std::vector<double> &X,
                              const GpuSimulator &Sim) const override;
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

/// Preprocessed state holding the converted COO matrix.
struct CooState : KernelState {
  CooMatrix Coo;

  size_t bytes() const override {
    return sizeof(CooState) + Coo.storageBytes();
  }
};

/// COO,WM — wavefront-sliced segmented reduction over triples.
class CooWarpMapped : public SpmvKernel {
public:
  std::string name() const override { return "COO,WM"; }
  std::string format() const override { return "COO"; }

  PreprocessResult preprocess(const CsrMatrix &M, const MatrixStats &Stats,
                              const GpuSimulator &Sim) const override;

  std::vector<double> compute(const CsrMatrix &M, const KernelState *State,
                              const std::vector<double> &X,
                              const GpuSimulator &Sim) const override;
  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;
};

} // namespace seer

#endif // SEER_KERNELS_FORMATKERNELS_H
