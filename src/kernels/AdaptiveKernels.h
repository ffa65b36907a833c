//===- kernels/AdaptiveKernels.h - Binning-based adaptive CSR kernels -----===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two Table II variants with a one-time preprocessing step:
///
///  - CSR,A ("Adaptive-CSR", Daga & Greathouse 2015): rows are binned
///    sequentially on the host into short / medium / long classes; short
///    rows are packed into CSR-stream style bundles, medium rows take a
///    wavefront each, long rows are split across several wavefronts. The
///    binning pass costs O(rows) host time up front but yields near
///    balanced wavefronts every iteration — the amortization protagonist
///    of Fig. 7.
///
///  - rocSPARSE (AMD's csrmv adaptive path): same structure with a heavier
///    analysis pass (it additionally scans the nonzeros to size row
///    blocks) and a more aggressively tuned steady state.
///
/// Both kernels produce a RowBinsState at preprocess time and refuse to
/// time a launch without it (asserted), mirroring the library APIs they
/// model; each bin sums its rows sequentially, the default compute().
///
//===----------------------------------------------------------------------===//

#ifndef SEER_KERNELS_ADAPTIVEKERNELS_H
#define SEER_KERNELS_ADAPTIVEKERNELS_H

#include "kernels/SpmvKernel.h"

namespace seer {

/// Preprocessed row binning shared by the two adaptive kernels.
struct RowBinsState : KernelState {
  /// Rows with fewer than ShortRowLimit entries, packed in bin order.
  std::vector<uint32_t> ShortRows;
  /// Rows processed one wavefront each.
  std::vector<uint32_t> MediumRows;
  /// Rows split across multiple wavefronts.
  std::vector<uint32_t> LongRows;

  size_t bytes() const override {
    return sizeof(RowBinsState) +
           (ShortRows.capacity() + MediumRows.capacity() +
            LongRows.capacity()) *
               sizeof(uint32_t);
  }
};

/// Common implementation core; the two public kernels differ in tuning
/// constants reported through the virtual hooks.
class AdaptiveKernelBase : public SpmvKernel {
public:
  /// Rows shorter than this are packed into bundles.
  static constexpr uint32_t ShortRowLimit = 64;
  /// Rows longer than this are split across wavefronts.
  static constexpr uint32_t LongRowLimit = 4096;

  std::string format() const override { return "CSR"; }

  PreprocessResult preprocess(const CsrMatrix &M, const MatrixStats &Stats,
                              const GpuSimulator &Sim) const override;

  LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                      const KernelState *State,
                      const GpuSimulator &Sim) const override;

protected:
  /// Host cycles per row spent by the binning/analysis pass.
  virtual double hostCyclesPerRow() const = 0;
  /// Host cycles per nonzero of extra analysis (0 when none).
  virtual double hostCyclesPerNnz() const = 0;
  /// Bytes of preprocessing metadata copied host->device per row.
  virtual double metadataBytesPerRow() const = 0;
  /// Target packed nonzeros per lane in the short-row bundles.
  virtual double shortBinNnzPerLane() const = 0;
  /// Multiplier (< 1 is faster) on inner-loop issue cost: models vendor
  /// tuning such as wider loads and software pipelining.
  virtual double issueEfficiency() const = 0;
  /// Fraction of gather misses eliminated by staging x through LDS
  /// (0 = none). Vendor kernels prefetch; the reference adaptive kernel
  /// does not.
  virtual double gatherStagingBoost() const = 0;
  /// Achieved-bandwidth fraction of the binned steady state. Row packing
  /// turns short rows into long contiguous bundles, so both adaptive
  /// kernels sit near 1.
  virtual double streamEfficiency() const = 0;
};

/// CSR,A — Adaptive-CSR.
class CsrAdaptive : public AdaptiveKernelBase {
public:
  std::string name() const override { return "CSR,A"; }

protected:
  double hostCyclesPerRow() const override { return 6.0; }
  double hostCyclesPerNnz() const override { return 0.0; }
  double metadataBytesPerRow() const override { return 4.0; }
  double shortBinNnzPerLane() const override { return 4.0; }
  double issueEfficiency() const override { return 1.0; }
  double gatherStagingBoost() const override { return 0.0; }
  double streamEfficiency() const override { return 0.95; }
};

/// rocSPARSE — vendor adaptive csrmv: costlier analysis, faster steady
/// state.
class RocSparseAdaptive : public AdaptiveKernelBase {
public:
  std::string name() const override { return "rocSPARSE"; }

protected:
  double hostCyclesPerRow() const override { return 10.0; }
  double hostCyclesPerNnz() const override { return 0.4; }
  double metadataBytesPerRow() const override { return 8.0; }
  double shortBinNnzPerLane() const override { return 8.0; }
  double issueEfficiency() const override { return 0.85; }
  double gatherStagingBoost() const override { return 0.3; }
  double streamEfficiency() const override { return 0.99; }
};

} // namespace seer

#endif // SEER_KERNELS_ADAPTIVEKERNELS_H
