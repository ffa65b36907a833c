//===- kernels/SpmvKernel.h - Interface for SpMV kernel variants ----------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of every SpMV kernel variant in Table II of the
/// paper. A variant is a (compressed format, load-balancing schedule) pair,
/// with its functional and timing models kept apart:
///
///  1. compute() is the true y = A * x on the host, in the decomposition
///     and addition order its GPU schedule would use (so scheduling bugs
///     surface as wrong numerics, not just odd timings); and
///  2. timing() describes that schedule's wavefronts to the GPU simulator,
///     which returns the modeled time. It takes no operand: a prepared
///     plan simulates once, and each later run pays only for compute().
///
/// Kernels with a one-time preprocessing step (Adaptive-CSR's row binning,
/// rocSPARSE's analysis pass) report its cost separately so the Seer
/// pipeline can reason about amortization over iterations (Section IV-E).
/// Format conversion (CSR -> ELL/COO) is *not* charged as preprocessing,
/// matching the paper's setup where each kernel is benchmarked with its
/// input already in its native format.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_KERNELS_SPMVKERNEL_H
#define SEER_KERNELS_SPMVKERNEL_H

#include "sim/GpuSimulator.h"
#include "sparse/CsrMatrix.h"
#include "sparse/MatrixStats.h"

#include <memory>
#include <string>
#include <vector>

namespace seer {

/// Opaque per-matrix state produced by preprocessing (bin layouts,
/// converted formats). Kernels downcast to their own state type.
struct KernelState {
  virtual ~KernelState();

  /// Resident host bytes of this state, including heap storage behind any
  /// owned vectors. The serving layer's byte-budgeted cache charges each
  /// ledger slot by this number, so implementations must account for the
  /// arrays they actually hold, not just sizeof.
  virtual size_t bytes() const;
};

/// Result of preprocessing: the state plus its simulated one-time cost.
struct PreprocessResult {
  std::unique_ptr<KernelState> State;
  double TimeMs = 0.0;
};

/// Result of one SpMV launch.
struct SpmvRun {
  /// The computed product; length = numRows().
  std::vector<double> Y;
  /// Simulated timing of the launch (Planner::run fills only TotalMs).
  LaunchTiming Timing;
};

/// Abstract SpMV kernel variant.
class SpmvKernel {
public:
  virtual ~SpmvKernel();

  /// Display name matching the paper's labels, e.g. "CSR,TM".
  virtual std::string name() const = 0;

  /// Compressed format consumed: "CSR", "ELL" or "COO".
  virtual std::string format() const = 0;

  /// One-time preparation for \p M. The default implementation returns an
  /// empty state at zero cost (most schedules need none).
  virtual PreprocessResult preprocess(const CsrMatrix &M,
                                      const MatrixStats &Stats,
                                      const GpuSimulator &Sim) const;

  /// Computes y = A * x. \p State must be the PreprocessResult::State
  /// produced by this kernel for this matrix (nullptr if none), \p X has
  /// numCols() elements, \p Sim gives the device geometry. The default is
  /// the row-sum loop: most schedules reduce each row in one lane group.
  virtual std::vector<double> compute(const CsrMatrix &M,
                                      const KernelState * /*State*/,
                                      const std::vector<double> &X,
                                      const GpuSimulator & /*Sim*/) const {
    return M.multiply(X);
  }

  /// Simulates one launch of this kernel's schedule over \p M with
  /// \p State (as for compute()).
  virtual LaunchTiming timing(const CsrMatrix &M, const MatrixStats &Stats,
                              const KernelState *State,
                              const GpuSimulator &Sim) const = 0;

  /// One-shot compute() plus timing().
  SpmvRun run(const CsrMatrix &M, const MatrixStats &Stats,
              const KernelState *State, const std::vector<double> &X,
              const GpuSimulator &Sim) const {
    return {compute(M, State, X, Sim), timing(M, Stats, State, Sim)};
  }
};

/// A devirtualized compute entry point: a plain function pointer that
/// calls one concrete kernel's compute() non-virtually, bound to that
/// kernel instance. The KernelRegistry captures one per kernel at
/// registration (it knows the concrete type there, so the qualified call
/// inside the thunk is resolved at compile time); Planner::run dispatches
/// through it, so a repeat-stream run() stage makes zero virtual calls.
/// Trivially copyable; valid as long as the registry that captured it.
///
/// It looks like a duplicate of the virtual compute() dispatch, but it
/// buys speed: with Planner::run calling compute() virtually instead,
/// perfbench serve-hot (8 alternating pairs at --seconds 5) measured
/// wall_s x1.063 and latency_p50_us x1.068, better in only 1 of 8 pairs.
/// Keep it unless a new measurement says otherwise.
struct RunThunk {
  using Fn = std::vector<double> (*)(const SpmvKernel *, const CsrMatrix &,
                                     const KernelState *,
                                     const std::vector<double> &,
                                     const GpuSimulator &);
  Fn Run = nullptr;
  const SpmvKernel *Kernel = nullptr;

  std::vector<double> operator()(const CsrMatrix &M, const KernelState *State,
                                 const std::vector<double> &X,
                                 const GpuSimulator &Sim) const {
    return Run(Kernel, M, State, X, Sim);
  }
};

/// Cost constants shared by the kernel implementations. One SpMV inner
/// step is: load column index, load value, gather x[col], FMA — roughly
/// four issue slots; the byte counts follow the CSR element layout.
namespace spmvcost {
/// Issue slots per processed nonzero.
inline constexpr double OpsPerNnz = 4.0;
/// Streamed bytes per nonzero: 4 (column index) + 8 (value).
inline constexpr double StreamBytesPerNnz = 12.0;
/// Gathered bytes per nonzero: 8 (x element).
inline constexpr double GatherBytesPerNnz = 8.0;
/// Streamed bytes per row: offsets read (8) + y write (8).
inline constexpr double StreamBytesPerRow = 16.0;
/// Issue slots for a full-wavefront parallel reduction (log2(64) steps).
inline constexpr double WaveReductionOps = 6.0;
} // namespace spmvcost

} // namespace seer

#endif // SEER_KERNELS_SPMVKERNEL_H
