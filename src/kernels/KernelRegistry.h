//===- kernels/KernelRegistry.h - The kernel zoo of Table II --------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns one instance of every SpMV variant and exposes them in a stable
/// order. The order matches the bar groups of Fig. 5: CSR,A; CSR,BM;
/// CSR,MP; CSR,WM; CSR,WO; CSR,TM; COO,WM; ELL,TM; plus rocSPARSE (shown
/// in Fig. 1). Classifier label indices are indices into this order, so
/// stability is load-bearing: the generated C++ decision-tree headers bake
/// these indices in.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_KERNELS_KERNELREGISTRY_H
#define SEER_KERNELS_KERNELREGISTRY_H

#include "kernels/SpmvKernel.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace seer {

/// Immutable container of all kernel variants.
class KernelRegistry {
public:
  /// Builds the full Table II zoo.
  KernelRegistry();

  /// Number of registered kernels.
  size_t size() const { return Kernels.size(); }

  /// Kernel at \p Index (stable across runs and processes).
  const SpmvKernel &kernel(size_t Index) const {
    assert(Index < Kernels.size() && "kernel index out of range");
    return *Kernels[Index];
  }

  /// All kernel names in index order.
  std::vector<std::string> names() const;

  /// Index of the kernel named \p Name, or npos if absent.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t indexOf(const std::string &Name) const;

  /// Devirtualized compute entry point of the kernel at \p Index, captured
  /// at registration time (see SpmvKernel.h RunThunk). Valid as long as
  /// the registry.
  const RunThunk &runThunk(size_t Index) const {
    assert(Index < Thunks.size() && "kernel index out of range");
    return Thunks[Index];
  }

private:
  /// Registers \p KernelT and captures its non-virtual compute thunk: the
  /// concrete type is known here, so the qualified KernelT::compute call
  /// in the thunk body compiles to a direct call (inlinable), bypassing
  /// the vtable on every prepared-plan run.
  template <typename KernelT> void registerKernel() {
    auto Kernel = std::make_unique<KernelT>();
    RunThunk Thunk;
    Thunk.Kernel = Kernel.get();
    Thunk.Run = [](const SpmvKernel *Self, const CsrMatrix &M,
                   const KernelState *State, const std::vector<double> &X,
                   const GpuSimulator &Sim) -> std::vector<double> {
      return static_cast<const KernelT *>(Self)->KernelT::compute(M, State, X,
                                                                  Sim);
    };
    Thunks.push_back(Thunk);
    Kernels.push_back(std::move(Kernel));
  }

  std::vector<std::unique_ptr<SpmvKernel>> Kernels;
  /// One thunk per kernel, same index order as Kernels.
  std::vector<RunThunk> Thunks;
};

} // namespace seer

#endif // SEER_KERNELS_KERNELREGISTRY_H
