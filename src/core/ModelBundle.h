//===- core/ModelBundle.h - Loading/storing the .tree model triple --------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The portable on-disk form of a trained model triple: three `.tree`
/// files (seer_known.tree, seer_gathered.tree, seer_selector.tree) in one
/// directory, as written by `seer-train`. The C++ headers of Fig. 4 are
/// the zero-dependency deployment artifact; the `.tree` bundle is the
/// re-loadable one, shared by `seer-predict`, `seer-serve`, and any
/// embedder that wants to ship retrained models without recompiling.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_MODELBUNDLE_H
#define SEER_CORE_MODELBUNDLE_H

#include "api/Status.h"
#include "core/SeerTrainer.h"

#include <string>
#include <vector>

namespace seer {

/// File names of the bundle members, in {known, gathered, selector} order.
std::vector<std::string> modelBundleFileNames();

/// Loads the `.tree` triple from \p Directory. \p KernelNames becomes the
/// label vocabulary of the returned models and must match the registry the
/// models were trained for (SeerRuntime asserts this). NOT_FOUND on a
/// missing file, INVALID_ARGUMENT on a malformed one.
Expected<SeerModels> loadModelBundle(const std::string &Directory,
                                     std::vector<std::string> KernelNames);

/// Writes the `.tree` triple into \p Directory (which must exist).
/// UNAVAILABLE on I/O failure.
Status storeModelBundle(const SeerModels &Models,
                        const std::string &Directory);

} // namespace seer

#endif // SEER_CORE_MODELBUNDLE_H
