//===- core/ModelBundle.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "core/ModelBundle.h"

#include "core/Features.h"
#include "support/AtomicFile.h"
#include "support/FaultInjector.h"

#include <fstream>
#include <sstream>

using namespace seer;

namespace {

/// Validates one parsed tree against the schema the runtime will feed
/// it: the exact feature layout (a stale bundle trained on a different
/// schema would otherwise silently mispredict — the tree would read the
/// wrong columns) and the label vocabulary (a prediction >= the registry
/// size would index out of the kernel zoo).
Status validateTree(const DecisionTree &Tree, const std::string &Path,
                    const std::vector<std::string> &WantFeatures,
                    size_t NumClasses, const char *ClassKind) {
  if (Tree.featureNames() != WantFeatures) {
    std::string Want, Got;
    for (const std::string &Name : WantFeatures)
      Want += (Want.empty() ? "" : ",") + Name;
    for (const std::string &Name : Tree.featureNames())
      Got += (Got.empty() ? "" : ",") + Name;
    return Status::invalidArgument("model '" + Path +
                                   "' was trained on features [" + Got +
                                   "], runtime expects [" + Want + "]");
  }
  if (Tree.numClasses() > NumClasses)
    return Status::invalidArgument(
        "model '" + Path + "' predicts " + std::to_string(Tree.numClasses()) +
        " classes, but only " + std::to_string(NumClasses) + " " + ClassKind +
        " exist");
  return Status::okStatus();
}

} // namespace

std::vector<std::string> seer::modelBundleFileNames() {
  return {"seer_known.tree", "seer_gathered.tree", "seer_selector.tree"};
}

Expected<SeerModels>
seer::loadModelBundle(const std::string &Directory,
                      std::vector<std::string> KernelNames) {
  if (Status F = FaultInjector::instance().check(faultsite::BundleLoad);
      !F.ok())
    return F;
  SeerModels Models;
  DecisionTree *const Trees[] = {&Models.Known, &Models.Gathered,
                                 &Models.Selector};
  const std::vector<std::string> Names = modelBundleFileNames();
  for (size_t I = 0; I < Names.size(); ++I) {
    const std::string Path = Directory + "/" + Names[I];
    std::ifstream Stream(Path);
    if (!Stream)
      return Status::notFound("cannot open model file '" + Path + "'");
    std::ostringstream Buffer;
    Buffer << Stream.rdbuf();
    std::string ParseError;
    if (!DecisionTree::parse(Buffer.str(), *Trees[I], &ParseError))
      return Status::invalidArgument("malformed model '" + Path +
                                     "': " + ParseError);
  }
  // Schema validation: a structurally well-formed .tree triple from a
  // stale training run (different feature layout or a bigger kernel zoo)
  // must be rejected typed, not silently mispredict.
  const std::vector<std::string> KnownF = features::knownNames();
  const std::vector<std::string> GatheredF = features::gatheredNames();
  if (Status S = validateTree(Models.Known, Directory + "/" + Names[0],
                              KnownF, KernelNames.size(), "kernels");
      !S.ok())
    return S;
  if (Status S = validateTree(Models.Gathered, Directory + "/" + Names[1],
                              GatheredF, KernelNames.size(), "kernels");
      !S.ok())
    return S;
  if (Status S = validateTree(Models.Selector, Directory + "/" + Names[2],
                              KnownF, /*NumClasses=*/2, "selector routes");
      !S.ok())
    return S;
  Models.KernelNames = std::move(KernelNames);
  return Models;
}

Status seer::storeModelBundle(const SeerModels &Models,
                              const std::string &Directory) {
  if (Status F = FaultInjector::instance().check(faultsite::BundleStore);
      !F.ok())
    return F;
  const DecisionTree *const Trees[] = {&Models.Known, &Models.Gathered,
                                       &Models.Selector};
  const std::vector<std::string> Names = modelBundleFileNames();
  for (size_t I = 0; I < Names.size(); ++I) {
    // Temp-file + rename per member: a crash mid-store leaves either the
    // old complete tree or the new complete tree, never a truncated one a
    // later loadModelBundle would reject.
    const std::string Path = Directory + "/" + Names[I];
    if (Status S = atomicWriteFile(Path, Trees[I]->serialize()); !S.ok())
      return Status::unavailable("cannot write model file '" + Path +
                                 "': " + S.message());
  }
  return Status::okStatus();
}
