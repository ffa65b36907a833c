//===- core/Features.cpp ---------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "core/Features.h"

using namespace seer;

std::vector<std::string> features::knownNames() {
  return {"rows", "cols", "nnz", "iterations"};
}

std::vector<double> features::knownVector(const KnownFeatures &Known,
                                          double Iterations) {
  std::vector<double> Out(KnownArity);
  knownVectorInto(Known, Iterations, Out.data());
  return Out;
}

// seer-hot-begin(features-vector-into): tools/seer_lint.py forbids heap
// allocation and unordered-container iteration inside this region — the
// *Into forms exist precisely so the serve hot path can fill stack
// scratch without touching the heap.
void features::knownVectorInto(const KnownFeatures &Known, double Iterations,
                               double *Out) {
  Out[0] = static_cast<double>(Known.NumRows);
  Out[1] = static_cast<double>(Known.NumCols);
  Out[2] = static_cast<double>(Known.Nnz);
  Out[3] = Iterations;
}
// seer-hot-end(features-vector-into)

std::vector<std::string> features::gatheredNames() {
  return {"rows",        "cols",        "nnz",          "iterations",
          "max_density", "min_density", "mean_density", "var_density"};
}

std::vector<double> features::gatheredVector(const KnownFeatures &Known,
                                             const GatheredFeatures &Gathered,
                                             double Iterations) {
  std::vector<double> Out(GatheredArity);
  gatheredVectorInto(Known, Gathered, Iterations, Out.data());
  return Out;
}

// seer-hot-begin(features-gathered-into): same zero-allocation contract as
// features-vector-into above.
void features::gatheredVectorInto(const KnownFeatures &Known,
                                  const GatheredFeatures &Gathered,
                                  double Iterations, double *Out) {
  knownVectorInto(Known, Iterations, Out);
  Out[KnownArity + 0] = Gathered.MaxRowDensity;
  Out[KnownArity + 1] = Gathered.MinRowDensity;
  Out[KnownArity + 2] = Gathered.MeanRowDensity;
  Out[KnownArity + 3] = Gathered.VarRowDensity;
}
// seer-hot-end(features-gathered-into)

std::vector<std::string> features::featureCsvColumns() {
  std::vector<std::string> Columns = {"name"};
  for (const std::string &Name : gatheredNames())
    if (Name != "iterations")
      Columns.push_back(Name);
  Columns.push_back("collection_ms");
  return Columns;
}
