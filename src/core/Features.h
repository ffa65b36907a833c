//===- core/Features.h - Feature-vector layouts of the model triple -------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The feature-vector layouts shared by training, runtime inference and
/// the CSV interchange files. This is the single source of truth for the
/// schema: the Benchmarker derives its features.csv columns from these
/// names and the trainer builds its datasets from the same lists, so the
/// two can never drift apart.
///
/// Layouts (paper Section IV-A):
///   known:    [rows, cols, nnz, iterations]
///   gathered: known + [max, min, mean, var row density]
///
/// `iterations` is a train-time replication axis (Section IV-E), not a
/// matrix property, so the CSV schema is the gathered list minus
/// `iterations` plus the collection-cost column.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_CORE_FEATURES_H
#define SEER_CORE_FEATURES_H

#include "sparse/MatrixStats.h"

#include <string>
#include <vector>

namespace seer {
namespace features {

/// Fixed arities of the two layouts, so hot paths can use stack scratch
/// instead of a heap vector. knownNames().size() and
/// gatheredNames().size() equal these by construction (feature_test
/// asserts it).
inline constexpr size_t KnownArity = 4;
inline constexpr size_t GatheredArity = 8;

/// Known layout: [rows, cols, nnz, iterations].
std::vector<std::string> knownNames();
std::vector<double> knownVector(const KnownFeatures &Known, double Iterations);

/// Fills \p Out (>= KnownArity doubles) with the known layout without
/// allocating — the compiled select path's feature scratch writer.
void knownVectorInto(const KnownFeatures &Known, double Iterations,
                     double *Out);

/// Gathered layout: known + [max, min, mean, var row density].
std::vector<std::string> gatheredNames();
std::vector<double> gatheredVector(const KnownFeatures &Known,
                                   const GatheredFeatures &Gathered,
                                   double Iterations);

/// Fills \p Out (>= GatheredArity doubles) with the gathered layout
/// without allocating.
void gatheredVectorInto(const KnownFeatures &Known,
                        const GatheredFeatures &Gathered, double Iterations,
                        double *Out);

/// Columns of features.csv: "name", the gathered names minus the
/// train-time-only "iterations", then "collection_ms".
std::vector<std::string> featureCsvColumns();

} // namespace features
} // namespace seer

#endif // SEER_CORE_FEATURES_H
