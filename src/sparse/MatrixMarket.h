//===- sparse/MatrixMarket.h - Matrix Market (.mtx) I/O ------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader/writer for the NIST Matrix Market exchange format, the format the
/// SuiteSparse Matrix Collection distributes. The paper benchmarks over
/// SuiteSparse; this repository generates a synthetic stand-in collection,
/// but users with real .mtx files can load them through this module and run
/// the identical pipeline (see examples/quickstart.cpp).
///
/// Supported: `matrix coordinate (real|integer|pattern) (general|symmetric|
/// skew-symmetric)`. Pattern entries get value 1.0; symmetric inputs are
/// expanded to general storage. Complex matrices and dense (`array`)
/// storage are rejected with a diagnostic, as is a coordinate-line count
/// that differs from the size line's declaration in either direction.
/// The writer emits values at max_digits10 so a write -> parse round trip
/// is bit-exact (and hence fingerprint-stable in the serving layer).
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SPARSE_MATRIXMARKET_H
#define SEER_SPARSE_MATRIXMARKET_H

#include "api/Status.h"
#include "sparse/CsrMatrix.h"

#include <string>

namespace seer {

/// Parses Matrix Market text into CSR. Malformed input is
/// INVALID_ARGUMENT with a line-numbered diagnostic.
Expected<CsrMatrix> parseMatrixMarket(const std::string &Text);

/// Reads a .mtx file: NOT_FOUND when the file cannot be opened,
/// INVALID_ARGUMENT when its contents do not parse.
Expected<CsrMatrix> readMatrixMarketFile(const std::string &Path);

/// Serializes \p M as `matrix coordinate real general` text.
std::string writeMatrixMarket(const CsrMatrix &M);

/// Writes \p M to \p Path; UNAVAILABLE on I/O failure.
Status writeMatrixMarketFile(const CsrMatrix &M, const std::string &Path);

} // namespace seer

#endif // SEER_SPARSE_MATRIXMARKET_H
