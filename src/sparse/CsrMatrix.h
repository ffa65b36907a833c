//===- sparse/CsrMatrix.h - Compressed Sparse Row matrices ---------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed Sparse Row storage, the baseline format for every load
/// balancing schedule in Table II of the paper. CSR keeps one offsets array
/// of size rows+1 plus parallel column/value arrays; all other formats in
/// this repository are converted from CSR.
///
//===----------------------------------------------------------------------===//

#ifndef SEER_SPARSE_CSRMATRIX_H
#define SEER_SPARSE_CSRMATRIX_H

#include "api/Status.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace seer {

/// One explicit (row, col, value) entry, used when assembling matrices.
struct Triplet {
  uint32_t Row = 0;
  uint32_t Col = 0;
  double Value = 0.0;
};

/// A sparse matrix in Compressed Sparse Row form.
///
/// Invariants (checked by verify()):
///  - RowOffsets.size() == NumRows + 1, RowOffsets.front() == 0,
///    RowOffsets.back() == nnz(), offsets non-decreasing;
///  - ColumnIndices and Values have nnz() elements;
///  - every column index is < NumCols;
///  - column indices are strictly increasing within a row.
class CsrMatrix {
public:
  CsrMatrix() = default;

  /// Builds a CSR matrix from triplets. Duplicate (row, col) entries are
  /// summed; columns are sorted within each row. Entries must satisfy
  /// Row < NumRows and Col < NumCols (asserted).
  static CsrMatrix fromTriplets(uint32_t NumRows, uint32_t NumCols,
                                std::vector<Triplet> Entries);

  /// Adopts prebuilt arrays. Asserts structural validity in debug builds.
  static CsrMatrix fromArrays(uint32_t NumRows, uint32_t NumCols,
                              std::vector<uint64_t> RowOffsets,
                              std::vector<uint32_t> ColumnIndices,
                              std::vector<double> Values);

  /// Adopts arrays from outside the program: validates them once with
  /// verify(), in every build, and returns INVALID_ARGUMENT naming the
  /// first violated invariant instead of a matrix.
  static Expected<CsrMatrix> fromUntrustedArrays(
      uint32_t NumRows, uint32_t NumCols, std::vector<uint64_t> RowOffsets,
      std::vector<uint32_t> ColumnIndices, std::vector<double> Values);

  uint32_t numRows() const { return NumRows; }
  uint32_t numCols() const { return NumCols; }
  uint64_t nnz() const { return ColumnIndices.size(); }

  /// Number of stored entries in row \p Row.
  uint32_t rowLength(uint32_t Row) const {
    assert(Row < NumRows && "row out of range");
    return static_cast<uint32_t>(RowOffsets[Row + 1] - RowOffsets[Row]);
  }

  const std::vector<uint64_t> &rowOffsets() const { return RowOffsets; }
  const std::vector<uint32_t> &columnIndices() const { return ColumnIndices; }
  const std::vector<double> &values() const { return Values; }

  /// Longest row; 0 for an empty matrix.
  uint32_t maxRowLength() const;

  /// Reference sequential y = A * x. \p X must have numCols() elements; the
  /// result has numRows() elements. This is the ground truth against which
  /// every GPU kernel variant's host computation is checked.
  std::vector<double> multiply(const std::vector<double> &X) const;

  /// Full structural validation (also in release builds); returns false and
  /// fills \p Why on the first violated invariant.
  bool verify(std::string *Why = nullptr) const;

  /// True when the matrix stores no entries.
  bool empty() const { return ColumnIndices.empty(); }

private:
  /// Adopts the arrays as given; the factories above check them.
  CsrMatrix(uint32_t NumRows, uint32_t NumCols,
            std::vector<uint64_t> RowOffsets,
            std::vector<uint32_t> ColumnIndices, std::vector<double> Values);

  uint32_t NumRows = 0;
  uint32_t NumCols = 0;
  std::vector<uint64_t> RowOffsets = {0};
  std::vector<uint32_t> ColumnIndices;
  std::vector<double> Values;
};

} // namespace seer

#endif // SEER_SPARSE_CSRMATRIX_H
