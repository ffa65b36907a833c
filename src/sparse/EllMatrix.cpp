//===- sparse/EllMatrix.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "sparse/EllMatrix.h"

#include <cassert>

using namespace seer;

EllMatrix EllMatrix::fromCsr(const CsrMatrix &Csr, uint64_t MaxCells) {
  EllMatrix M;
  M.NumRows = Csr.numRows();
  M.NumCols = Csr.numCols();
  M.Width = Csr.maxRowLength();
  M.Nnz = Csr.nnz();

  const uint64_t Cells = M.paddedCells();
  M.Materialized = Cells <= MaxCells;
  if (M.Materialized) {
    M.PaddedColumns.assign(Cells, PaddingColumn);
    M.PaddedValues.assign(Cells, 0.0);
    for (uint32_t Row = 0; Row < M.NumRows; ++Row) {
      const uint64_t Begin = Csr.rowOffsets()[Row];
      const uint64_t End = Csr.rowOffsets()[Row + 1];
      for (uint64_t K = Begin; K < End; ++K) {
        const uint64_t Slot =
            static_cast<uint64_t>(Row) * M.Width + (K - Begin);
        M.PaddedColumns[Slot] = Csr.columnIndices()[K];
        M.PaddedValues[Slot] = Csr.values()[K];
      }
    }
    return M;
  }
  M.RowOffsets = Csr.rowOffsets();
  M.CompactColumns = Csr.columnIndices();
  M.CompactValues = Csr.values();
  return M;
}

CsrMatrix EllMatrix::toCsr() const {
  assert(verify() && "toCsr on an invalid ELL matrix");
  if (!Materialized)
    // The virtual view *is* the CSR arrays.
    return CsrMatrix::fromArrays(NumRows, NumCols, RowOffsets, CompactColumns,
                                 CompactValues);
  std::vector<uint64_t> Offsets(NumRows + 1, 0);
  std::vector<uint32_t> Columns;
  std::vector<double> Compact;
  Columns.reserve(Nnz);
  Compact.reserve(Nnz);
  for (uint32_t Row = 0; Row < NumRows; ++Row) {
    for (uint32_t K = 0; K < Width; ++K) {
      const uint32_t Col = entryColumn(Row, K);
      if (Col == PaddingColumn)
        break; // Entries are stored densely from slot 0, padding after.
      Columns.push_back(Col);
      Compact.push_back(entryValue(Row, K));
    }
    Offsets[Row + 1] = Columns.size();
  }
  return CsrMatrix::fromArrays(NumRows, NumCols, std::move(Offsets),
                               std::move(Columns), std::move(Compact));
}

uint32_t EllMatrix::rowLength(uint32_t Row) const {
  assert(Row < NumRows && "row out of range");
  if (!Materialized)
    return static_cast<uint32_t>(RowOffsets[Row + 1] - RowOffsets[Row]);
  uint32_t Length = 0;
  const uint64_t Base = static_cast<uint64_t>(Row) * Width;
  while (Length < Width && PaddedColumns[Base + Length] != PaddingColumn)
    ++Length;
  return Length;
}

uint32_t EllMatrix::entryColumn(uint32_t Row, uint32_t K) const {
  assert(Row < NumRows && "row out of range");
  assert(K < Width && "slot out of range");
  if (Materialized)
    return PaddedColumns[static_cast<uint64_t>(Row) * Width + K];
  const uint64_t Begin = RowOffsets[Row];
  if (Begin + K < RowOffsets[Row + 1])
    return CompactColumns[Begin + K];
  return PaddingColumn;
}

double EllMatrix::entryValue(uint32_t Row, uint32_t K) const {
  assert(Row < NumRows && "row out of range");
  assert(K < Width && "slot out of range");
  if (Materialized)
    return PaddedValues[static_cast<uint64_t>(Row) * Width + K];
  const uint64_t Begin = RowOffsets[Row];
  if (Begin + K < RowOffsets[Row + 1])
    return CompactValues[Begin + K];
  return 0.0;
}

std::vector<double> EllMatrix::multiply(const std::vector<double> &X) const {
  assert(X.size() == NumCols && "operand size mismatch");
  std::vector<double> Y(NumRows);
  for (uint32_t Row = 0; Row < NumRows; ++Row) {
    // A row's slots: its padded slab, or its compact CSR row in the
    // virtual view (same entries, same order, no padding).
    const uint64_t Begin =
        Materialized ? static_cast<uint64_t>(Row) * Width : RowOffsets[Row];
    const uint64_t Slots = Materialized ? Width : RowOffsets[Row + 1] - Begin;
    const uint32_t *Cols =
        (Materialized ? PaddedColumns.data() : CompactColumns.data()) + Begin;
    const double *Vals =
        (Materialized ? PaddedValues.data() : CompactValues.data()) + Begin;
    double Sum = 0.0;
    // Entries are stored densely from slot 0, padding after.
    for (uint64_t K = 0; K < Slots && Cols[K] != PaddingColumn; ++K)
      Sum += Vals[K] * X[Cols[K]];
    Y[Row] = Sum;
  }
  return Y;
}

bool EllMatrix::verify(std::string *Why) const {
  const auto Fail = [&](const std::string &Message) {
    if (Why)
      *Why = Message;
    return false;
  };
  uint64_t CountedNnz = 0;
  for (uint32_t Row = 0; Row < NumRows; ++Row) {
    bool SeenPadding = false;
    for (uint32_t K = 0; K < Width; ++K) {
      const uint32_t Col = entryColumn(Row, K);
      if (Col == PaddingColumn) {
        SeenPadding = true;
        continue;
      }
      if (SeenPadding)
        return Fail("real entry after padding in row " + std::to_string(Row));
      if (Col >= NumCols)
        return Fail("column index out of range in row " + std::to_string(Row));
      ++CountedNnz;
    }
  }
  if (CountedNnz != Nnz)
    return Fail("stored nnz does not match entry count");
  return true;
}
