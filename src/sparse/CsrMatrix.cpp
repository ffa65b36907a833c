//===- sparse/CsrMatrix.cpp ------------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "sparse/CsrMatrix.h"

#include <algorithm>
#include <utility>

using namespace seer;

CsrMatrix CsrMatrix::fromTriplets(uint32_t NumRows, uint32_t NumCols,
                                  std::vector<Triplet> Entries) {
  for ([[maybe_unused]] const Triplet &Entry : Entries) {
    assert(Entry.Row < NumRows && "triplet row out of range");
    assert(Entry.Col < NumCols && "triplet col out of range");
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const Triplet &A, const Triplet &B) {
              if (A.Row != B.Row)
                return A.Row < B.Row;
              return A.Col < B.Col;
            });

  CsrMatrix M;
  M.NumRows = NumRows;
  M.NumCols = NumCols;
  M.RowOffsets.assign(NumRows + 1, 0);
  M.ColumnIndices.reserve(Entries.size());
  M.Values.reserve(Entries.size());

  for (size_t I = 0; I < Entries.size();) {
    const uint32_t Row = Entries[I].Row;
    const uint32_t Col = Entries[I].Col;
    double Sum = 0.0;
    // Coalesce duplicates by summation (Matrix Market convention).
    while (I < Entries.size() && Entries[I].Row == Row &&
           Entries[I].Col == Col) {
      Sum += Entries[I].Value;
      ++I;
    }
    M.ColumnIndices.push_back(Col);
    M.Values.push_back(Sum);
    M.RowOffsets[Row + 1] = M.ColumnIndices.size();
  }
  // Forward-fill offsets for empty rows.
  for (uint32_t Row = 0; Row < NumRows; ++Row)
    M.RowOffsets[Row + 1] = std::max(M.RowOffsets[Row + 1], M.RowOffsets[Row]);
  return M;
}

CsrMatrix::CsrMatrix(uint32_t NumRows, uint32_t NumCols,
                     std::vector<uint64_t> RowOffsets,
                     std::vector<uint32_t> ColumnIndices,
                     std::vector<double> Values)
    : NumRows(NumRows), NumCols(NumCols), RowOffsets(std::move(RowOffsets)),
      ColumnIndices(std::move(ColumnIndices)), Values(std::move(Values)) {}

CsrMatrix CsrMatrix::fromArrays(uint32_t NumRows, uint32_t NumCols,
                                std::vector<uint64_t> RowOffsets,
                                std::vector<uint32_t> ColumnIndices,
                                std::vector<double> Values) {
  CsrMatrix M(NumRows, NumCols, std::move(RowOffsets),
              std::move(ColumnIndices), std::move(Values));
#ifndef NDEBUG
  std::string Why;
  assert(M.verify(&Why) && "fromArrays: invalid CSR structure");
#endif
  return M;
}

Expected<CsrMatrix> CsrMatrix::fromUntrustedArrays(
    uint32_t NumRows, uint32_t NumCols, std::vector<uint64_t> RowOffsets,
    std::vector<uint32_t> ColumnIndices, std::vector<double> Values) {
  CsrMatrix M(NumRows, NumCols, std::move(RowOffsets),
              std::move(ColumnIndices), std::move(Values));
  std::string Why;
  if (!M.verify(&Why))
    return Status::invalidArgument("invalid CSR structure: " + Why);
  return M;
}

uint32_t CsrMatrix::maxRowLength() const {
  uint32_t Max = 0;
  for (uint32_t Row = 0; Row < NumRows; ++Row)
    Max = std::max(Max, rowLength(Row));
  return Max;
}

std::vector<double> CsrMatrix::multiply(const std::vector<double> &X) const {
  assert(X.size() == NumCols && "operand size mismatch");
  std::vector<double> Y(NumRows, 0.0);
  for (uint32_t Row = 0; Row < NumRows; ++Row) {
    double Sum = 0.0;
    for (uint64_t K = RowOffsets[Row], E = RowOffsets[Row + 1]; K < E; ++K)
      Sum += Values[K] * X[ColumnIndices[K]];
    Y[Row] = Sum;
  }
  return Y;
}

bool CsrMatrix::verify(std::string *Why) const {
  const auto Fail = [&](const std::string &Message) {
    if (Why)
      *Why = Message;
    return false;
  };
  if (RowOffsets.size() != static_cast<size_t>(NumRows) + 1)
    return Fail("row offsets array has wrong length");
  if (RowOffsets.front() != 0)
    return Fail("row offsets must start at 0");
  if (RowOffsets.back() != ColumnIndices.size())
    return Fail("last row offset must equal nnz");
  if (ColumnIndices.size() != Values.size())
    return Fail("column/value arrays differ in length");
  // Every offset first: monotone offsets from 0 to nnz keep the column
  // scan below inside the column array.
  for (uint32_t Row = 0; Row < NumRows; ++Row)
    if (RowOffsets[Row] > RowOffsets[Row + 1])
      return Fail("row offsets not monotone at row " + std::to_string(Row));
  for (uint32_t Row = 0; Row < NumRows; ++Row) {
    for (uint64_t K = RowOffsets[Row]; K < RowOffsets[Row + 1]; ++K) {
      if (ColumnIndices[K] >= NumCols)
        return Fail("column index out of range at entry " + std::to_string(K));
      if (K > RowOffsets[Row] && ColumnIndices[K - 1] >= ColumnIndices[K])
        return Fail("column indices not strictly increasing in row " +
                    std::to_string(Row));
    }
  }
  return true;
}
