//===- tests/sparse_test.cpp - Unit tests for src/sparse ------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "serve/FingerprintCache.h"
#include "sparse/Collection.h"
#include "sparse/CooMatrix.h"
#include "sparse/CsrMatrix.h"
#include "sparse/EllMatrix.h"
#include "sparse/Generators.h"
#include "sparse/MatrixMarket.h"
#include "sparse/MatrixStats.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace seer;

namespace {

/// 3x4 example used across format tests:
///   [ 1 0 2 0 ]
///   [ 0 0 0 0 ]
///   [ 3 4 0 5 ]
CsrMatrix exampleMatrix() {
  return CsrMatrix::fromTriplets(
      3, 4,
      {{0, 0, 1.0}, {0, 2, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}, {2, 3, 5.0}});
}

} // namespace

//===----------------------------------------------------------------------===//
// CsrMatrix
//===----------------------------------------------------------------------===//

TEST(CsrMatrixTest, FromTripletsBasicStructure) {
  const CsrMatrix M = exampleMatrix();
  EXPECT_EQ(M.numRows(), 3u);
  EXPECT_EQ(M.numCols(), 4u);
  EXPECT_EQ(M.nnz(), 5u);
  EXPECT_EQ(M.rowLength(0), 2u);
  EXPECT_EQ(M.rowLength(1), 0u);
  EXPECT_EQ(M.rowLength(2), 3u);
  EXPECT_EQ(M.maxRowLength(), 3u);
  std::string Why;
  EXPECT_TRUE(M.verify(&Why)) << Why;
}

TEST(CsrMatrixTest, FromTripletsSortsColumns) {
  const CsrMatrix M = CsrMatrix::fromTriplets(
      1, 5, {{0, 4, 1.0}, {0, 0, 2.0}, {0, 2, 3.0}});
  EXPECT_EQ(M.columnIndices()[0], 0u);
  EXPECT_EQ(M.columnIndices()[1], 2u);
  EXPECT_EQ(M.columnIndices()[2], 4u);
}

TEST(CsrMatrixTest, DuplicateTripletsAreSummed) {
  const CsrMatrix M =
      CsrMatrix::fromTriplets(1, 2, {{0, 1, 2.0}, {0, 1, 3.0}});
  EXPECT_EQ(M.nnz(), 1u);
  EXPECT_DOUBLE_EQ(M.values()[0], 5.0);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  const CsrMatrix M = CsrMatrix::fromTriplets(2, 2, {});
  EXPECT_EQ(M.nnz(), 0u);
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.maxRowLength(), 0u);
  EXPECT_TRUE(M.verify());
  const auto Y = M.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(Y[0], 0.0);
  EXPECT_DOUBLE_EQ(Y[1], 0.0);
}

TEST(CsrMatrixTest, MultiplyReference) {
  const CsrMatrix M = exampleMatrix();
  const auto Y = M.multiply({1.0, 2.0, 3.0, 4.0});
  ASSERT_EQ(Y.size(), 3u);
  EXPECT_DOUBLE_EQ(Y[0], 1.0 * 1 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(Y[1], 0.0);
  EXPECT_DOUBLE_EQ(Y[2], 3.0 * 1 + 4.0 * 2 + 5.0 * 4);
}

TEST(CsrMatrixTest, VerifyCatchesBadOffsets) {
  CsrMatrix Good = exampleMatrix();
  std::string Why;
  EXPECT_TRUE(Good.verify(&Why));
  const auto Adopted = CsrMatrix::fromUntrustedArrays(
      3, 4, Good.rowOffsets(), Good.columnIndices(), Good.values());
  ASSERT_TRUE(Adopted.ok()) << Adopted.status().toString();
  EXPECT_EQ(Adopted->rowOffsets(), Good.rowOffsets());

  // Each structure violates one invariant; fromUntrustedArrays names it.
  struct Bad {
    uint32_t Rows, Cols;
    std::vector<uint64_t> Offsets;
    std::vector<uint32_t> Columns;
    const char *Why;
  };
  const Bad Cases[] = {
      {2, 4, {0, 1}, {0}, "wrong length"},
      {1, 4, {1, 1}, {0}, "start at 0"},
      {1, 4, {0, 2}, {0}, "equal nnz"},
      // Offsets that rise past nnz and fall back: caught before any
      // column is read, so the scan never leaves the column array.
      {2, 4, {0, 100, 3}, {0, 1, 2}, "not monotone at row 1"},
      {1, 4, {0, 2}, {0, 4}, "column index out of range at entry 1"},
      {1, 4, {0, 2}, {2, 0}, "not strictly increasing in row 0"},
      {1, 4, {0, 2}, {1, 1}, "not strictly increasing in row 0"},
  };
  for (const Bad &Case : Cases) {
    const auto M = CsrMatrix::fromUntrustedArrays(
        Case.Rows, Case.Cols, Case.Offsets, Case.Columns,
        std::vector<double>(Case.Columns.size(), 1.0));
    ASSERT_FALSE(M.ok()) << Case.Why;
    EXPECT_EQ(M.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(M.status().message().find(Case.Why), std::string::npos)
        << M.status().toString();
  }
}

//===----------------------------------------------------------------------===//
// CooMatrix
//===----------------------------------------------------------------------===//

TEST(CooMatrixTest, FromCsrSortedAndComplete) {
  const CsrMatrix Csr = exampleMatrix();
  const CooMatrix Coo = CooMatrix::fromCsr(Csr);
  EXPECT_EQ(Coo.nnz(), Csr.nnz());
  std::string Why;
  EXPECT_TRUE(Coo.verify(&Why)) << Why;
  EXPECT_EQ(Coo.rowIndices().front(), 0u);
  EXPECT_EQ(Coo.rowIndices().back(), 2u);
}

TEST(CooMatrixTest, MultiplyMatchesCsr) {
  const CsrMatrix Csr = genUniformRandom(50, 40, 6.0, 0.3, 99);
  const CooMatrix Coo = CooMatrix::fromCsr(Csr);
  std::vector<double> X(40);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = std::sin(static_cast<double>(I));
  const auto YC = Csr.multiply(X);
  const auto YO = Coo.multiply(X);
  for (size_t I = 0; I < YC.size(); ++I)
    EXPECT_NEAR(YC[I], YO[I], 1e-12);
}

//===----------------------------------------------------------------------===//
// EllMatrix
//===----------------------------------------------------------------------===//

TEST(EllMatrixTest, MaterializedStructure) {
  const CsrMatrix Csr = exampleMatrix();
  const EllMatrix Ell = EllMatrix::fromCsr(Csr);
  EXPECT_TRUE(Ell.isMaterialized());
  EXPECT_EQ(Ell.width(), 3u);
  EXPECT_EQ(Ell.paddedCells(), 9u);
  EXPECT_EQ(Ell.nnz(), 5u);
  EXPECT_EQ(Ell.rowLength(1), 0u);
  EXPECT_EQ(Ell.entryColumn(0, 0), 0u);
  EXPECT_EQ(Ell.entryColumn(0, 2), EllMatrix::PaddingColumn);
  EXPECT_DOUBLE_EQ(Ell.entryValue(2, 1), 4.0);
  std::string Why;
  EXPECT_TRUE(Ell.verify(&Why)) << Why;
}

TEST(EllMatrixTest, VirtualFallbackAboveBudget) {
  const CsrMatrix Csr = genDenseRowOutlier(256, 256, 2.0, 1, 200, 7);
  // Force the virtual path with a tiny budget.
  const EllMatrix Ell = EllMatrix::fromCsr(Csr, /*MaxCells=*/64);
  EXPECT_FALSE(Ell.isMaterialized());
  EXPECT_EQ(Ell.nnz(), Csr.nnz());
  std::string Why;
  EXPECT_TRUE(Ell.verify(&Why)) << Why;

  // Virtual and materialized views must agree entry-by-entry.
  const EllMatrix Full = EllMatrix::fromCsr(Csr);
  ASSERT_TRUE(Full.isMaterialized());
  ASSERT_EQ(Full.width(), Ell.width());
  for (uint32_t Row = 0; Row < Csr.numRows(); Row += 17) {
    for (uint32_t K = 0; K < Ell.width(); K += 13) {
      EXPECT_EQ(Ell.entryColumn(Row, K), Full.entryColumn(Row, K));
      EXPECT_DOUBLE_EQ(Ell.entryValue(Row, K), Full.entryValue(Row, K));
    }
  }
}

TEST(EllMatrixTest, MultiplyMatchesCsrBothRepresentations) {
  const CsrMatrix Csr = genPowerLaw(100, 80, 1.5, 1, 30, 21);
  std::vector<double> X(80);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = 0.1 * static_cast<double>(I % 7) - 0.3;
  const auto Reference = Csr.multiply(X);

  for (uint64_t Budget : {uint64_t(1) << 26, uint64_t(8)}) {
    const EllMatrix Ell = EllMatrix::fromCsr(Csr, Budget);
    const auto Y = Ell.multiply(X);
    ASSERT_EQ(Y.size(), Reference.size());
    for (size_t I = 0; I < Y.size(); ++I)
      EXPECT_NEAR(Y[I], Reference[I], 1e-12);
  }
}

//===----------------------------------------------------------------------===//
// MatrixStats
//===----------------------------------------------------------------------===//

TEST(MatrixStatsTest, KnownFeatures) {
  const MatrixStats S = computeMatrixStats(exampleMatrix());
  EXPECT_EQ(S.Known.NumRows, 3u);
  EXPECT_EQ(S.Known.NumCols, 4u);
  EXPECT_EQ(S.Known.Nnz, 5u);
}

TEST(MatrixStatsTest, RowLengthAndDensity) {
  const MatrixStats S = computeMatrixStats(exampleMatrix());
  EXPECT_EQ(S.MaxRowLength, 3u);
  EXPECT_EQ(S.MinRowLength, 0u);
  EXPECT_NEAR(S.MeanRowLength, 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(S.Gathered.MaxRowDensity, 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(S.Gathered.MinRowDensity, 0.0, 1e-12);
  EXPECT_NEAR(S.Gathered.MeanRowDensity, 5.0 / 12.0, 1e-12);
  // Var(lengths)/cols^2 == Var(densities).
  EXPECT_NEAR(S.Gathered.VarRowDensity, S.VarRowLength / 16.0, 1e-12);
}

TEST(MatrixStatsTest, DiagonalHasZeroVariance) {
  const MatrixStats S = computeMatrixStats(genDiagonal(64, 3));
  EXPECT_DOUBLE_EQ(S.VarRowLength, 0.0);
  EXPECT_DOUBLE_EQ(S.Gathered.VarRowDensity, 0.0);
  EXPECT_DOUBLE_EQ(S.MeanBandwidth, 0.0); // all entries on the diagonal
}

TEST(MatrixStatsTest, BandedHasSmallBandwidth) {
  const MatrixStats Banded = computeMatrixStats(genBanded(500, 3, 1.0, 5));
  const MatrixStats Random =
      computeMatrixStats(genUniformRandom(500, 500, 7.0, 0.1, 5));
  EXPECT_LT(Banded.MeanBandwidth, 4.0);
  EXPECT_GT(Random.MeanBandwidth, 50.0);
  EXPECT_LT(Banded.MeanColumnGap, Random.MeanColumnGap);
}

TEST(MatrixStatsTest, EmptyMatrix) {
  const MatrixStats S = computeMatrixStats(CsrMatrix());
  EXPECT_EQ(S.Known.NumRows, 0u);
  EXPECT_EQ(S.Known.Nnz, 0u);
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(GeneratorsTest, BandedShape) {
  const CsrMatrix M = genBanded(200, 4, 1.0, 11);
  EXPECT_TRUE(M.verify());
  EXPECT_EQ(M.numRows(), 200u);
  // Interior rows have the full band of 9 entries.
  EXPECT_EQ(M.rowLength(100), 9u);
  // The diagonal is always present.
  for (uint32_t Row = 0; Row < 200; ++Row) {
    bool HasDiagonal = false;
    for (uint64_t K = M.rowOffsets()[Row]; K < M.rowOffsets()[Row + 1]; ++K)
      HasDiagonal |= M.columnIndices()[K] == Row;
    EXPECT_TRUE(HasDiagonal) << "row " << Row;
  }
}

TEST(GeneratorsTest, BandedRespectsBand) {
  const CsrMatrix M = genBanded(100, 5, 0.8, 12);
  for (uint32_t Row = 0; Row < 100; ++Row)
    for (uint64_t K = M.rowOffsets()[Row]; K < M.rowOffsets()[Row + 1]; ++K)
      EXPECT_LE(std::abs(static_cast<int64_t>(M.columnIndices()[K]) -
                         static_cast<int64_t>(Row)),
                5);
}

TEST(GeneratorsTest, UniformRandomMeanLength) {
  const CsrMatrix M = genUniformRandom(2000, 2000, 12.0, 0.2, 13);
  EXPECT_TRUE(M.verify());
  const double MeanLen = static_cast<double>(M.nnz()) / M.numRows();
  EXPECT_NEAR(MeanLen, 12.0, 1.0);
}

TEST(GeneratorsTest, PowerLawIsSkewed) {
  const CsrMatrix M = genPowerLaw(2000, 2000, 1.4, 1, 500, 17);
  EXPECT_TRUE(M.verify());
  const MatrixStats S = computeMatrixStats(M);
  // Heavy tail: max is much larger than the mean.
  EXPECT_GT(S.MaxRowLength, 10 * S.MeanRowLength);
  EXPECT_GE(S.MinRowLength, 1u);
}

TEST(GeneratorsTest, BlockDiagonalConfinesColumns) {
  const CsrMatrix M = genBlockDiagonal(128, 16, 0.5, 19);
  EXPECT_TRUE(M.verify());
  for (uint32_t Row = 0; Row < 128; ++Row) {
    const uint32_t Block = Row / 16;
    for (uint64_t K = M.rowOffsets()[Row]; K < M.rowOffsets()[Row + 1]; ++K) {
      EXPECT_GE(M.columnIndices()[K], Block * 16);
      EXPECT_LT(M.columnIndices()[K], (Block + 1) * 16);
    }
  }
}

TEST(GeneratorsTest, DiagonalIsExactlyDiagonal) {
  const CsrMatrix M = genDiagonal(50, 23);
  EXPECT_EQ(M.nnz(), 50u);
  for (uint32_t Row = 0; Row < 50; ++Row) {
    EXPECT_EQ(M.rowLength(Row), 1u);
    EXPECT_EQ(M.columnIndices()[M.rowOffsets()[Row]], Row);
  }
}

TEST(GeneratorsTest, RmatSizeAndSkew) {
  const CsrMatrix M = genRmat(10, 8, 29);
  EXPECT_EQ(M.numRows(), 1024u);
  EXPECT_TRUE(M.verify());
  // Duplicates get merged, so nnz <= edges.
  EXPECT_LE(M.nnz(), 8192u);
  EXPECT_GT(M.nnz(), 4000u);
  const MatrixStats S = computeMatrixStats(M);
  EXPECT_GT(S.VarRowLength, 1.0); // skewed by construction
}

TEST(GeneratorsTest, DenseRowOutlierHasOutliers) {
  const CsrMatrix M = genDenseRowOutlier(1000, 1000, 4.0, 3, 400, 31);
  EXPECT_TRUE(M.verify());
  const MatrixStats S = computeMatrixStats(M);
  EXPECT_EQ(S.MaxRowLength, 400u);
  EXPECT_LT(S.MeanRowLength, 10.0);
}

TEST(GeneratorsTest, ConstantRowIsConstant) {
  const CsrMatrix M = genConstantRowRandom(300, 300, 9, 37);
  EXPECT_TRUE(M.verify());
  for (uint32_t Row = 0; Row < 300; ++Row)
    EXPECT_EQ(M.rowLength(Row), 9u);
}

TEST(GeneratorsTest, SameSeedSameMatrix) {
  const CsrMatrix A = genPowerLaw(100, 100, 1.5, 1, 50, 41);
  const CsrMatrix B = genPowerLaw(100, 100, 1.5, 1, 50, 41);
  ASSERT_EQ(A.nnz(), B.nnz());
  EXPECT_EQ(A.columnIndices(), B.columnIndices());
  EXPECT_EQ(A.values(), B.values());
}

TEST(GeneratorsTest, DifferentSeedDifferentMatrix) {
  const CsrMatrix A = genPowerLaw(100, 100, 1.5, 1, 50, 41);
  const CsrMatrix B = genPowerLaw(100, 100, 1.5, 1, 50, 42);
  EXPECT_NE(A.columnIndices(), B.columnIndices());
}

//===----------------------------------------------------------------------===//
// MatrixMarket
//===----------------------------------------------------------------------===//

TEST(MatrixMarketTest, RoundTrip) {
  const CsrMatrix M = exampleMatrix();
  const auto Parsed = parseMatrixMarket(writeMatrixMarket(M));
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().message();
  EXPECT_EQ(Parsed->numRows(), M.numRows());
  EXPECT_EQ(Parsed->nnz(), M.nnz());
  EXPECT_EQ(Parsed->columnIndices(), M.columnIndices());
  EXPECT_EQ(Parsed->values(), M.values());
}

TEST(MatrixMarketTest, PatternEntriesGetUnitValues) {
  const std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                           "2 2 2\n1 1\n2 2\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok()) << M.status().message();
  EXPECT_DOUBLE_EQ(M->values()[0], 1.0);
  EXPECT_DOUBLE_EQ(M->values()[1], 1.0);
}

TEST(MatrixMarketTest, SymmetricExpansion) {
  const std::string Text = "%%MatrixMarket matrix coordinate real symmetric\n"
                           "3 3 2\n2 1 5.0\n3 3 7.0\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok()) << M.status().message();
  EXPECT_EQ(M->nnz(), 3u); // (2,1), (1,2), (3,3)
  const auto Y = M->multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(Y[0], 5.0);
  EXPECT_DOUBLE_EQ(Y[1], 5.0);
  EXPECT_DOUBLE_EQ(Y[2], 7.0);
}

TEST(MatrixMarketTest, SkewSymmetricNegation) {
  const std::string Text =
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n2 1 3.0\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok());
  EXPECT_EQ(M->nnz(), 2u);
  const auto Y = M->multiply({1.0, 0.0});
  EXPECT_DOUBLE_EQ(Y[1], 3.0);
  const auto Y2 = M->multiply({0.0, 1.0});
  EXPECT_DOUBLE_EQ(Y2[0], -3.0);
}

TEST(MatrixMarketTest, CommentsAreSkipped) {
  const std::string Text = "%%MatrixMarket matrix coordinate real general\n"
                           "% a comment\n"
                           "2 2 1\n"
                           "% another\n"
                           "1 2 4.5\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok());
  EXPECT_EQ(M->nnz(), 1u);
}

TEST(MatrixMarketTest, RejectsMalformedBanner) {
  const auto M = parseMatrixMarket("%%NotMM\n1 1 0\n");
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), StatusCode::InvalidArgument);
}

TEST(MatrixMarketTest, RejectsArrayFormat) {
  const auto M =
      parseMatrixMarket("%%MatrixMarket matrix array real general\n");
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.status().message().find("coordinate"), std::string::npos);
}

TEST(MatrixMarketTest, RejectsComplexField) {
  EXPECT_FALSE(
      parseMatrixMarket(
          "%%MatrixMarket matrix coordinate complex general\n1 1 1\n")
          .ok());
}

TEST(MatrixMarketTest, RejectsOutOfBoundsIndex) {
  EXPECT_FALSE(parseMatrixMarket("%%MatrixMarket matrix coordinate real "
                                 "general\n2 2 1\n3 1 1.0\n")
                   .ok());
}

TEST(MatrixMarketTest, FileRoundTrip) {
  const CsrMatrix M = genUniformRandom(20, 20, 3.0, 0.2, 55);
  const std::string Path = testing::TempDir() + "/seer_mm_test.mtx";
  ASSERT_TRUE(writeMatrixMarketFile(M, Path).ok());
  const auto Read = readMatrixMarketFile(Path);
  ASSERT_TRUE(Read.ok()) << Read.status().message();
  EXPECT_EQ(Read->nnz(), M.nnz());
}

TEST(MatrixMarketTest, RejectsSurplusEntries) {
  // The size line declares exactly one coordinate line; a second must be
  // rejected, not silently folded into the matrix.
  const auto Surplus =
      parseMatrixMarket("%%MatrixMarket matrix coordinate real "
                        "general\n2 2 1\n1 1 1.0\n2 2 2.0\n");
  ASSERT_FALSE(Surplus.ok());
  EXPECT_NE(Surplus.status().message().find("expected 1 entries"),
            std::string::npos)
      << Surplus.status().message();
}

TEST(MatrixMarketTest, RejectsDeficitEntries) {
  const auto Deficit =
      parseMatrixMarket("%%MatrixMarket matrix coordinate real "
                        "general\n2 2 3\n1 1 1.0\n2 2 2.0\n");
  ASSERT_FALSE(Deficit.ok());
  EXPECT_NE(Deficit.status().message().find("expected 3 entries, got 2"),
            std::string::npos)
      << Deficit.status().message();
}

TEST(MatrixMarketTest, SymmetricCountsDeclaredLinesNotExpandedEntries) {
  // A diagonal-heavy symmetric file: 3 declared lines expand to only 4
  // stored entries (diagonal entries do not mirror). The declared count
  // refers to the lines, so this parses; one line more or less does not.
  const std::string Good = "%%MatrixMarket matrix coordinate real symmetric\n"
                           "3 3 3\n1 1 1.0\n2 2 2.0\n3 1 4.0\n";
  const auto M = parseMatrixMarket(Good);
  ASSERT_TRUE(M.ok()) << M.status().message();
  EXPECT_EQ(M->nnz(), 4u);

  const std::string Surplus =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n1 1 1.0\n2 2 2.0\n3 1 4.0\n";
  EXPECT_FALSE(parseMatrixMarket(Surplus).ok());
  const std::string Deficit =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4\n1 1 1.0\n2 2 2.0\n3 1 4.0\n";
  EXPECT_FALSE(parseMatrixMarket(Deficit).ok());
}

TEST(MatrixMarketTest, SymmetricPatternExpands) {
  const std::string Text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n2 1\n3 3\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok()) << M.status().message();
  EXPECT_EQ(M->nnz(), 3u); // (2,1) mirrors to (1,2); (3,3) does not
  const auto Y = M->multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(Y[0], 1.0);
  EXPECT_DOUBLE_EQ(Y[1], 1.0);
  EXPECT_DOUBLE_EQ(Y[2], 1.0);
}

TEST(MatrixMarketTest, SkewSymmetricPatternNegatesTheMirror) {
  const std::string Text =
      "%%MatrixMarket matrix coordinate pattern skew-symmetric\n"
      "2 2 1\n2 1\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok()) << M.status().message();
  EXPECT_EQ(M->nnz(), 2u);
  const auto Y = M->multiply({0.0, 1.0});
  EXPECT_DOUBLE_EQ(Y[0], -1.0); // the implied (1,2) entry is -1
}

TEST(MatrixMarketTest, CrlfLineEndingsParse) {
  // SuiteSparse files written on Windows carry CRLF line endings; the
  // trailing \r must not corrupt the banner, the size line or the values.
  const std::string Text = "%%MatrixMarket matrix coordinate real general\r\n"
                           "% comment\r\n"
                           "2 2 2\r\n"
                           "1 1 1.5\r\n"
                           "2 2 2.5\r\n";
  const auto M = parseMatrixMarket(Text);
  ASSERT_TRUE(M.ok()) << M.status().message();
  EXPECT_EQ(M->nnz(), 2u);
  EXPECT_DOUBLE_EQ(M->values()[0], 1.5);
  EXPECT_DOUBLE_EQ(M->values()[1], 2.5);
}

TEST(MatrixMarketTest, RoundTripIsBitExactAndFingerprintStable) {
  // The writer emits max_digits10 significant digits, so values that do
  // not terminate in decimal (1/3, sqrt2, ...) and the full random value
  // range survive write -> parse bit-for-bit, keeping the serving layer's
  // content fingerprint stable across a save/load cycle.
  CsrMatrix M = CsrMatrix::fromTriplets(
      3, 3,
      {{0, 0, 1.0 / 3.0},
       {0, 2, std::sqrt(2.0)},
       {1, 1, -1.0e-17},
       {2, 2, 6.02214076e23}});
  const auto Parsed = parseMatrixMarket(writeMatrixMarket(M));
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().message();
  EXPECT_EQ(Parsed->values(), M.values());
  EXPECT_EQ(matrixFingerprint(*Parsed), matrixFingerprint(M));

  const CsrMatrix Random = genUniformRandom(64, 64, 6.0, 0.4, 99);
  const auto Reparsed = parseMatrixMarket(writeMatrixMarket(Random));
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.status().message();
  EXPECT_EQ(Reparsed->values(), Random.values());
  EXPECT_EQ(Reparsed->columnIndices(), Random.columnIndices());
  EXPECT_EQ(matrixFingerprint(*Reparsed), matrixFingerprint(Random));
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

TEST(CollectionTest, SmallCollectionBuildsValidMatrices) {
  CollectionConfig Config;
  Config.MaxRows = 256;
  Config.VariantsPerCell = 2;
  Config.IncludeReplicas = false;
  const auto Specs = buildCollection(Config);
  EXPECT_GT(Specs.size(), 20u);
  for (const MatrixSpec &Spec : Specs) {
    const CsrMatrix M = Spec.Build();
    std::string Why;
    EXPECT_TRUE(M.verify(&Why)) << Spec.Name << ": " << Why;
    EXPECT_GT(M.nnz(), 0u) << Spec.Name;
  }
}

TEST(CollectionTest, NamesAreUnique) {
  CollectionConfig Config;
  Config.MaxRows = 1024;
  Config.VariantsPerCell = 2;
  const auto Specs = buildCollection(Config);
  std::set<std::string> Names;
  for (const MatrixSpec &Spec : Specs)
    EXPECT_TRUE(Names.insert(Spec.Name).second)
        << "duplicate name " << Spec.Name;
}

TEST(CollectionTest, BuildersAreDeterministic) {
  CollectionConfig Config;
  Config.MaxRows = 256;
  Config.VariantsPerCell = 1;
  Config.IncludeReplicas = false;
  const auto SpecsA = buildCollection(Config);
  const auto SpecsB = buildCollection(Config);
  ASSERT_EQ(SpecsA.size(), SpecsB.size());
  for (size_t I = 0; I < SpecsA.size(); ++I) {
    const CsrMatrix A = SpecsA[I].Build();
    const CsrMatrix B = SpecsB[I].Build();
    EXPECT_EQ(A.columnIndices(), B.columnIndices()) << SpecsA[I].Name;
  }
}

TEST(CollectionTest, RespectsNnzBudget) {
  CollectionConfig Config;
  Config.MaxRows = 16384;
  Config.VariantsPerCell = 1;
  Config.MaxNnzPerMatrix = 1u << 18;
  Config.IncludeReplicas = false;
  const auto Specs = buildCollection(Config);
  for (const MatrixSpec &Spec : Specs) {
    const CsrMatrix M = Spec.Build();
    // Budget is an expectation, not a hard cap; allow 2x slack.
    EXPECT_LT(M.nnz(), (1u << 19)) << Spec.Name;
  }
}

TEST(CollectionTest, ReplicasMatchDocumentedShapes) {
  const auto Replicas = paperReplicaSpecs(1);
  ASSERT_EQ(Replicas.size(), 6u);
  const MatrixSpec &G3 = findSpec(Replicas, "G3_circuit");
  const CsrMatrix M = G3.Build();
  EXPECT_EQ(M.numRows(), 198184u);
  const MatrixStats S = computeMatrixStats(M);
  EXPECT_NEAR(S.MeanRowLength, 4.8, 1.0); // ~4.8 nnz/row like the original
  EXPECT_LT(S.VarRowLength, 4.0);         // near-uniform
}

TEST(CollectionTest, ReplicaFamiliesAreDiverse) {
  const auto Replicas = paperReplicaSpecs(1);
  const CsrMatrix Skewed = findSpec(Replicas, "matrix-new_3").Build();
  const CsrMatrix Uniform = findSpec(Replicas, "PWTK").Build();
  const MatrixStats SkewedStats = computeMatrixStats(Skewed);
  const MatrixStats UniformStats = computeMatrixStats(Uniform);
  EXPECT_GT(SkewedStats.VarRowLength, 100.0);
  // PWTK's band has fill holes, so its variance is small but nonzero.
  EXPECT_LT(UniformStats.VarRowLength, 20.0);
}

TEST(CollectionTest, MaxRowsIsRespected) {
  CollectionConfig Config;
  Config.MaxRows = 64;
  Config.IncludeReplicas = false;
  const auto Specs = buildCollection(Config);
  for (const MatrixSpec &Spec : Specs) {
    const CsrMatrix M = Spec.Build();
    EXPECT_LE(M.numRows(), 64u) << Spec.Name;
  }
}
