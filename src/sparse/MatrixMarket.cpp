//===- sparse/MatrixMarket.cpp ---------------------------------------------===//
//
// Part of the Seer reproduction (CGO 2024).
//
//===----------------------------------------------------------------------===//

#include "sparse/MatrixMarket.h"

#include "support/AtomicFile.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <fstream>
#include <limits>
#include <sstream>

using namespace seer;

namespace {

/// Parsed `%%MatrixMarket` banner fields.
struct Banner {
  std::string Format;   // coordinate | array
  std::string Field;    // real | integer | pattern | complex
  std::string Symmetry; // general | symmetric | skew-symmetric | hermitian
};

Expected<Banner> parseBanner(std::string_view Line) {
  const std::vector<std::string> Words =
      splitString(std::string(trimString(Line)), ' ');
  std::vector<std::string> Tokens;
  for (const std::string &Word : Words)
    if (!trimString(Word).empty())
      Tokens.push_back(toLower(std::string(trimString(Word))));
  if (Tokens.size() != 5 || Tokens[0] != "%%matrixmarket" ||
      Tokens[1] != "matrix")
    return Status::invalidArgument("malformed MatrixMarket banner");
  return Banner{Tokens[2], Tokens[3], Tokens[4]};
}

/// The parser body (the fault-site check lives in the entry point).
Expected<CsrMatrix> parseImpl(const std::string &Text) {
  const auto Fail = [](const std::string &Message) {
    return Status::invalidArgument(Message);
  };

  std::istringstream Stream(Text);
  std::string Line;
  if (!std::getline(Stream, Line))
    return Fail("empty input");
  const Expected<Banner> Header = parseBanner(Line);
  if (!Header)
    return Header.status();
  if (Header->Format != "coordinate")
    return Fail("unsupported storage format '" + Header->Format +
                "' (only coordinate is supported)");
  if (Header->Field == "complex")
    return Fail("complex matrices are not supported");
  const bool Pattern = Header->Field == "pattern";
  const bool Symmetric = Header->Symmetry == "symmetric";
  const bool SkewSymmetric = Header->Symmetry == "skew-symmetric";
  if (!Symmetric && !SkewSymmetric && Header->Symmetry != "general")
    return Fail("unsupported symmetry '" + Header->Symmetry + "'");

  // Size line: first non-comment, non-blank line after the banner.
  int64_t NumRows = 0, NumCols = 0, NumEntries = 0;
  bool SawSize = false;
  std::vector<Triplet> Entries;
  // Coordinate lines actually parsed. The size line declares exactly this
  // count — NOT the count after symmetric expansion, which depends on how
  // many entries sit on the diagonal — so surplus/deficit detection must
  // compare against the raw line count.
  int64_t CoordinateLines = 0;
  size_t LineNumber = 1;
  while (std::getline(Stream, Line)) {
    ++LineNumber;
    const std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty() || Trimmed[0] == '%')
      continue;
    std::istringstream Fields{std::string(Trimmed)};
    if (!SawSize) {
      if (!(Fields >> NumRows >> NumCols >> NumEntries) || NumRows < 0 ||
          NumCols < 0 || NumEntries < 0)
        return Fail("line " + std::to_string(LineNumber) +
                    ": malformed size line");
      SawSize = true;
      Entries.reserve(static_cast<size_t>(NumEntries) *
                      ((Symmetric || SkewSymmetric) ? 2 : 1));
      continue;
    }
    if (++CoordinateLines > NumEntries)
      return Fail("line " + std::to_string(LineNumber) + ": expected " +
                  std::to_string(NumEntries) +
                  " entries, got more (surplus coordinate line)");
    int64_t Row = 0, Col = 0;
    double Value = 1.0;
    if (!(Fields >> Row >> Col))
      return Fail("line " + std::to_string(LineNumber) + ": malformed entry");
    if (!Pattern && !(Fields >> Value))
      return Fail("line " + std::to_string(LineNumber) + ": missing value");
    if (Row < 1 || Row > NumRows || Col < 1 || Col > NumCols)
      return Fail("line " + std::to_string(LineNumber) +
                  ": index out of bounds");
    const uint32_t R = static_cast<uint32_t>(Row - 1);
    const uint32_t C = static_cast<uint32_t>(Col - 1);
    Entries.push_back({R, C, Value});
    if ((Symmetric || SkewSymmetric) && R != C)
      Entries.push_back({C, R, SkewSymmetric ? -Value : Value});
  }
  if (!SawSize)
    return Fail("missing size line");
  if (CoordinateLines != NumEntries)
    return Fail("expected " + std::to_string(NumEntries) + " entries, got " +
                std::to_string(CoordinateLines));
  return CsrMatrix::fromTriplets(static_cast<uint32_t>(NumRows),
                                 static_cast<uint32_t>(NumCols),
                                 std::move(Entries));
}

} // namespace

Expected<CsrMatrix> seer::parseMatrixMarket(const std::string &Text) {
  if (Status F = FaultInjector::instance().check(faultsite::ParseMm); !F.ok())
    return F;
  return parseImpl(Text);
}

Expected<CsrMatrix> seer::readMatrixMarketFile(const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream)
    return Status::notFound("cannot open '" + Path + "' for reading");
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return parseMatrixMarket(Buffer.str());
}

std::string seer::writeMatrixMarket(const CsrMatrix &M) {
  std::ostringstream Out;
  // max_digits10 makes the write -> parse round trip bit-exact: the
  // default 6 significant digits would perturb the values and with them
  // the matrix's content fingerprint in the serving layer.
  Out.precision(std::numeric_limits<double>::max_digits10);
  Out << "%%MatrixMarket matrix coordinate real general\n";
  Out << "% generated by the Seer reproduction\n";
  Out << M.numRows() << ' ' << M.numCols() << ' ' << M.nnz() << '\n';
  for (uint32_t Row = 0; Row < M.numRows(); ++Row)
    for (uint64_t K = M.rowOffsets()[Row], E = M.rowOffsets()[Row + 1]; K < E;
         ++K)
      Out << (Row + 1) << ' ' << (M.columnIndices()[K] + 1) << ' '
          << M.values()[K] << '\n';
  return Out.str();
}

Status seer::writeMatrixMarketFile(const CsrMatrix &M,
                                   const std::string &Path) {
  if (Status F = FaultInjector::instance().check(faultsite::MmWrite); !F.ok())
    return F;
  // Temp-file + rename: a crash mid-write can never leave a truncated
  // .mtx behind for a later load to trip over.
  return atomicWriteFile(Path, writeMatrixMarket(M));
}
