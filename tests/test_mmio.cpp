// Matrix Market reader/writer tests, including symmetry expansion and
// malformed-input diagnostics.
#include <gtest/gtest.h>

#include <sstream>

#include "sparse/convert.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace fghp::sparse {
namespace {

Csr parse(const std::string& text) {
  std::istringstream in(text);
  return read_matrix_market(in);
}

TEST(Mmio, ReadsGeneralReal) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 1.5\n"
      "1 3 -2\n"
      "2 2 3\n"
      "3 1 4\n");
  EXPECT_EQ(a.num_rows(), 3);
  EXPECT_EQ(a.nnz(), 4);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.5);
  EXPECT_TRUE(a.has_entry(0, 2));
  EXPECT_TRUE(a.has_entry(2, 0));
}

TEST(Mmio, ExpandsSymmetricStorage) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2\n"
      "2 1 5\n"
      "3 3 1\n");
  EXPECT_EQ(a.nnz(), 4);  // (2,1) expands to (1,2)
  EXPECT_TRUE(a.has_entry(0, 1));
  EXPECT_DOUBLE_EQ(a.row_vals(0)[1], 5.0);
}

TEST(Mmio, ExpandsSkewSymmetric) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], -3.0);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 3.0);
}

TEST(Mmio, PatternFieldGetsUnitValues) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.0);
}

TEST(Mmio, IntegerField) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n");
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 7.0);
}

TEST(Mmio, RejectsMissingBanner) {
  EXPECT_THROW(parse("1 1 0\n"), std::runtime_error);
}

TEST(Mmio, RejectsArrayFormat) {
  EXPECT_THROW(parse("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsComplexField) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsOutOfRangeIndex) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsUpperTriangleInSymmetric) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1\n"),
               std::runtime_error);
}

TEST(Mmio, RejectsTruncatedEntries) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n"),
               std::runtime_error);
}

TEST(Mmio, TruncatedErrorReportsShortfall) {
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("got 1 of 3"), std::string::npos) << e.what();
  }
}

TEST(Mmio, ReadsCrlfFiles) {
  // A Windows-saved file: every line ends in \r\n, including a blank line
  // and a comment between entries.
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% saved on Windows\r\n"
      "2 2 2\r\n"
      "1 1 1.5\r\n"
      "\r\n"
      "% interleaved comment\r\n"
      "2 2 -4\r\n");
  EXPECT_EQ(a.num_rows(), 2);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], -4.0);
}

TEST(Mmio, CrlfRoundTrip) {
  const Csr a = random_square(30, 4, 9);
  std::ostringstream out;
  write_matrix_market(out, a);
  std::string crlf;
  for (char c : out.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(parse(crlf), a);
}

TEST(Mmio, CrlfSymmetricStorage) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real symmetric\r\n"
      "2 2 2\r\n"
      "1 1 2\r\n"
      "2 1 5\r\n");
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_TRUE(a.has_entry(0, 1));
}

TEST(Mmio, DuplicateEntriesAccumulate) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4\n"
      "1 1 2\n"
      "1 1 3.5\n"
      "2 3 1\n"
      "2 3 -1\n");
  EXPECT_EQ(a.nnz(), 2);  // duplicates merged, zero-sum entry kept as structural
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 5.5);
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 0.0);
  // No duplicate column indices within a row.
  const auto cols = a.row_cols(0);
  EXPECT_EQ(cols.size(), 1u);
}

TEST(Mmio, DuplicateSymmetricEntriesAccumulateBothMirrors) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "2 1 3\n"
      "2 1 4\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 7.0);  // (1,2) mirror
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 7.0);  // (2,1)
}

TEST(Mmio, DuplicatePatternEntriesCollapseToUnit) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 3\n"
      "1 1\n"
      "1 1\n"
      "2 1\n");
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.row_vals(0)[0], 1.0);  // not 2.0
  EXPECT_DOUBLE_EQ(a.row_vals(1)[0], 1.0);
}

TEST(Mmio, TrailingBlankAndCommentLinesOk) {
  const Csr a = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1\n"
      "2 2 2\n"
      "\n"
      "   \n"
      "% trailing comment\n");
  EXPECT_EQ(a.nnz(), 2);
}

TEST(Mmio, ErrorMentionsLineNumber) {
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 1\nbogus\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Mmio, WriteReadRoundTrip) {
  const Csr a = random_square(40, 5, 77);
  std::ostringstream out;
  write_matrix_market(out, a);
  const Csr b = parse(out.str());
  EXPECT_EQ(a, b);
}

TEST(Mmio, RoundTripPreservesValuesExactly) {
  Coo coo(2, 2);
  coo.add(0, 0, 1.0 / 3.0);
  coo.add(1, 1, -2.718281828459045);
  const Csr a = to_csr(std::move(coo));
  std::ostringstream out;
  write_matrix_market(out, a);
  const Csr b = parse(out.str());
  EXPECT_DOUBLE_EQ(b.row_vals(0)[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.row_vals(1)[0], -2.718281828459045);
}

TEST(Mmio, FileRoundTrip) {
  const Csr a = random_square(25, 4, 123);
  const std::string path = ::testing::TempDir() + "/fghp_roundtrip.mtx";
  write_matrix_market_file(path, a);
  EXPECT_EQ(read_matrix_market_file(path), a);
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/dir/x.mtx"), std::runtime_error);
}

// -------------------------------------------- typed errors + bad values ----

TEST(Mmio, RejectsNanValue) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n"),
               FormatError);
}

TEST(Mmio, RejectsInfValue) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n"),
               FormatError);
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -inf\n"),
               FormatError);
}

TEST(Mmio, RejectsZeroAndNegativeIndices) {
  // Matrix Market indices are 1-based; 0 and negatives are malformed, and
  // the message must say so rather than report a generic range error.
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n");
    FAIL() << "expected throw";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("positive"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 -3 1\n"),
               FormatError);
}

TEST(Mmio, RejectsNegativeSizeLine) {
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1\n"),
               FormatError);
}

TEST(Mmio, RejectsSizeLineBeyondIndexRange) {
  // 2^32 + 1 used to wrap to a 1x1 matrix; 2^31 used to fail later as a
  // usage error. Both are format errors naming the size line.
  for (const char* size : {"4294967297 4294967297 1", "2147483648 2 1", "2 2147483648 1",
                           "2 2 2147483648"}) {
    try {
      parse(std::string("%%MatrixMarket matrix coordinate real general\n") + size +
            "\n1 1 1\n");
      FAIL() << "expected throw for size line '" << size << "'";
    } catch (const FormatError& e) {
      EXPECT_EQ(e.context().line, 2) << size;
      EXPECT_NE(std::string(e.what()).find("index range"), std::string::npos) << size;
    }
  }
}

TEST(Mmio, FormatErrorCarriesContext) {
  try {
    parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n");
    FAIL() << "expected throw";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.context().line, 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Mmio, MissingFileThrowsIoErrorWithPath) {
  try {
    read_matrix_market_file("/nonexistent/dir/x.mtx");
    FAIL() << "expected throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.context().path, "/nonexistent/dir/x.mtx");
  }
}

TEST(Mmio, InjectedEntryFaultHitsExactEntry) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n1 1 1\n2 2 2\n3 3 3\n";
  fault::ScopedSpec spec("mmio.read:2");
  try {
    parse(text);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.context().part, 2);  // second entry, deterministic
  }
}

TEST(Mmio, InjectedOpenFaultBeatsFileAccess) {
  fault::ScopedSpec spec("mmio.open");
  EXPECT_THROW(read_matrix_market_file("/nonexistent/dir/x.mtx"), FaultError);
}

}  // namespace
}  // namespace fghp::sparse
