// Pins the test oracle's line and field semantics (tests/ingest/
// serial_reference): the pipeline's FusedRowScanner is checked against
// LineScanner + SplitFields, and SplitFields against SplitCsvLine, so these
// references must themselves be right.

#include "oracle/serial_reference.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"

namespace commsig::serial_reference {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Every data line of the file, split into fields, with the data-line
  /// number of each.
  std::vector<std::pair<std::vector<std::string>, uint64_t>> ReadRows() {
    std::vector<std::pair<std::vector<std::string>, uint64_t>> rows;
    Result<std::string> data = ReadFileBytes(path_.string());
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    if (!data.ok()) return rows;
    LineScanner scanner(*data);
    std::string_view line;
    while (scanner.Next(line)) {
      rows.emplace_back(SplitCsvLine(line), scanner.line_number());
    }
    return rows;
  }

  std::filesystem::path path_;
};

TEST(SplitCsvLineTest, Basic) {
  auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLineTest, EmptyFieldsPreserved) {
  auto fields = SplitCsvLine("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitCsvLineTest, SingleField) {
  auto fields = SplitCsvLine("alone");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(SplitCsvLineTest, CustomDelimiter) {
  auto fields = SplitCsvLine("a|b|c", '|');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b");
}

TEST_F(CsvTest, WriteThenRead) {
  {
    CsvWriter writer(path_.string());
    ASSERT_TRUE(writer.status().ok());
    writer.WriteRow({"x", "1", "2.5"});
    writer.WriteRow({"y", "2", "3.5"});
    ASSERT_TRUE(writer.Close().ok());
  }
  const auto rows = ReadRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, (std::vector<std::string>{"x", "1", "2.5"}));
  EXPECT_EQ(rows[1].first[0], "y");
}

TEST_F(CsvTest, SkipsCommentsAndBlankLines) {
  {
    std::ofstream out(path_);
    out << "# header comment\n\nreal,row\n\n# trailing\n";
  }
  const auto rows = ReadRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first[0], "real");
  EXPECT_EQ(rows[0].second, 1u);
}

TEST_F(CsvTest, HandlesCrLf) {
  {
    std::ofstream out(path_);
    out << "a,b\r\nc,d\r\n";
  }
  const auto rows = ReadRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first[1], "b");  // no trailing \r
}

TEST(ReadFileBytesTest, MissingFileReportsIOError) {
  Result<std::string> data = ReadFileBytes("/nonexistent/dir/file.csv");
  ASSERT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsIOError());
}

TEST(SplitFieldsTest, ReportsTotalCountBeyondCapacity) {
  std::string_view out[4];
  EXPECT_EQ(SplitFields("a,b,c,d,e,f", ',', out, 4), 6u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[3], "d");
  EXPECT_EQ(SplitFields("x", ',', out, 4), 1u);
  EXPECT_EQ(out[0], "x");
  EXPECT_EQ(SplitFields("a,,c,", ',', out, 4), 4u);
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[3], "");
}

TEST(SplitFieldsTest, DelimiterSuccessorByteIsNotADelimiter) {
  // Regression: the word-at-a-time zero-byte detector must be exact. The
  // borrow-based (x-1)&~x form also flags a byte equal to delim^1 when the
  // byte below it is a real delimiter — for ',' that byte is '-', so
  // ",-0.5" grew a phantom field boundary at the minus sign.
  std::string_view out[4];
  ASSERT_EQ(SplitFields("o2,m3,-0.5", ',', out, 4), 3u);
  EXPECT_EQ(out[0], "o2");
  EXPECT_EQ(out[1], "m3");
  EXPECT_EQ(out[2], "-0.5");
  // Every adjacent-byte pairing around the delimiter, at every word
  // offset, against the SplitCsvLine reference.
  for (int c = 1; c < 256; ++c) {
    const char next = static_cast<char>(c);
    if (next == ',' || next == '\0') continue;
    for (size_t pad = 0; pad < 9; ++pad) {
      std::string line(pad, 'x');
      line += ',';
      line += next;
      line += ",tail";
      const std::vector<std::string> expected = SplitCsvLine(line, ',');
      const size_t total = SplitFields(line, ',', out, 4);
      ASSERT_EQ(total, expected.size()) << "next=" << c << " pad=" << pad;
      for (size_t i = 0; i < total && i < 4; ++i) {
        EXPECT_EQ(out[i], expected[i]) << "next=" << c << " pad=" << pad;
      }
    }
  }
}

TEST(LineScannerTest, MatchesCsvReaderSkipSemantics) {
  LineScanner scanner("# header\n\r\nreal,row\r\nlast,line");
  std::string_view line;
  ASSERT_TRUE(scanner.Next(line));
  EXPECT_EQ(line, "real,row");
  EXPECT_EQ(scanner.line_number(), 1u);
  ASSERT_TRUE(scanner.Next(line));
  EXPECT_EQ(line, "last,line");  // final line without trailing newline
  EXPECT_EQ(scanner.line_number(), 2u);
  EXPECT_FALSE(scanner.Next(line));
}

TEST(LineScannerTest, EmptyAndCommentOnlyBuffers) {
  std::string_view line;
  LineScanner empty("");
  EXPECT_FALSE(empty.Next(line));
  LineScanner comments("# one\n# two\n\n");
  EXPECT_FALSE(comments.Next(line));
  EXPECT_EQ(comments.line_number(), 0u);
}

}  // namespace
}  // namespace commsig::serial_reference
