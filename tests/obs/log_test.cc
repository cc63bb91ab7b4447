#include "obs/log.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "json_check.h"

namespace commsig::obs {
namespace {

using commsig::obs_test::IsValidJson;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The sink is a process-wide singleton; every test restores the defaults
/// so ordering between tests (and other suites in this binary) stays moot.
/// Each test writes its own file, named after the test and the process:
/// ctest runs the tests as parallel processes, and a shared path would let
/// one test's setup delete another's log mid-run.
class LogTest : public ::testing::Test {
 protected:
  LogTest()
      : path_(::testing::TempDir() + "/commsig_log_test_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              "_" + std::to_string(::getpid()) + ".jsonl") {
    std::remove(path_.c_str());
    LogSink::Global().SetStderrEnabled(false);
    LogSink::Global().SetMinLevel(LogLevel::kDebug);
  }

  ~LogTest() override {
    LogSink::Global().CloseFile();
    LogSink::Global().SetMinLevel(LogLevel::kInfo);
    LogSink::Global().SetStderrEnabled(true);
    std::remove(path_.c_str());
  }

  std::string path_;
};

TEST(LogLevelTest, NamesAreStable) {
  EXPECT_EQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_EQ(LogLevelName(LogLevel::kInfo), "info");
  EXPECT_EQ(LogLevelName(LogLevel::kWarn), "warn");
  EXPECT_EQ(LogLevelName(LogLevel::kError), "error");
}

TEST(LogLevelTest, ParseRoundTripsAndIsCaseInsensitive) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError}) {
    LogLevel parsed = LogLevel::kInfo;
    EXPECT_TRUE(ParseLogLevel(LogLevelName(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  LogLevel parsed = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("WARN", parsed));
  EXPECT_EQ(parsed, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warning", parsed));
  EXPECT_EQ(parsed, LogLevel::kWarn);
}

TEST(LogLevelTest, ParseRejectsUnknownAndLeavesOutputUntouched) {
  LogLevel parsed = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("verbose", parsed));
  EXPECT_FALSE(ParseLogLevel("", parsed));
  EXPECT_EQ(parsed, LogLevel::kError);
}

TEST_F(LogTest, EventBelowMinLevelIsInert) {
  LogSink::Global().SetMinLevel(LogLevel::kWarn);
  const uint64_t before = LogSink::Global().lines_emitted();
  { LogEvent e = LogInfo("suppressed"); EXPECT_FALSE(e.enabled()); }
  { LogEvent e = LogDebug("suppressed"); EXPECT_FALSE(e.enabled()); }
  EXPECT_EQ(LogSink::Global().lines_emitted(), before);
  { LogEvent e = LogError("kept"); EXPECT_TRUE(e.enabled()); }
  EXPECT_EQ(LogSink::Global().lines_emitted(), before + 1);
}

TEST_F(LogTest, FileTargetReceivesOneValidJsonObjectPerLine) {
  ASSERT_TRUE(LogSink::Global().OpenFile(path_).ok());
  LogInfo("window_advanced")
      .U64("window", 17)
      .I64("drift", -3)
      .Double("ratio", 0.25)
      .Bool("incremental", true)
      .Str("scheme", "rwr(c=0.1)");
  LogWarn("weird \"quoted\"\nname").Str("path", "a\\b\tc");
  LogSink::Global().CloseFile();

  std::vector<std::string> lines = ReadLines(path_);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsValidJson(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"event\":\"window_advanced\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"window\":17"), std::string::npos);
  EXPECT_NE(lines[0].find("\"drift\":-3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"incremental\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ts\":\""), std::string::npos);
  // The escaper must have neutralized the quote/newline in the event name.
  EXPECT_NE(lines[1].find("weird \\\"quoted\\\"\\nname"), std::string::npos);
}

TEST_F(LogTest, FileTargetAppendsAcrossReopens) {
  ASSERT_TRUE(LogSink::Global().OpenFile(path_).ok());
  LogInfo("first_run");
  LogSink::Global().CloseFile();
  ASSERT_TRUE(LogSink::Global().OpenFile(path_).ok());
  LogInfo("second_run");
  LogSink::Global().CloseFile();
  std::vector<std::string> lines = ReadLines(path_);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("first_run"), std::string::npos);
  EXPECT_NE(lines[1].find("second_run"), std::string::npos);
}

TEST_F(LogTest, OpenFileFailsOnUnwritablePath) {
  EXPECT_FALSE(
      LogSink::Global().OpenFile("/nonexistent-dir/commsig.log").ok());
}

}  // namespace
}  // namespace commsig::obs
