#include "util/logging.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace holmes {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void TearDown() override { set_log_level(LogLevel::kWarning); }
};

TEST_F(LoggingTest, LevelIsSettable) {
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST_F(LoggingTest, SuppressedLevelDoesNotEvaluateNothingCrashy) {
  set_log_level(LogLevel::kOff);
  // The statement must compile and be a no-op for every level.
  HOLMES_LOG(kDebug) << "debug " << 1;
  HOLMES_LOG(kInfo) << "info " << 2.5;
  HOLMES_LOG(kWarning) << "warn";
  HOLMES_LOG(kError) << "error";
  SUCCEED();
}

TEST_F(LoggingTest, EmitsToStderrWhenEnabled) {
  set_log_level(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  HOLMES_LOG(kInfo) << "hello " << 42;
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("hello 42"), std::string::npos);
  EXPECT_NE(out.find("INFO"), std::string::npos);
}

TEST_F(LoggingTest, BelowThresholdIsSilent) {
  set_log_level(LogLevel::kWarning);
  ::testing::internal::CaptureStderr();
  HOLMES_LOG(kInfo) << "should not appear";
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(out.empty()) << out;
}

TEST_F(LoggingTest, ConcurrentLinesStayWhole) {
  // tune logs from its worker pool: a line logged by one thread must never
  // be split by another's.
  constexpr int kThreads = 8;
  constexpr int kLines = 500;
  std::set<std::string> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kLines; ++i) {
      expected.insert("[holmes WARN] thread " + std::to_string(t) + " line " +
                      std::to_string(i));
    }
  }
  set_log_level(LogLevel::kWarning);
  ::testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        HOLMES_LOG(kWarning) << "thread " << t << " line " << i;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string out = ::testing::internal::GetCapturedStderr();

  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  std::istringstream lines(out);
  std::string line;
  int count = 0;
  int torn = 0;
  std::string first_torn;
  while (std::getline(lines, line)) {
    ++count;
    if (expected.erase(line) == 1) continue;
    if (torn++ == 0) first_torn = line;
  }
  EXPECT_EQ(torn, 0) << "torn or repeated lines; first: " << first_torn;
  EXPECT_EQ(count, kThreads * kLines);
  EXPECT_TRUE(expected.empty()) << expected.size() << " lines missing";
}

}  // namespace
}  // namespace holmes
