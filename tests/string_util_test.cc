#include "src/common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/common/threads.h"
#include "src/server/net_util.h"

namespace dime {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Hello World"), "hello world");
  EXPECT_EQ(ToLower("ALL CAPS 123!"), "all caps 123!");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("\t\n hello \r\n"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitAndTrimDropsEmpties) {
  EXPECT_EQ(SplitAndTrim(" a | b ||c ", '|'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitAndTrim("  |  | ", '|').empty());
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("overlap(Authors)", "overlap"));
  EXPECT_FALSE(StartsWith("ov", "overlap"));
  EXPECT_TRUE(EndsWith("Title:words", ":words"));
  EXPECT_FALSE(EndsWith("words", "Title:words"));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.75", &v));
  EXPECT_DOUBLE_EQ(v, 0.75);
  EXPECT_TRUE(ParseDouble("  2 ", &v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_TRUE(ParseDouble("-1.5", &v));
  EXPECT_DOUBLE_EQ(v, -1.5);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, ParseUintFlagRejectsAnythingButAWholeNumberInRange) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const char* bad : {"-1", "abc", "12x", "", "+1", " 1", "1 ", "0x10",
                          "1.5", "4097"}) {
    StatusOr<uint64_t> parsed = ParseUintFlag("--threads", bad, 0, kMaxThreads);
    ASSERT_FALSE(parsed.ok()) << '"' << bad << '"';
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_FALSE(ParseUintFlag("--port", "70000", 0, kMaxPort).ok());
  // 20 digits: past uint64_t even with the full range allowed.
  EXPECT_FALSE(ParseUintFlag("--n", "99999999999999999999", 0, kMax).ok());
  EXPECT_FALSE(ParseUintFlag("--n", "18446744073709551616", 0, kMax).ok());
  // The message names the flag, the range and the value.
  EXPECT_EQ(ParseUintFlag("--workers", "-1", 0, 4096).status().message(),
            "--workers: expected an integer in [0, 4096], got \"-1\"");
}

TEST(StringUtilTest, ParseUintFlagAcceptsEachBound) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(ParseUintFlag("--n", "18446744073709551615", 0, kMax).value(),
            kMax);
  EXPECT_EQ(ParseUintFlag("--n", "007", 0, 10).value(), 7u);
  EXPECT_FALSE(ParseUintFlag("--n", "0", 1, 10).ok());
  EXPECT_EQ(ParseUintFlag("--n", "1", 1, 10).value(), 1u);
  EXPECT_EQ(ParseUintFlag("--n", "10", 1, 10).value(), 10u);
  EXPECT_FALSE(ParseUintFlag("--n", "11", 1, 10).ok());
  // The bounds dime_server, dime_cli and dime_snapshot give their flags.
  EXPECT_EQ(kMaxThreads, 4096u);
  EXPECT_EQ(ParseUintFlag("--threads", "0", 0, kMaxThreads).value(), 0u);
  EXPECT_EQ(ParseUintFlag("--threads", "4096", 0, kMaxThreads).value(), 4096u);
  EXPECT_EQ(kMaxPort, 65535);
  EXPECT_EQ(ParseUintFlag("--port", "65535", 0, kMaxPort).value(), 65535u);
  EXPECT_EQ(ParseUintFlag("--deadline-ms", "2147483647", 1, kMaxFlagMillis)
                .value(),
            2147483647u);
  EXPECT_FALSE(
      ParseUintFlag("--deadline-ms", "2147483648", 1, kMaxFlagMillis).ok());
  EXPECT_EQ(
      ParseUintFlag("--delta-threshold-bytes", "1000000000000", 0, kMax)
          .value(),
      1000000000000u);
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.75, 2), "0.75");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(0.123456, 4), "0.1235");
}

}  // namespace
}  // namespace dime
