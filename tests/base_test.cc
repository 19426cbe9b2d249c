#include <gtest/gtest.h>

#include "base/check.h"
#include "base/result.h"
#include "base/status.h"
#include "base/string_util.h"

namespace fairlaw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.message(), "");
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::Invalid("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "invalid argument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopySemantics) {
  Status original = Status::NotFound("missing");
  Status copy = original;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), "missing");
  EXPECT_TRUE(original.IsNotFound());  // source unchanged
  copy = Status::OK();
  EXPECT_TRUE(copy.ok());
  EXPECT_TRUE(original.IsNotFound());
}

TEST(StatusTest, MoveLeavesSourceReusable) {
  Status original = Status::IOError("disk");
  Status moved = std::move(original);
  EXPECT_TRUE(moved.IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::Invalid("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
  EXPECT_EQ(result.ValueOr(7), 7);
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::string> result = std::string("payload");
  std::string value = std::move(result).ValueOrDie();
  EXPECT_EQ(value, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  FAIRLAW_ASSIGN_OR_RETURN(int half, Half(x));
  FAIRLAW_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(Quarter(8).ValueOrDie(), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalid());  // 6/2=3 is odd
  EXPECT_TRUE(Quarter(7).status().IsInvalid());
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace("x"), "x");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("\t a b \n"), "a b");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2.25 ").ValueOrDie(), -2.25);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-7").ValueOrDie(), -7);
  EXPECT_FALSE(ParseInt64("3.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringUtilTest, ParseBool) {
  EXPECT_TRUE(ParseBool("true").ValueOrDie());
  EXPECT_TRUE(ParseBool("TRUE").ValueOrDie());
  EXPECT_TRUE(ParseBool("1").ValueOrDie());
  EXPECT_FALSE(ParseBool("false").ValueOrDie());
  EXPECT_FALSE(ParseBool("0").ValueOrDie());
  EXPECT_TRUE(ParseBool(" TRUE ").ValueOrDie());
  EXPECT_FALSE(ParseBool("fAlSe").ValueOrDie());
  EXPECT_FALSE(ParseBool("").ok());
  EXPECT_FALSE(ParseBool("yes").ok());
  EXPECT_EQ(ParseBool("yes").status().ToString(),
            "invalid argument: cannot parse 'yes' as bool");
  EXPECT_EQ(ParseBool(" tru ").status().ToString(),
            "invalid argument: cannot parse ' tru ' as bool");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("AbC"), "abc");
}

TEST(CheckDeathTest, CheckMsgAbortsWithMessage) {
  EXPECT_DEATH(FAIRLAW_CHECK_MSG(1 == 2, "one is not two"),
               "one is not two");
}

TEST(CheckDeathTest, CheckOkAbortsWithStatusText) {
  EXPECT_DEATH(FAIRLAW_CHECK_OK(Status::Invalid("bad denominator")),
               "bad denominator");
}

TEST(CheckDeathTest, NotReachedAborts) {
  EXPECT_DEATH(FAIRLAW_NOTREACHED("unhandled enum value"),
               "unhandled enum value");
}

TEST(CheckDeathTest, BoundsCheckAbortsOnOutOfRange) {
  EXPECT_DEATH(FAIRLAW_BOUNDS_CHECK(5, 3), "index 5 out of range for size 3");
}

TEST(CheckTest, PassingChecksAreSilent) {
  FAIRLAW_CHECK_MSG(1 + 1 == 2, "arithmetic holds");
  FAIRLAW_CHECK_OK(Status::OK());
  FAIRLAW_BOUNDS_CHECK(2, 3);
  FAIRLAW_DCHECK(true, "never fires");
}

}  // namespace
}  // namespace fairlaw
