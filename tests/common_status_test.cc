#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace itag {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, NamedConstructorsSetCodeAndMessage) {
  Status s = Status::NotFound("row 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "row 7");
  EXPECT_EQ(s.ToString(), "not_found: row 7");
}

TEST(StatusTest, EveryCodeHasDistinctPredicateAndName) {
  struct Case {
    Status status;
    StatusCode code;
    std::string_view name;
  };
  const Case cases[] = {
      {Status::NotFound("x"), StatusCode::kNotFound, "not_found"},
      {Status::InvalidArgument("x"), StatusCode::kInvalidArgument,
       "invalid_argument"},
      {Status::AlreadyExists("x"), StatusCode::kAlreadyExists,
       "already_exists"},
      {Status::FailedPrecondition("x"), StatusCode::kFailedPrecondition,
       "failed_precondition"},
      {Status::OutOfRange("x"), StatusCode::kOutOfRange, "out_of_range"},
      {Status::ResourceExhausted("x"), StatusCode::kResourceExhausted,
       "resource_exhausted"},
      {Status::IOError("x"), StatusCode::kIOError, "io_error"},
      {Status::Corruption("x"), StatusCode::kCorruption, "corruption"},
      {Status::Unimplemented("x"), StatusCode::kUnimplemented,
       "unimplemented"},
      {Status::Aborted("x"), StatusCode::kAborted, "aborted"},
      {Status::Internal("x"), StatusCode::kInternal, "internal"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(StatusCodeName(c.status.code()), c.name);
    EXPECT_FALSE(c.status.ok());
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Corruption("a"));
  EXPECT_EQ(Status::OK(), Status());
}

Status Fails() { return Status::IOError("disk"); }
Status Succeeds() { return Status::OK(); }

Status UsesReturnIfError(bool fail) {
  ITAG_RETURN_IF_ERROR(fail ? Fails() : Succeeds());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(false).ok());
  EXPECT_TRUE(UsesReturnIfError(true).IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  ITAG_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_TRUE(QuarterEven(6).status().IsInvalidArgument());  // 6/2=3 is odd
  EXPECT_TRUE(QuarterEven(3).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// Reading the value of a failed Result stops the process and prints the
// status, in every build: the check does not go through `assert`, which
// NDEBUG builds (RelWithDebInfo, the default) compile out.
TEST(ResultDeathTest, ValueOfAFailedResultAbortsWithItsStatus) {
  Result<int> r = Status::NotFound("tagger 0");
  EXPECT_DEATH((void)r.value(),
               "value\\(\\) of a failed Result: not_found: tagger 0");
  EXPECT_DEATH((void)*r, "not_found: tagger 0");
  EXPECT_DEATH((void)std::move(r).value(), "not_found: tagger 0");
  const Result<std::string> text = Status::Internal("no row");
  EXPECT_DEATH((void)text->size(), "internal: no row");
  EXPECT_DEATH((void)text.value(), "internal: no row");
}

}  // namespace
}  // namespace itag
