#include "src/common/status.h"

#include <gtest/gtest.h>

#include "src/common/result.h"

namespace bmeh {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::Invalid("x").IsInvalid());
  EXPECT_TRUE(Status::KeyError("x").IsKeyError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::CapacityError("x").IsCapacityError());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::DataLoss("x").IsDataLoss());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());

  Status st = Status::Invalid("bad argument");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "bad argument");
  EXPECT_EQ(st.ToString(), "Invalid: bad argument");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status st = Status::KeyError("missing");
  Status copy = st;
  EXPECT_TRUE(copy.IsKeyError());
  EXPECT_EQ(copy.message(), "missing");
  EXPECT_TRUE(st.IsKeyError()) << "copy must not disturb the source";

  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsKeyError());
  EXPECT_EQ(moved.message(), "missing");
}

TEST(StatusTest, AssignmentOverwrites) {
  Status st = Status::Invalid("a");
  st = Status::OK();
  EXPECT_TRUE(st.ok());
  st = Status::Corruption("b");
  EXPECT_TRUE(st.IsCorruption());
  st = st;  // self-assignment
  EXPECT_TRUE(st.IsCorruption());
}

TEST(StatusTest, StatusCodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalid), "Invalid");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, UnavailableFactoryAndPredicate) {
  const Status st = Status::Unavailable("shard 3 is down");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(st.message(), "shard 3 is down");
  EXPECT_FALSE(Status::IoError("x").IsUnavailable());
}

TEST(StatusTest, TransiencePredicate) {
  // ResourceExhausted and Unavailable are the retryable failures: the
  // failing layer promises it left its state untouched.
  EXPECT_TRUE(Status::ResourceExhausted("no space").IsTransient());
  EXPECT_TRUE(Status::Unavailable("shard down").IsTransient());
  // Everything else requires repair, recovery, or caller changes first.
  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_FALSE(Status::IoError("x").IsTransient());
  EXPECT_FALSE(Status::DataLoss("x").IsTransient());
  EXPECT_FALSE(Status::Corruption("x").IsTransient());
  EXPECT_FALSE(Status::CapacityError("x").IsTransient());
  EXPECT_FALSE(Status::Invalid("x").IsTransient());
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << Status::IoError("disk on fire");
  EXPECT_EQ(os.str(), "IoError: disk on fire");
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::Invalid("negative");
  return Status::OK();
}

Status Chain(int v) {
  BMEH_RETURN_NOT_OK(FailIfNegative(v));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_TRUE(Chain(-1).IsInvalid());
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::Invalid("odd");
  return v / 2;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 5);
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());

  Result<int> bad = Half(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalid());
  EXPECT_EQ(bad.ValueOr(-1), -1);
}

Result<int> QuarterViaAssign(int v) {
  BMEH_ASSIGN_OR_RETURN(int half, Half(v));
  BMEH_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> r = QuarterViaAssign(12);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
  EXPECT_TRUE(QuarterViaAssign(13).status().IsInvalid());
  EXPECT_TRUE(QuarterViaAssign(6).status().IsInvalid());  // 3 is odd
}

TEST(ResultTest, StatusIsTheHeldStatusNotACopy) {
  const Result<int> bad = Status::KeyError("key (1, 2) not found");
  EXPECT_EQ(&bad.status(), &bad.status());
  EXPECT_EQ(bad.status().message(), "key (1, 2) not found");
  const Result<int> good = 4;
  EXPECT_TRUE(good.status().ok());
  // A temporary's status is moved out, not referenced.
  const Status& moved = Result<int>(Status::IoError("disk")).status();
  EXPECT_EQ(moved.message(), "disk");
  EXPECT_TRUE(Result<int>(5).status().ok());
}

// The message object the callee's KeyError holds, recorded by MissingKey.
const std::string* missing_key_message = nullptr;

Result<int> MissingKey() {
  Result<int> r = Status::KeyError("key (1, 2) not found");
  missing_key_message = &r.status().message();
  return r;
}

Result<int> PassOnMissingKey() {
  BMEH_ASSIGN_OR_RETURN(const int value, MissingKey());
  return value;
}

TEST(ResultTest, AssignOrReturnMovesTheStatus) {
  // An error passed on through BMEH_ASSIGN_OR_RETURN is moved, not
  // copied: the caller receives the very message the callee built.
  const Result<int> r = PassOnMissingKey();
  ASSERT_TRUE(r.status().IsKeyError()) << r.status();
  EXPECT_EQ(&r.status().message(), missing_key_message);
  EXPECT_EQ(r.status().message(), "key (1, 2) not found");
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

}  // namespace
}  // namespace bmeh
