// Typed error hierarchy: codes, context decoration, exit-code mapping,
// aggregation, and the process-global warning log.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace fghp {
namespace {

TEST(Error, EveryCategoryKeepsItsCode) {
  EXPECT_EQ(IoError("x").code(), ErrorCode::kIo);
  EXPECT_EQ(FormatError("x").code(), ErrorCode::kFormat);
  EXPECT_EQ(InvariantError("x").code(), ErrorCode::kInvariant);
  EXPECT_EQ(InfeasibleError("x").code(), ErrorCode::kInfeasible);
  EXPECT_EQ(FaultError("x").code(), ErrorCode::kFault);
  EXPECT_EQ(CancelledError("x").code(), ErrorCode::kCancelled);
  EXPECT_EQ(DeadlineExceededError("x").code(), ErrorCode::kDeadline);
}

TEST(Error, DerivesFromRuntimeError) {
  // Pre-existing catch (const std::runtime_error&) handlers must keep
  // working for every category.
  EXPECT_THROW(throw FormatError("bad"), std::runtime_error);
  EXPECT_THROW(throw IoError("bad"), std::runtime_error);
  EXPECT_THROW(throw FaultError("bad"), Error);
}

TEST(Error, ContextDecoratesMessage) {
  ErrorContext ctx;
  ctx.path = "m.mtx";
  ctx.line = 12;
  const FormatError e("value is not a number", ctx);
  const std::string what = e.what();
  EXPECT_NE(what.find("value is not a number"), std::string::npos);
  EXPECT_NE(what.find("m.mtx"), std::string::npos);
  EXPECT_NE(what.find("line 12"), std::string::npos);
  EXPECT_EQ(e.context().path, "m.mtx");
  EXPECT_EQ(e.context().line, 12);
}

TEST(Error, EmptyContextAddsNothing) {
  const IoError e("cannot open");
  EXPECT_STREQ(e.what(), "cannot open");
}

TEST(Error, PhaseAndPartDecorate) {
  ErrorContext ctx;
  ctx.phase = "rb.bisect";
  ctx.part = 3;
  const std::string what = FaultError("injected fault", ctx).what();
  EXPECT_NE(what.find("rb.bisect"), std::string::npos);
  EXPECT_NE(what.find('3'), std::string::npos);
}

TEST(Error, ExitCodeMapping) {
  EXPECT_EQ(exit_code(IoError("x")), 3);
  EXPECT_EQ(exit_code(FormatError("x")), 4);
  EXPECT_EQ(exit_code(InvariantError("x")), 5);
  EXPECT_EQ(exit_code(InfeasibleError("x")), 6);
  EXPECT_EQ(exit_code(FaultError("x")), 7);
  EXPECT_EQ(exit_code(CancelledError("x")), 8);
  EXPECT_EQ(exit_code(DeadlineExceededError("x")), 9);
  EXPECT_EQ(exit_code(std::invalid_argument("bad arg")), 2);  // FGHP_REQUIRE
  EXPECT_EQ(exit_code(std::runtime_error("anything")), 1);
}

TEST(Error, CodeNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kIo), "io");
  EXPECT_STREQ(error_code_name(ErrorCode::kFormat), "format");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvariant), "invariant");
  EXPECT_STREQ(error_code_name(ErrorCode::kInfeasible), "infeasible");
  EXPECT_STREQ(error_code_name(ErrorCode::kFault), "fault");
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "cancelled");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadline), "deadline");
}

TEST(NarrowIdx, PassesEveryValueInsideTheIndexRange) {
  EXPECT_EQ(narrow_idx(std::size_t{0}, "zero"), 0);
  EXPECT_EQ(narrow_idx(std::int64_t{-5}, "negative"), -5);
  EXPECT_EQ(narrow_idx(std::int64_t{2147483647}, "largest"), 2147483647);
}

TEST(NarrowIdx, OverflowIsATypedErrorNamingTheCount) {
  // One past the idx_t range, from a signed and an unsigned source, must
  // throw rather than wrap to a negative or small index.
  ErrorContext ctx;
  ctx.phase = "test.narrow";
  try {
    (void)narrow_idx(std::int64_t{2147483648}, "widget count", ctx);
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInfeasible);
    EXPECT_EQ(e.context().phase, "test.narrow");
    const std::string what = e.what();
    EXPECT_NE(what.find("widget count"), std::string::npos) << what;
    EXPECT_NE(what.find("2147483648"), std::string::npos) << what;
  }
  EXPECT_THROW((void)narrow_idx(std::size_t{1} << 40, "slots"), InfeasibleError);
  EXPECT_THROW((void)narrow_idx(std::int64_t{-2147483649}, "offset"), InfeasibleError);
}

template <typename E>
std::exception_ptr wrap(const E& e) {
  return std::make_exception_ptr(e);  // template: no slicing to the base
}

TEST(AggregateError, KeepsEveryError) {
  std::vector<std::exception_ptr> errs{wrap(IoError("first")), wrap(IoError("second"))};
  const AggregateError agg(std::move(errs));
  EXPECT_EQ(agg.size(), 2u);
  const std::string what = agg.what();
  EXPECT_NE(what.find("first"), std::string::npos);
  EXPECT_NE(what.find("second"), std::string::npos);
}

TEST(AggregateError, CommonCategoryIsPreserved) {
  const AggregateError same({wrap(FaultError("a")), wrap(FaultError("b"))});
  EXPECT_EQ(same.code(), ErrorCode::kFault);
  const AggregateError mixed({wrap(FaultError("a")), wrap(IoError("b"))});
  EXPECT_EQ(mixed.code(), ErrorCode::kGeneric);
}

TEST(AggregateError, AdoptsFirstContainedContext) {
  // A typed error crossing the fork-join boundary must keep its phase/part
  // context: the rb_driver rethrows worker errors through TaskGroup::wait,
  // and "which phase cancelled" is the whole point of the typed errors.
  ErrorContext ctx;
  ctx.phase = "rb.node";
  ctx.part = 7;
  const AggregateError agg(
      {wrap(CancelledError("run cancelled", ctx)), wrap(CancelledError("later"))});
  EXPECT_EQ(agg.code(), ErrorCode::kCancelled);
  EXPECT_EQ(agg.context().phase, "rb.node");
  EXPECT_EQ(agg.context().part, 7);
  const std::string what = agg.what();
  EXPECT_NE(what.find("rb.node"), std::string::npos);
}

TEST(AggregateError, NonErrorMembersLeaveContextEmpty) {
  const AggregateError agg({std::make_exception_ptr(std::runtime_error("plain"))});
  EXPECT_TRUE(agg.context().phase.empty());
}

TEST(Warnings, PushDrainCount) {
  drain_warnings();  // clear any leftovers from other tests
  EXPECT_EQ(warning_count(), 0u);
  push_warning("degraded once");
  push_warning("degraded twice");
  EXPECT_EQ(warning_count(), 2u);
  const auto got = drain_warnings();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "degraded once");
  EXPECT_EQ(got[1], "degraded twice");
  EXPECT_EQ(warning_count(), 0u);
}

TEST(Warnings, ConcurrentPushesAllLand) {
  drain_warnings();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        push_warning("t" + std::to_string(t) + "#" + std::to_string(i));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(drain_warnings().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace fghp
