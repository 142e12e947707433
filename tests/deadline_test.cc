// Tests for per-request execution control (src/common/deadline.h):
// Deadline arithmetic, CancelToken, QueryControl's sticky first-cause-wins
// abort record, and the engine integration contract — an expired control
// makes every query method return with Aborted() set (the partial result
// is discarded by the caller), while an infinite control is bit-identical
// to passing no control at all.

#include "src/common/deadline.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/sim/generators.h"

namespace indoorflow {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.is_infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingNanos(), Deadline::kInfiniteNs);
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, PastPointIsExpired) {
  const Deadline deadline = Deadline::AtNanos(MonotonicNowNs() - 1);
  EXPECT_FALSE(deadline.is_infinite());
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingNanos(), 0);
}

TEST(DeadlineTest, NonPositiveAfterMillisIsExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).Expired());
}

TEST(DeadlineTest, FarFutureDeadlineIsNotExpired) {
  const Deadline deadline = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingNanos(), 0);
  EXPECT_LE(deadline.RemainingNanos(), 60'000'000'000);
}

TEST(CancelTokenTest, CancelIsObservedAndSticky) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.Cancelled());
}

TEST(QueryControlTest, DefaultNeverAborts) {
  QueryControl control;
  EXPECT_FALSE(control.ShouldAbort());
  EXPECT_FALSE(control.Aborted());
  EXPECT_EQ(control.reason(), AbortReason::kNone);
}

TEST(QueryControlTest, ExpiredDeadlineAbortsWithDeadlineReason) {
  QueryControl control(Deadline::AtNanos(MonotonicNowNs() - 1));
  EXPECT_FALSE(control.Aborted());  // no poll has happened yet
  EXPECT_TRUE(control.ShouldAbort());
  EXPECT_TRUE(control.Aborted());
  EXPECT_EQ(control.reason(), AbortReason::kDeadline);
}

TEST(QueryControlTest, CancelTokenAbortsWithCancelledReason) {
  CancelToken token;
  QueryControl control(Deadline::Infinite(), &token);
  EXPECT_FALSE(control.ShouldAbort());
  token.Cancel();
  EXPECT_TRUE(control.ShouldAbort());
  EXPECT_EQ(control.reason(), AbortReason::kCancelled);
}

TEST(QueryControlTest, FirstObservedCauseWins) {
  // Deadline trips first; a cancellation arriving later must not rewrite
  // the recorded reason (the server maps it to the response code).
  CancelToken token;
  QueryControl control(Deadline::AtNanos(MonotonicNowNs() - 1), &token);
  EXPECT_TRUE(control.ShouldAbort());
  ASSERT_EQ(control.reason(), AbortReason::kDeadline);
  token.Cancel();
  EXPECT_TRUE(control.ShouldAbort());
  EXPECT_EQ(control.reason(), AbortReason::kDeadline);
}

TEST(QueryControlTest, CancelCheckedBeforeDeadline) {
  // Both conditions hold before the first poll: cancellation is checked
  // first, deterministically.
  CancelToken token;
  token.Cancel();
  QueryControl control(Deadline::AtNanos(MonotonicNowNs() - 1), &token);
  EXPECT_TRUE(control.ShouldAbort());
  EXPECT_EQ(control.reason(), AbortReason::kCancelled);
}

// ---------------------------------------------------------------------------
// Engine integration.

class DeadlineEngineFixture : public ::testing::Test {
 protected:
  DeadlineEngineFixture() {
    OfficeDatasetConfig config;
    config.num_objects = 20;
    config.duration = 600.0;
    config.seed = 99;
    dataset_ = GenerateOfficeDataset(config);
    engine_ = std::make_unique<QueryEngine>(dataset_, EngineConfig{});
  }

  Dataset dataset_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(DeadlineEngineFixture, ExpiredControlAbortsEveryQueryMethod) {
  for (const Algorithm algorithm :
       {Algorithm::kJoin, Algorithm::kIterative}) {
    QueryControl snapshot_control(Deadline::AtNanos(MonotonicNowNs() - 1));
    engine_->SnapshotTopK(300.0, 5, algorithm, nullptr, nullptr, nullptr,
                          &snapshot_control);
    EXPECT_TRUE(snapshot_control.Aborted());
    EXPECT_EQ(snapshot_control.reason(), AbortReason::kDeadline);

    QueryControl interval_control(Deadline::AtNanos(MonotonicNowNs() - 1));
    engine_->IntervalTopK(200.0, 400.0, 5, algorithm, nullptr, nullptr,
                          nullptr, &interval_control);
    EXPECT_TRUE(interval_control.Aborted());

    QueryControl density_control(Deadline::AtNanos(MonotonicNowNs() - 1));
    engine_->Run({.ts = 300.0,
                  .te = 300.0,
                  .objective = Objective::kDensity,
                  .algorithm = algorithm,
                  .k = 5}, {.control = &density_control});
    EXPECT_TRUE(density_control.Aborted());
  }
}

TEST_F(DeadlineEngineFixture, CancelledControlAbortsWithCancelledReason) {
  CancelToken token;
  token.Cancel();
  QueryControl control(Deadline::Infinite(), &token);
  engine_->SnapshotTopK(300.0, 5, Algorithm::kJoin, nullptr, nullptr,
                        nullptr, &control);
  EXPECT_TRUE(control.Aborted());
  EXPECT_EQ(control.reason(), AbortReason::kCancelled);
}

TEST_F(DeadlineEngineFixture, InfiniteControlIsBitIdenticalToNoControl) {
  for (const Algorithm algorithm :
       {Algorithm::kJoin, Algorithm::kIterative}) {
    const std::vector<PoiFlow> plain =
        engine_->SnapshotTopK(300.0, 10, algorithm);
    QueryControl control;
    const std::vector<PoiFlow> controlled = engine_->SnapshotTopK(
        300.0, 10, algorithm, nullptr, nullptr, nullptr, &control);
    EXPECT_FALSE(control.Aborted());
    ASSERT_EQ(plain.size(), controlled.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].poi, controlled[i].poi);
      // Bit-identical, not approximately equal: the control poll must not
      // perturb any floating-point accumulation order.
      EXPECT_EQ(plain[i].flow, controlled[i].flow);
    }

    const std::vector<PoiFlow> plain_interval =
        engine_->IntervalTopK(200.0, 400.0, 10, algorithm);
    QueryControl interval_control;
    const std::vector<PoiFlow> controlled_interval = engine_->IntervalTopK(
        200.0, 400.0, 10, algorithm, nullptr, nullptr, nullptr,
        &interval_control);
    EXPECT_FALSE(interval_control.Aborted());
    ASSERT_EQ(plain_interval.size(), controlled_interval.size());
    for (size_t i = 0; i < plain_interval.size(); ++i) {
      EXPECT_EQ(plain_interval[i].poi, controlled_interval[i].poi);
      EXPECT_EQ(plain_interval[i].flow, controlled_interval[i].flow);
    }
  }
}

TEST_F(DeadlineEngineFixture, ParallelFanOutHonorsExpiredControl) {
  // Same contract with intra-query parallelism on: workers observe the
  // expired control and the query still returns (no wedge), Aborted() set.
  EngineConfig config;
  config.threads = 4;
  config.parallel_threshold = 1;
  QueryEngine parallel_engine(dataset_, config);
  QueryControl control(Deadline::AtNanos(MonotonicNowNs() - 1));
  parallel_engine.SnapshotTopK(300.0, 5, Algorithm::kIterative, nullptr,
                               nullptr, nullptr, &control);
  EXPECT_TRUE(control.Aborted());
}

}  // namespace
}  // namespace indoorflow
