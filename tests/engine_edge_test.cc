// Edge-case behavior of the engine API: empty inputs, extreme parameters,
// and degenerate datasets must not crash and must return sensible results.

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/timeline.h"
#include "src/indoor/plan_builders.h"

namespace indoorflow {
namespace {

class EdgeFixture : public ::testing::Test {
 protected:
  EdgeFixture() : built_(BuildTinyPlan()), graph_(built_.plan) {
    deployment_.AddDevice(Circle{{5, 8}, 1.0});
    deployment_.AddDevice(Circle{{15, 8}, 1.0});
    deployment_.BuildIndex();
    pois_.push_back(Poi{0, "room_a", Polygon::Rectangle(0, 4, 10, 12)});
    pois_.push_back(Poi{1, "room_b", Polygon::Rectangle(10, 4, 20, 12)});
  }

  QueryEngine MakeEngine(const ObjectTrackingTable& table,
                         const PoiSet& pois) {
    EngineConfig config;
    config.vmax = 1.0;
    config.topology = TopologyMode::kPartition;
    return QueryEngine(built_.plan, graph_, deployment_, table, pois,
                       config);
  }

  BuiltPlan built_;
  DoorGraph graph_;
  Deployment deployment_;
  PoiSet pois_;
};

TEST_F(EdgeFixture, EmptyOtt) {
  ObjectTrackingTable empty;
  ASSERT_TRUE(empty.Finalize().ok());
  const QueryEngine engine = MakeEngine(empty, pois_);
  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    const auto snap = engine.SnapshotTopK(100.0, 2, algo);
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_DOUBLE_EQ(snap[0].flow, 0.0);
    const auto interval = engine.IntervalTopK(0.0, 100.0, 2, algo);
    ASSERT_EQ(interval.size(), 2u);
    EXPECT_DOUBLE_EQ(interval[0].flow, 0.0);
  }
}

TEST_F(EdgeFixture, EmptyPoiSet) {
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  const PoiSet no_pois;
  const QueryEngine engine = MakeEngine(table, no_pois);
  EXPECT_TRUE(engine.SnapshotTopK(50.0, 5, Algorithm::kJoin).empty());
  EXPECT_TRUE(
      engine.IntervalTopK(0.0, 100.0, 5, Algorithm::kIterative).empty());
}

TEST_F(EdgeFixture, ZeroAndNegativeK) {
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  EXPECT_TRUE(engine.SnapshotTopK(50.0, 0, Algorithm::kJoin).empty());
  EXPECT_TRUE(engine.SnapshotTopK(50.0, -3, Algorithm::kIterative).empty());
  EXPECT_TRUE(engine.IntervalTopK(0.0, 50.0, 0, Algorithm::kJoin).empty());
}

TEST_F(EdgeFixture, KLargerThanSubset) {
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  const std::vector<PoiId> one = {1};
  const auto top = engine.SnapshotTopK(50.0, 10, Algorithm::kJoin, &one);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].poi, 1);
}

TEST_F(EdgeFixture, EmptySubset) {
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  const std::vector<PoiId> none;
  EXPECT_TRUE(
      engine.SnapshotTopK(50.0, 5, Algorithm::kJoin, &none).empty());
  EXPECT_TRUE(
      engine.IntervalTopK(0.0, 50.0, 5, Algorithm::kIterative, &none)
          .empty());
}

TEST_F(EdgeFixture, QueryTimesOutsideData) {
  ObjectTrackingTable table;
  table.Append({0, 0, 100, 200});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  for (const Timestamp t : {-50.0, 0.0, 99.99, 200.01, 1e9}) {
    const auto top = engine.SnapshotTopK(t, 2, Algorithm::kIterative);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_DOUBLE_EQ(top[0].flow, 0.0) << "t=" << t;
  }
  // Interval entirely outside the data.
  const auto before = engine.IntervalTopK(-100.0, -10.0, 2,
                                          Algorithm::kJoin);
  EXPECT_DOUBLE_EQ(before[0].flow, 0.0);
  const auto after = engine.IntervalTopK(300.0, 400.0, 2, Algorithm::kJoin);
  EXPECT_DOUBLE_EQ(after[0].flow, 0.0);
}

TEST_F(EdgeFixture, ZeroLengthInterval) {
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  // [t, t] behaves like a snapshot-ish query and must agree across
  // algorithms.
  const auto iter = engine.IntervalTopK(50.0, 50.0, 2,
                                        Algorithm::kIterative);
  const auto join = engine.IntervalTopK(50.0, 50.0, 2, Algorithm::kJoin);
  ASSERT_EQ(iter.size(), join.size());
  for (size_t i = 0; i < iter.size(); ++i) {
    EXPECT_NEAR(iter[i].flow, join[i].flow, 1e-9);
  }
  EXPECT_GT(iter[0].flow, 0.0);  // object is in room_a's device
}

TEST_F(EdgeFixture, PointRecords) {
  // Records with ts == te (single-reading detections).
  ObjectTrackingTable table;
  table.Append({0, 0, 50, 50});
  table.Append({0, 1, 80, 80});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  const auto at_record = engine.SnapshotTopK(50.0, 2, Algorithm::kJoin);
  EXPECT_GT(at_record[0].flow, 0.0);
  const auto in_gap = engine.SnapshotTopK(65.0, 2, Algorithm::kIterative);
  const auto in_gap_join = engine.SnapshotTopK(65.0, 2, Algorithm::kJoin);
  for (size_t i = 0; i < in_gap.size(); ++i) {
    EXPECT_NEAR(in_gap[i].flow, in_gap_join[i].flow, 1e-9);
  }
}

TEST_F(EdgeFixture, SingleObjectSingleDevicePoiOutsideReach) {
  // POI far from any possible position: flow exactly 0 for both.
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  PoiSet pois;
  pois.push_back(Poi{0, "far", Polygon::Rectangle(18, 0, 20, 2)});
  const QueryEngine engine = MakeEngine(table, pois);
  EXPECT_DOUBLE_EQ(
      engine.SnapshotTopK(50.0, 1, Algorithm::kIterative)[0].flow, 0.0);
  EXPECT_DOUBLE_EQ(engine.SnapshotTopK(50.0, 1, Algorithm::kJoin)[0].flow,
                   0.0);
}

TEST_F(EdgeFixture, DegenerateIntervalMatchesSnapshotExactly) {
  // IntervalTopK(t, t) delegates its region derivation to the snapshot
  // path, so it agrees with SnapshotTopK(t) bit-for-bit — including at
  // record boundaries and in detection gaps, for both algorithms.
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 40});
  table.Append({0, 1, 60, 100});
  table.Append({1, 1, 10, 80});
  ASSERT_TRUE(table.Finalize().ok());
  const QueryEngine engine = MakeEngine(table, pois_);
  for (const Timestamp t : {5.0, 40.0, 50.0, 60.0, 90.0}) {
    for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
      const auto snap = engine.SnapshotTopK(t, 2, algo);
      const auto interval = engine.IntervalTopK(t, t, 2, algo);
      ASSERT_EQ(snap.size(), interval.size()) << "t=" << t;
      for (size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(interval[i].poi, snap[i].poi) << "t=" << t;
        EXPECT_EQ(interval[i].flow, snap[i].flow) << "t=" << t;
      }
    }
  }
}

TEST_F(EdgeFixture, DegeneratePoiDoesNotPoisonDensityRanking) {
  // A zero-area POI in the set used to zero the join's subtree min-area
  // aggregate, turning the density bound into 0 and silently pruning every
  // POI sharing the subtree. Degenerate areas now demote to 0 at load time
  // and the bound ignores them, so both algorithms agree and the sliver
  // itself ranks with density 0.
  ObjectTrackingTable table;
  table.Append({0, 0, 0, 100});
  table.Append({1, 1, 0, 100});
  ASSERT_TRUE(table.Finalize().ok());
  PoiSet pois = pois_;
  pois.push_back(Poi{2, "sliver", Polygon::Rectangle(4, 6, 4, 10)});
  const QueryEngine engine = MakeEngine(table, pois);

  const auto iter =
      EstimatesToFlows(engine.Run({.ts = 50.0,
                                   .te = 50.0,
                                   .objective = Objective::kDensity,
                                   .algorithm = Algorithm::kIterative,
                                   .k = 3}));
  const auto join = EstimatesToFlows(engine.Run(
      {.ts = 50.0,
       .te = 50.0,
       .objective = Objective::kDensity,
       .algorithm = Algorithm::kJoin,
       .k = 3}));
  ASSERT_EQ(iter.size(), 3u);
  ASSERT_EQ(join.size(), 3u);
  for (size_t i = 0; i < iter.size(); ++i) {
    EXPECT_EQ(join[i].poi, iter[i].poi) << "rank " << i;
    EXPECT_EQ(join[i].flow, iter[i].flow) << "rank " << i;
    EXPECT_TRUE(std::isfinite(iter[i].flow)) << "rank " << i;
  }
  // The populated rooms rank with positive density; the sliver is last
  // with exactly 0.
  EXPECT_GT(iter[0].flow, 0.0);
  EXPECT_GT(iter[1].flow, 0.0);
  EXPECT_EQ(iter[2].poi, 2);
  EXPECT_EQ(iter[2].flow, 0.0);

  // Interval density over the same data must agree across algorithms too.
  const auto iter_interval =
      EstimatesToFlows(engine.Run({.interval = true,
                                   .ts = 20.0,
                                   .te = 80.0,
                                   .objective = Objective::kDensity,
                                   .algorithm = Algorithm::kIterative,
                                   .k = 3}));
  const auto join_interval =
      EstimatesToFlows(engine.Run({.interval = true,
                                   .ts = 20.0,
                                   .te = 80.0,
                                   .objective = Objective::kDensity,
                                   .algorithm = Algorithm::kJoin,
                                   .k = 3}));
  ASSERT_EQ(iter_interval.size(), join_interval.size());
  for (size_t i = 0; i < iter_interval.size(); ++i) {
    EXPECT_EQ(join_interval[i].poi, iter_interval[i].poi) << "rank " << i;
    EXPECT_EQ(join_interval[i].flow, iter_interval[i].flow) << "rank " << i;
    EXPECT_TRUE(std::isfinite(iter_interval[i].flow)) << "rank " << i;
  }
}

TEST_F(EdgeFixture, TimelineOnEmptyData) {
  ObjectTrackingTable empty;
  ASSERT_TRUE(empty.Finalize().ok());
  const QueryEngine engine = MakeEngine(empty, pois_);
  const auto series = FlowTimeline(engine, 0, 0.0, 100.0, 25.0);
  ASSERT_EQ(series.size(), 5u);
  for (const TimelinePoint& p : series) {
    EXPECT_DOUBLE_EQ(p.flow, 0.0);
  }
}

}  // namespace
}  // namespace indoorflow
