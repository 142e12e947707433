// Tests for the density top-k queries (QuerySpec objective kDensity):
// definition (flow / area), algorithm parity, the ranking inversion that
// distinguishes density from flow, and bound validity in the join.

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/indoor/plan_builders.h"

namespace indoorflow {
namespace {

class DensityFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    OfficeDatasetConfig config;
    config.num_objects = 40;
    config.duration = 1200.0;
    config.seed = 808;
    dataset_ = new Dataset(GenerateOfficeDataset(config));
    EngineConfig engine_config;
    engine_config.topology = TopologyMode::kOff;
    engine_ = new QueryEngine(*dataset_, engine_config);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete dataset_;
    engine_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static QueryEngine* engine_;
};

Dataset* DensityFixture::dataset_ = nullptr;
QueryEngine* DensityFixture::engine_ = nullptr;

TEST_F(DensityFixture, DensityIsFlowOverArea) {
  const Timestamp t = 600.0;
  const auto flows =
      engine_->SnapshotTopK(t, 1 << 20, Algorithm::kIterative);
  std::map<PoiId, double> flow_of;
  for (const PoiFlow& f : flows) flow_of[f.poi] = f.flow;
  const auto densities =
      EstimatesToFlows(engine_->Run({.ts = t,
                                     .te = t,
                                     .objective = Objective::kDensity,
                                     .algorithm = Algorithm::kIterative,
                                     .k = 1 << 20}));
  ASSERT_EQ(densities.size(), flows.size());
  for (const PoiFlow& d : densities) {
    const double area =
        dataset_->pois[static_cast<size_t>(d.poi)].Area();
    ASSERT_GT(area, 0.0);
    EXPECT_NEAR(d.flow, flow_of.at(d.poi) / area, 1e-12) << "POI " << d.poi;
  }
}

TEST_F(DensityFixture, SnapshotAlgorithmsAgree) {
  for (Timestamp t : {300.0, 600.0, 900.0}) {
    for (int k : {1, 5, 20}) {
      const auto iter =
          EstimatesToFlows(engine_->Run({.ts = t,
                                         .te = t,
                                         .objective = Objective::kDensity,
                                         .algorithm = Algorithm::kIterative,
                                         .k = k}));
      const auto join = EstimatesToFlows(engine_->Run(
          {.ts = t,
           .te = t,
           .objective = Objective::kDensity,
           .algorithm = Algorithm::kJoin,
           .k = k}));
      ASSERT_EQ(iter.size(), join.size()) << "t=" << t << " k=" << k;
      for (size_t i = 0; i < iter.size(); ++i) {
        EXPECT_EQ(iter[i].poi, join[i].poi)
            << "t=" << t << " k=" << k << " rank " << i;
        EXPECT_NEAR(iter[i].flow, join[i].flow, 1e-9);
      }
    }
  }
}

TEST_F(DensityFixture, IntervalAlgorithmsAgreeAsSets) {
  // Interval flows saturate into exact ties; densities break most ties via
  // distinct areas, but compare as sets with per-POI values to stay robust.
  const Timestamp ts = 400.0, te = 800.0;
  const int k = 10;
  const auto iter =
      EstimatesToFlows(engine_->Run({.interval = true,
                                     .ts = ts,
                                     .te = te,
                                     .objective = Objective::kDensity,
                                     .algorithm = Algorithm::kIterative,
                                     .k = k}));
  const auto join = EstimatesToFlows(engine_->Run(
      {.interval = true,
       .ts = ts,
       .te = te,
       .objective = Objective::kDensity,
       .algorithm = Algorithm::kJoin,
       .k = k}));
  ASSERT_EQ(iter.size(), join.size());
  std::map<PoiId, double> join_of;
  for (const PoiFlow& f : join) join_of[f.poi] = f.flow;
  for (const PoiFlow& f : iter) {
    ASSERT_TRUE(join_of.contains(f.poi)) << "POI " << f.poi;
    EXPECT_NEAR(f.flow, join_of.at(f.poi), 1e-9);
  }
}

TEST_F(DensityFixture, ResultsOrderedByDensity) {
  const auto top =
      EstimatesToFlows(engine_->Run({.ts = 600.0,
                                     .te = 600.0,
                                     .objective = Objective::kDensity,
                                     .algorithm = Algorithm::kJoin,
                                     .k = 15}));
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].flow, top[i - 1].flow + 1e-12) << "rank " << i;
  }
}

TEST_F(DensityFixture, SubsetRespected) {
  std::vector<PoiId> subset;
  for (const Poi& poi : dataset_->pois) {
    if (poi.id % 4 == 0) subset.push_back(poi.id);
  }
  const auto top =
      EstimatesToFlows(engine_->Run({.ts = 600.0,
                                     .te = 600.0,
                                     .objective = Objective::kDensity,
                                     .algorithm = Algorithm::kJoin,
                                     .k = 8,
                                     .subset = &subset}));
  for (const PoiFlow& f : top) EXPECT_EQ(f.poi % 4, 0);
}

// Density must invert a flow ranking when a small POI carries moderate
// flow next to a big POI with slightly more flow — the "crowded broom
// closet beats the half-empty hall" case, constructed exactly.
TEST(DensityInversionTest, SmallCrowdedPoiWinsOnDensity) {
  const BuiltPlan built = BuildTinyPlan();
  const DoorGraph graph(built.plan);
  Deployment deployment;
  deployment.AddDevice(Circle{{5, 8}, 1.0});   // device 0, in room_a
  deployment.AddDevice(Circle{{15, 8}, 1.0});  // device 1, in room_b
  deployment.BuildIndex();

  PoiSet pois;
  // POI 0: a big POI (8x6 = 48 m²) containing device 0's disk.
  pois.push_back(Poi{0, "hall", Polygon::Rectangle(1, 5, 9, 11)});
  // POI 1: a small POI (2x2 = 4 m²) containing device 1's disk.
  pois.push_back(Poi{1, "closet", Polygon::Rectangle(14, 7, 16, 9)});

  // Three objects pinned at device 0 (flow_0 = 3 * pi/48 = 0.196); two
  // objects pinned at device 1 (flow_1 = 2 * pi/4 = 1.571). Densities:
  // hall 3*pi/48/48 = 0.0041, closet 2*pi/4/4 = 0.39.
  ObjectTrackingTable table;
  for (ObjectId o = 0; o < 3; ++o) table.Append({o, 0, 0.0, 100.0});
  for (ObjectId o = 3; o < 5; ++o) table.Append({o, 1, 0.0, 100.0});
  ASSERT_TRUE(table.Finalize().ok());

  EngineConfig config;
  config.vmax = 1.0;
  config.topology = TopologyMode::kOff;
  const QueryEngine engine(built.plan, graph, deployment, table, pois,
                           config);

  // Flow ranking: closet (1.571) > hall (0.196) here — make flow and
  // density disagree by checking against per-area analytics directly.
  const auto by_flow = engine.SnapshotTopK(50.0, 2, Algorithm::kJoin);
  const auto by_density =
      EstimatesToFlows(engine.Run({.ts = 50.0,
                                   .te = 50.0,
                                   .objective = Objective::kDensity,
                                   .algorithm = Algorithm::kJoin,
                                   .k = 2}));
  ASSERT_EQ(by_flow.size(), 2u);
  ASSERT_EQ(by_density.size(), 2u);
  // Closet wins both here, but the magnitudes differ per definition:
  EXPECT_EQ(by_density[0].poi, 1);
  EXPECT_NEAR(by_density[0].flow, by_flow[0].flow / 4.0, 1e-6);
  EXPECT_NEAR(by_density[1].flow, by_flow[1].flow / 48.0, 1e-6);
  // Now make the hall carry MORE flow (add 5 more objects at device 0):
  // flow ranking flips to the hall, density ranking must keep the closet.
  ObjectTrackingTable crowded;
  for (ObjectId o = 0; o < 30; ++o) crowded.Append({o, 0, 0.0, 100.0});
  for (ObjectId o = 30; o < 32; ++o) crowded.Append({o, 1, 0.0, 100.0});
  ASSERT_TRUE(crowded.Finalize().ok());
  const QueryEngine crowded_engine(built.plan, graph, deployment, crowded,
                                   pois, config);
  const auto flow2 = crowded_engine.SnapshotTopK(50.0, 1, Algorithm::kJoin);
  const auto dens2 =
      EstimatesToFlows(crowded_engine.Run({.ts = 50.0,
                                           .te = 50.0,
                                           .objective = Objective::kDensity,
                                           .algorithm = Algorithm::kJoin,
                                           .k = 1}));
  EXPECT_EQ(flow2[0].poi, 0);  // hall: 30 * pi/48 = 1.96 > 2 * pi/4 = 1.57
  EXPECT_EQ(dens2[0].poi, 1);  // closet: 0.39 >> hall 0.041
}

TEST(DensityEdgeTest, ZeroAreaPoiScoresZero) {
  const BuiltPlan built = BuildTinyPlan();
  const DoorGraph graph(built.plan);
  Deployment deployment;
  deployment.AddDevice(Circle{{5, 8}, 1.0});
  deployment.BuildIndex();
  PoiSet pois;
  pois.push_back(Poi{0, "line", Polygon::Rectangle(4, 8, 6, 8)});  // area 0
  pois.push_back(Poi{1, "ok", Polygon::Rectangle(4, 7, 6, 9)});
  ObjectTrackingTable table;
  table.Append({1, 0, 0.0, 100.0});
  ASSERT_TRUE(table.Finalize().ok());
  EngineConfig config;
  config.vmax = 1.0;
  config.topology = TopologyMode::kOff;
  const QueryEngine engine(built.plan, graph, deployment, table, pois,
                           config);
  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    const auto top = EstimatesToFlows(engine.Run(
        {.ts = 50.0,
         .te = 50.0,
         .objective = Objective::kDensity,
         .algorithm = algo,
         .k = 2}));
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].poi, 1);
    EXPECT_GT(top[0].flow, 0.0);
    EXPECT_DOUBLE_EQ(top[1].flow, 0.0);
  }
}

}  // namespace
}  // namespace indoorflow
