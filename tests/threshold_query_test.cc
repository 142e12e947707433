// Tests for the flow-threshold queries (QuerySpec objective kThreshold):
// algorithm parity, consistency with top-k, monotonicity in tau, subset
// handling, and the join's bound-driven early termination.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/core/engine.h"

namespace indoorflow {
namespace {

class ThresholdFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    OfficeDatasetConfig config;
    config.num_objects = 40;
    config.duration = 1200.0;
    config.seed = 515;
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

Dataset* ThresholdFixture::dataset_ = nullptr;
QueryEngine* ThresholdFixture::engine_ = nullptr;

// Per-POI flow map from a full iterative ranking (the reference answer).
std::map<PoiId, double> AllFlows(const QueryEngine& engine, Timestamp t) {
  std::map<PoiId, double> flows;
  const auto all = engine.SnapshotTopK(t, 1 << 20, Algorithm::kIterative);
  for (const PoiFlow& f : all) flows[f.poi] = f.flow;
  return flows;
}

// A tau strictly between two adjacent flow values (or above the max /
// below the min), so float noise between algorithms cannot flip inclusion.
// Returns 0.0 (caller skips) when the two values tie — interval flows
// saturate toward |O|, producing large tie groups a threshold cannot split.
double MidTau(const std::map<PoiId, double>& flows, size_t rank) {
  std::vector<double> values;
  for (const auto& [id, flow] : flows) values.push_back(flow);
  std::sort(values.rbegin(), values.rend());
  if (rank == 0) return values.front() + 1.0;
  if (rank >= values.size()) return values.back() > 0.0 ? values.back() / 2.0
                                                        : 1e-6;
  if (values[rank - 1] - values[rank] < 1e-6) return 0.0;
  return (values[rank - 1] + values[rank]) / 2.0;
}

TEST_F(ThresholdFixture, MatchesIterativeReference) {
  const Timestamp t = 600.0;
  const auto flows = AllFlows(*engine_, t);
  for (size_t rank : {size_t{1}, size_t{3}, size_t{8}}) {
    const double tau = MidTau(flows, rank);
    if (tau <= 0.0) continue;
    const auto result =
        EstimatesToFlows(engine_->Run({.ts = t,
                                       .te = t,
                                       .objective = Objective::kThreshold,
                                       .algorithm = Algorithm::kIterative,
                                       .tau = tau}));
    // Exactly the POIs whose reference flow clears tau, flow-descending.
    size_t expected = 0;
    for (const auto& [id, flow] : flows) expected += flow >= tau ? 1 : 0;
    ASSERT_EQ(result.size(), expected) << "tau=" << tau;
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_GE(result[i].flow, tau);
      EXPECT_NEAR(result[i].flow, flows.at(result[i].poi), 1e-9);
      if (i > 0) {
        EXPECT_LE(result[i].flow, result[i - 1].flow + 1e-12);
      }
    }
  }
}

TEST_F(ThresholdFixture, SnapshotAlgorithmsAgree) {
  for (Timestamp t : {300.0, 600.0, 900.0}) {
    const auto flows = AllFlows(*engine_, t);
    for (size_t rank : {size_t{1}, size_t{2}, size_t{5}, size_t{12}}) {
      const double tau = MidTau(flows, rank);
      if (tau <= 0.0) continue;
      const auto iter =
          EstimatesToFlows(engine_->Run({.ts = t,
                                         .te = t,
                                         .objective = Objective::kThreshold,
                                         .algorithm = Algorithm::kIterative,
                                         .tau = tau}));
      const auto join = EstimatesToFlows(engine_->Run(
          {.ts = t,
           .te = t,
           .objective = Objective::kThreshold,
           .algorithm = Algorithm::kJoin,
           .tau = tau}));
      ASSERT_EQ(iter.size(), join.size()) << "t=" << t << " tau=" << tau;
      for (size_t i = 0; i < iter.size(); ++i) {
        EXPECT_EQ(iter[i].poi, join[i].poi) << "rank " << i;
        EXPECT_NEAR(iter[i].flow, join[i].flow, 1e-9);
      }
    }
  }
}

TEST_F(ThresholdFixture, IntervalAlgorithmsAgree) {
  const Timestamp ts = 400.0, te = 800.0;
  const auto all =
      engine_->IntervalTopK(ts, te, 1 << 20, Algorithm::kIterative);
  std::map<PoiId, double> flows;
  for (const PoiFlow& f : all) flows[f.poi] = f.flow;
  for (size_t rank : {size_t{1}, size_t{4}, size_t{10}}) {
    const double tau = MidTau(flows, rank);
    if (tau <= 0.0) continue;
    const auto iter =
        EstimatesToFlows(engine_->Run({.interval = true,
                                       .ts = ts,
                                       .te = te,
                                       .objective = Objective::kThreshold,
                                       .algorithm = Algorithm::kIterative,
                                       .tau = tau}));
    const auto join =
        EstimatesToFlows(engine_->Run({.interval = true,
                                       .ts = ts,
                                       .te = te,
                                       .objective = Objective::kThreshold,
                                       .algorithm = Algorithm::kJoin,
                                       .tau = tau}));
    // Same POI set with matching flows. (Rank order inside exact-tie
    // groups is not comparable: the algorithms accumulate presences in
    // different orders, so tied flows differ at the 1e-15 level.)
    ASSERT_EQ(iter.size(), join.size()) << "tau=" << tau;
    std::map<PoiId, double> join_flows;
    for (const PoiFlow& f : join) join_flows[f.poi] = f.flow;
    for (const PoiFlow& f : iter) {
      ASSERT_TRUE(join_flows.contains(f.poi)) << "POI " << f.poi;
      EXPECT_NEAR(f.flow, join_flows.at(f.poi), 1e-9);
    }
    // Each result is internally ordered by nonincreasing flow.
    for (size_t i = 1; i < join.size(); ++i) {
      EXPECT_LE(join[i].flow, join[i - 1].flow + 1e-12);
    }
  }
}

TEST_F(ThresholdFixture, ConsistentWithTopK) {
  // Threshold at (just below) the k-th flow returns exactly the positive
  // prefix of the top-k ranking.
  const Timestamp t = 600.0;
  const int k = 5;
  const auto top = engine_->SnapshotTopK(t, k, Algorithm::kIterative);
  ASSERT_EQ(top.size(), static_cast<size_t>(k));
  if (top.back().flow <= 0.0) GTEST_SKIP() << "fewer than k hot POIs";
  const double tau = top.back().flow * (1.0 - 1e-9);
  const auto thresh = EstimatesToFlows(engine_->Run(
      {.ts = t,
       .te = t,
       .objective = Objective::kThreshold,
       .algorithm = Algorithm::kJoin,
       .tau = tau}));
  ASSERT_GE(thresh.size(), static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(thresh[static_cast<size_t>(i)].poi, top[static_cast<size_t>(i)].poi);
  }
}

TEST_F(ThresholdFixture, MonotoneInTau) {
  const Timestamp t = 600.0;
  const auto flows = AllFlows(*engine_, t);
  std::set<PoiId> previous;  // result at the previous (smaller) tau
  bool first = true;
  for (size_t rank : {size_t{15}, size_t{8}, size_t{3}, size_t{1}, size_t{0}}) {
    const double tau = MidTau(flows, rank);
    if (tau <= 0.0) continue;
    const auto result = EstimatesToFlows(engine_->Run(
        {.ts = t,
         .te = t,
         .objective = Objective::kThreshold,
         .algorithm = Algorithm::kJoin,
         .tau = tau}));
    std::set<PoiId> current;
    for (const PoiFlow& f : result) current.insert(f.poi);
    if (!first) {
      // Raising tau can only shrink the result set.
      for (PoiId id : current) EXPECT_TRUE(previous.contains(id));
      EXPECT_LE(current.size(), previous.size());
    }
    previous = std::move(current);
    first = false;
  }
}

TEST_F(ThresholdFixture, AboveMaxFlowIsEmpty) {
  const Timestamp t = 600.0;
  const auto flows = AllFlows(*engine_, t);
  const double tau = MidTau(flows, 0);  // strictly above the maximum
  EXPECT_TRUE(EstimatesToFlows(engine_->Run(
      {.ts = t,
       .te = t,
       .objective = Objective::kThreshold,
       .algorithm = Algorithm::kIterative,
       .tau = tau})).empty());
  EXPECT_TRUE(EstimatesToFlows(engine_->Run(
      {.ts = t,
       .te = t,
       .objective = Objective::kThreshold,
       .algorithm = Algorithm::kJoin,
       .tau = tau})).empty());
  EXPECT_TRUE(
      EstimatesToFlows(engine_->Run({.interval = true,
                                     .ts = 500.0,
                                     .te = 700.0,
                                     .objective = Objective::kThreshold,
                                     .algorithm = Algorithm::kJoin,
                                     .tau = 1e9})).empty());
}

TEST_F(ThresholdFixture, SubsetRestrictsCandidates) {
  const Timestamp t = 600.0;
  const auto flows = AllFlows(*engine_, t);
  std::vector<PoiId> subset;
  for (const auto& [id, flow] : flows) {
    if (id % 3 == 0) subset.push_back(id);
  }
  const double tau = MidTau(flows, 10);
  if (tau <= 0.0) GTEST_SKIP() << "degenerate flows";
  const auto result =
      EstimatesToFlows(engine_->Run({.ts = t,
                                     .te = t,
                                     .objective = Objective::kThreshold,
                                     .algorithm = Algorithm::kIterative,
                                     .tau = tau,
                                     .subset = &subset}));
  for (const PoiFlow& f : result) {
    EXPECT_EQ(f.poi % 3, 0) << "POI outside the subset";
    EXPECT_GE(f.flow, tau);
  }
  // Every subset POI clearing tau appears.
  size_t expected = 0;
  for (PoiId id : subset) expected += flows.at(id) >= tau ? 1 : 0;
  EXPECT_EQ(result.size(), expected);
}

TEST_F(ThresholdFixture, JoinPrunesAtSelectiveThresholds) {
  // A selective threshold lets the join's bound cutoff skip most POIs,
  // while the iterative algorithm always evaluates all of them. Snapshot
  // flows are sparse and distinct (unlike saturated interval flows), so
  // the count bounds genuinely separate hot from cold POIs here.
  const Timestamp t = 600.0;
  const auto flows = AllFlows(*engine_, t);
  const double tau = MidTau(flows, 1);
  if (tau <= 0.0) GTEST_SKIP() << "tied top flows";

  QueryStats join_stats;
  const auto join =
      EstimatesToFlows(engine_->Run({.ts = t,
                                     .te = t,
                                     .objective = Objective::kThreshold,
                                     .algorithm = Algorithm::kJoin,
                                     .tau = tau}, {.stats = &join_stats}));
  QueryStats iter_stats;
  const auto iter =
      EstimatesToFlows(engine_->Run({.ts = t,
                                     .te = t,
                                     .objective = Objective::kThreshold,
                                     .algorithm = Algorithm::kIterative,
                                     .tau = tau}, {.stats = &iter_stats}));
  ASSERT_EQ(join.size(), iter.size());
  EXPECT_LT(join_stats.pois_evaluated, iter_stats.pois_evaluated);
  EXPECT_LE(join_stats.presence_evaluations,
            iter_stats.presence_evaluations);
}

TEST_F(ThresholdFixture, StatsAccumulateAcrossCalls) {
  QueryStats stats;
  engine_->Run({.ts = 600.0,
                .te = 600.0,
                .objective = Objective::kThreshold,
                .algorithm = Algorithm::kJoin,
                .tau = 0.5}, {.stats = &stats});
  const int64_t first = stats.pois_evaluated;
  engine_->Run({.ts = 600.0,
                .te = 600.0,
                .objective = Objective::kThreshold,
                .algorithm = Algorithm::kJoin,
                .tau = 0.5}, {.stats = &stats});
  EXPECT_EQ(stats.pois_evaluated, 2 * first);
}

// Threshold semantics on an empty window: no tracked objects -> no POI
// reaches any positive tau.
TEST_F(ThresholdFixture, QuietWindowIsEmpty) {
  const auto result =
      EstimatesToFlows(engine_->Run({.ts = -100.0,
                                     .te = -100.0,
                                     .objective = Objective::kThreshold,
                                     .algorithm = Algorithm::kJoin,
                                     .tau = 0.01}));
  EXPECT_TRUE(result.empty());
  const auto iter =
      EstimatesToFlows(engine_->Run({.ts = -100.0,
                                     .te = -100.0,
                                     .objective = Objective::kThreshold,
                                     .algorithm = Algorithm::kIterative,
                                     .tau = 0.01}));
  EXPECT_TRUE(iter.empty());
}

// One tau precondition for both algorithms: a threshold query with a
// non-positive or NaN tau aborts on the engine's check, so the iterative
// path can no longer silently return every POI where the join aborts.
using ThresholdDeathTest = ThresholdFixture;

void ExpectTauRejected(const QueryEngine& engine, Algorithm algorithm) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(engine.Run({.ts = 600.0,
                           .te = 600.0,
                           .objective = Objective::kThreshold,
                           .algorithm = algorithm,
                           .tau = 0.0}),
               "INDOORFLOW_CHECK failed at .*: .*tau > 0");
  EXPECT_DEATH(engine.Run({.ts = 600.0,
                           .te = 600.0,
                           .objective = Objective::kThreshold,
                           .algorithm = algorithm,
                           .tau = -0.5}),
               "INDOORFLOW_CHECK failed at .*: .*tau > 0");
  EXPECT_DEATH(engine.Run({.interval = true,
                           .ts = 400.0,
                           .te = 800.0,
                           .objective = Objective::kThreshold,
                           .algorithm = algorithm,
                           .tau = std::nan("")}),
               "INDOORFLOW_CHECK failed at .*: .*tau > 0");
}

TEST_F(ThresholdDeathTest, IterativeRejectsNonPositiveTau) {
  ExpectTauRejected(*engine_, Algorithm::kIterative);
}

TEST_F(ThresholdDeathTest, JoinRejectsNonPositiveTau) {
  ExpectTauRejected(*engine_, Algorithm::kJoin);
}

}  // namespace
}  // namespace indoorflow
