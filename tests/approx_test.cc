// Tests for sampling-based approximate evaluation (src/core/approx.h and
// its engine/streaming integration): the deterministic sampler, the
// Horvitz–Thompson estimator and its error bounds (empirical 95% CI
// coverage over repeated seeds), adaptive exact<->sampled switching, and
// the differential guarantee that approx=exact stays bit-identical to the
// pre-approximation query paths.

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/core/approx.h"
#include "src/core/engine.h"
#include "src/core/query_profile.h"
#include "src/core/streaming.h"
#include "src/sim/generators.h"

namespace indoorflow {
namespace {

// ---------------------------------------------------------------------------
// Primitives.

TEST(ApproxPrimitivesTest, ModeNamesRoundTrip) {
  for (const ApproxMode mode :
       {ApproxMode::kExact, ApproxMode::kSampled, ApproxMode::kAdaptive}) {
    ApproxMode parsed = ApproxMode::kExact;
    ASSERT_TRUE(ApproxModeFromName(ApproxModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  ApproxMode parsed = ApproxMode::kSampled;
  EXPECT_FALSE(ApproxModeFromName("bogus", &parsed));
  EXPECT_EQ(parsed, ApproxMode::kSampled);  // untouched on failure
}

TEST(ApproxPrimitivesTest, ShouldSampleHonorsBudgetAndMode) {
  ApproxConfig config;
  config.sample_budget = 10;

  config.mode = ApproxMode::kExact;
  EXPECT_FALSE(ShouldSample(config, 1000));

  config.mode = ApproxMode::kSampled;
  EXPECT_TRUE(ShouldSample(config, 1000));
  EXPECT_FALSE(ShouldSample(config, 10));  // budget covers the population
  EXPECT_FALSE(ShouldSample(config, 5));

  config.mode = ApproxMode::kAdaptive;
  config.adaptive_min_population = 100;
  EXPECT_FALSE(ShouldSample(config, 99));
  EXPECT_TRUE(ShouldSample(config, 100));
  EXPECT_TRUE(ShouldSample(config, 1000));

  config.sample_budget = 0;  // no budget, never sample
  EXPECT_FALSE(ShouldSample(config, 1000));
}

TEST(ApproxPrimitivesTest, SampleIndicesDeterministicSortedDistinct) {
  const auto a = SampleIndices(100, 10, 42);
  const auto b = SampleIndices(100, 10, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const std::set<size_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (const size_t index : a) EXPECT_LT(index, 100u);

  const auto c = SampleIndices(100, 10, 43);
  EXPECT_NE(a, c) << "distinct seeds should draw distinct samples";

  // Budget >= population degrades to the identity permutation.
  const auto all = SampleIndices(5, 10, 42);
  EXPECT_EQ(all, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ApproxPrimitivesTest, MixSampleSeedSeparatesQueries) {
  const uint64_t base = 7;
  EXPECT_EQ(MixSampleSeed(base, 100.0, 200.0),
            MixSampleSeed(base, 100.0, 200.0));
  EXPECT_NE(MixSampleSeed(base, 100.0, 200.0),
            MixSampleSeed(base, 100.0, 300.0));
  EXPECT_NE(MixSampleSeed(base, 100.0, 200.0),
            MixSampleSeed(base + 1, 100.0, 200.0));
}

TEST(ApproxPrimitivesTest, EstimateFlowsExactWhenPopulationCovered) {
  std::unordered_map<PoiId, double> sums{{0, 2.5}, {1, 0.5}};
  std::unordered_map<PoiId, double> sums_sq{{0, 1.0}, {1, 0.25}};
  const auto estimates = EstimateFlows({0, 1, 2}, sums, sums_sq, 4, 4);
  ASSERT_EQ(estimates.size(), 3u);
  for (const FlowEstimate& est : estimates) {
    EXPECT_TRUE(est.exact);
    EXPECT_EQ(est.std_err, 0.0);
    EXPECT_EQ(est.ci_low, est.value);
    EXPECT_EQ(est.ci_high, est.value);
  }
  EXPECT_EQ(estimates[0].value, 2.5);
  EXPECT_EQ(estimates[1].value, 0.5);
  EXPECT_EQ(estimates[2].value, 0.0);  // absent => zero flow
}

TEST(ApproxPrimitivesTest, EstimateFlowsScalesAndBoundsError) {
  // 2 of 8 objects sampled, both with presence 1.0 at POI 0: the HT
  // estimate is (8/2) * 2 = 8 with zero sample variance.
  std::unordered_map<PoiId, double> sums{{0, 2.0}};
  std::unordered_map<PoiId, double> sums_sq{{0, 2.0}};
  const auto estimates = EstimateFlows({0}, sums, sums_sq, 8, 2);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_FALSE(estimates[0].exact);
  EXPECT_DOUBLE_EQ(estimates[0].value, 8.0);
  EXPECT_DOUBLE_EQ(estimates[0].std_err, 0.0);

  // Mixed presences carry positive error, and the interval brackets the
  // point estimate with the low end clamped at zero.
  sums[0] = 1.0;
  sums_sq[0] = 1.0;
  const auto noisy = EstimateFlows({0}, sums, sums_sq, 8, 2);
  EXPECT_GT(noisy[0].std_err, 0.0);
  EXPECT_GE(noisy[0].ci_low, 0.0);
  EXPECT_LT(noisy[0].ci_low, noisy[0].value);
  EXPECT_GT(noisy[0].ci_high, noisy[0].value);
}

TEST(ApproxPrimitivesTest, EstimateFlowsSingleSampleErrorUndefined) {
  // One draw from eight still scales the point estimate, but a single
  // sample carries no within-sample variance: the error is undefined
  // (NaN), never a confident 0.
  std::unordered_map<PoiId, double> sums{{0, 1.0}};
  std::unordered_map<PoiId, double> sums_sq{{0, 1.0}};
  const auto estimates = EstimateFlows({0}, sums, sums_sq, 8, 1);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_FALSE(estimates[0].exact);
  EXPECT_DOUBLE_EQ(estimates[0].value, 8.0);
  EXPECT_TRUE(std::isnan(estimates[0].std_err));
  EXPECT_TRUE(std::isnan(estimates[0].ci_low));
  EXPECT_TRUE(std::isnan(estimates[0].ci_high));
}

TEST(ApproxPrimitivesTest, TopKEstimatesMatchesTopKContract) {
  std::vector<FlowEstimate> estimates;
  for (const auto& [poi, value] :
       std::vector<std::pair<PoiId, double>>{{3, 1.0}, {1, 2.0}, {2, 2.0}}) {
    FlowEstimate est;
    est.poi = poi;
    est.value = value;
    estimates.push_back(est);
  }
  const auto top = TopKEstimates(estimates, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].poi, 1);  // tie at 2.0 broken toward the lower id
  EXPECT_EQ(top[1].poi, 2);
  EXPECT_TRUE(TopKEstimates(estimates, 0).empty());
  EXPECT_EQ(TopKEstimates(estimates, 10).size(), 3u);
}

// ---------------------------------------------------------------------------
// Engine integration.

class ApproxEngineFixture : public ::testing::Test {
 protected:
  ApproxEngineFixture() {
    OfficeDatasetConfig config;
    config.num_objects = 60;
    config.duration = 900.0;
    config.seed = 7;
    dataset_ = GenerateOfficeDataset(config);
  }

  QueryEngine MakeEngine() const {
    EngineConfig config;
    config.vmax = dataset_.vmax;
    return QueryEngine(dataset_, config);
  }

  int AllPois() const { return static_cast<int>(dataset_.pois.size()); }

  Dataset dataset_;
  const Timestamp t_ = 450.0;
  const Timestamp ts_ = 300.0;
  const Timestamp te_ = 600.0;
};

// Flows compare with == on purpose: the exact mode's contract is
// bit-identity, not closeness.
void ExpectSameFlows(const std::vector<PoiFlow>& a,
                     const std::vector<PoiFlow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].poi, b[i].poi) << "rank " << i;
    EXPECT_EQ(a[i].flow, b[i].flow) << "rank " << i;
  }
}

TEST_F(ApproxEngineFixture, ExactModeIsBitIdenticalAcrossQueryMethods) {
  const QueryEngine plain = MakeEngine();
  ApproxConfig exact;
  exact.mode = ApproxMode::kExact;
  const QueryEngine configured = MakeEngine();

  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    ExpectSameFlows(plain.SnapshotTopK(t_, AllPois(), algo),
                    configured.SnapshotTopK(t_, AllPois(), algo));
    ExpectSameFlows(plain.IntervalTopK(ts_, te_, AllPois(), algo),
                    configured.IntervalTopK(ts_, te_, AllPois(), algo));
  }

  // The estimate API in exact mode returns the same flows too, flagged
  // exact with collapsed intervals.
  const auto reference = plain.SnapshotTopK(t_, AllPois(),
                                            Algorithm::kIterative);
  const auto estimates =
      configured.Run({.ts = t_, .te = t_, .k = AllPois(), .approx = exact});
  ExpectSameFlows(reference, EstimatesToFlows(estimates));
  for (const FlowEstimate& est : estimates) {
    EXPECT_TRUE(est.exact);
    EXPECT_EQ(est.std_err, 0.0);
  }
  ExpectSameFlows(
      plain.IntervalTopK(ts_, te_, AllPois(), Algorithm::kIterative),
      EstimatesToFlows(configured.Run({.interval = true,
                                       .ts = ts_,
                                       .te = te_,
                                       .k = AllPois(),
                                       .approx = exact})));
}

TEST_F(ApproxEngineFixture, SampledModeIsDeterministicPerSeed) {
  ApproxConfig sampled;
  sampled.mode = ApproxMode::kSampled;
  sampled.sample_budget = 16;
  const QueryEngine engine = MakeEngine();

  const QuerySpec spec{.ts = t_, .te = t_, .k = AllPois(), .approx = sampled};
  const auto first = engine.Run(spec);
  const auto second = engine.Run(spec);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].poi, second[i].poi);
    EXPECT_EQ(first[i].value, second[i].value);
    EXPECT_EQ(first[i].std_err, second[i].std_err);
  }

  ApproxConfig reseeded = sampled;
  reseeded.seed = sampled.seed + 1;
  const auto other = engine.Run(
      {.ts = t_, .te = t_, .k = AllPois(), .approx = reseeded});
  bool any_difference = false;
  for (size_t i = 0; i < first.size() && i < other.size(); ++i) {
    any_difference = any_difference || first[i].poi != other[i].poi ||
                     first[i].value != other[i].value;
  }
  EXPECT_TRUE(any_difference) << "a new seed should draw a new sample";
}

TEST_F(ApproxEngineFixture, RunSamplesOnlyIterativeFlowTopK) {
  // Join, threshold and density specs never sample: under a sampled mode
  // Run returns the exact spec's rows and work counters bit for bit, and
  // every row is exact (the join's bounds assume every object is present).
  ApproxConfig sampled;
  sampled.mode = ApproxMode::kSampled;
  sampled.sample_budget = 16;
  const QueryEngine engine = MakeEngine();

  std::vector<QuerySpec> specs;
  for (const bool interval : {false, true}) {
    const QuerySpec base{.interval = interval,
                         .ts = interval ? ts_ : t_,
                         .te = interval ? te_ : t_,
                         .algorithm = Algorithm::kJoin,
                         .k = AllPois()};
    specs.push_back(base);
    for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
      QuerySpec threshold = base;
      threshold.objective = Objective::kThreshold;
      threshold.algorithm = algo;
      threshold.k = 0;
      threshold.tau = 0.5;
      specs.push_back(threshold);
      QuerySpec density = base;
      density.objective = Objective::kDensity;
      density.algorithm = algo;
      specs.push_back(density);
    }
  }
  for (QuerySpec spec : specs) {
    QueryStats exact_stats;
    const auto exact = engine.Run(spec, {.stats = &exact_stats});
    spec.approx = sampled;
    ASSERT_FALSE(IsEstimate(spec));
    QueryStats sampled_stats;
    const auto rows = engine.Run(spec, {.stats = &sampled_stats});
    ASSERT_FALSE(rows.empty());
    ASSERT_EQ(rows.size(), exact.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].poi, exact[i].poi) << "rank " << i;
      EXPECT_EQ(rows[i].value, exact[i].value) << "rank " << i;
      EXPECT_TRUE(rows[i].exact) << "rank " << i;
      EXPECT_EQ(rows[i].std_err, 0.0) << "rank " << i;
    }
    for (const QueryStatsField& field : kQueryStatsFields) {
      if (std::string_view(field.json_name).ends_with("_ns")) continue;
      EXPECT_EQ(sampled_stats.*field.member, exact_stats.*field.member)
          << field.json_name;
    }
  }

  // The one spec that does sample, for contrast.
  const QuerySpec top_k{
      .ts = t_, .te = t_, .k = AllPois(), .approx = sampled};
  ASSERT_TRUE(IsEstimate(top_k));
  bool any_estimated = false;
  for (const FlowEstimate& est : engine.Run(top_k)) {
    any_estimated = any_estimated || !est.exact;
  }
  EXPECT_TRUE(any_estimated);
}

TEST_F(ApproxEngineFixture, AdaptiveSwitchesOnPopulation) {
  ApproxConfig adaptive;
  adaptive.mode = ApproxMode::kAdaptive;
  adaptive.sample_budget = 8;
  const QueryEngine engine = MakeEngine();

  // Threshold above any possible population: evaluates exactly.
  adaptive.adaptive_min_population = 1 << 20;
  QueryStats exact_stats;
  const auto exact_estimates =
      engine.Run({.ts = t_, .te = t_, .k = AllPois(), .approx = adaptive},
                 {.stats = &exact_stats});
  ASSERT_FALSE(exact_estimates.empty());
  for (const FlowEstimate& est : exact_estimates) EXPECT_TRUE(est.exact);
  EXPECT_EQ(exact_stats.sample_size, exact_stats.sample_population);

  // Threshold of 1: any population >= budget samples.
  adaptive.adaptive_min_population = 1;
  QueryStats sampled_stats;
  QueryProfile profile;
  const auto sampled_estimates =
      engine.Run({.ts = t_, .te = t_, .k = AllPois(), .approx = adaptive},
                 {.stats = &sampled_stats, .profile = &profile});
  ASSERT_GT(sampled_stats.sample_population, adaptive.sample_budget)
      << "fixture must have more candidates than the budget";
  EXPECT_EQ(sampled_stats.sample_size, adaptive.sample_budget);
  EXPECT_TRUE(profile.sampled);
  EXPECT_EQ(profile.approx_mode, "adaptive");
  bool any_estimated = false;
  for (const FlowEstimate& est : sampled_estimates) {
    any_estimated = any_estimated || !est.exact;
  }
  EXPECT_TRUE(any_estimated);
}

TEST_F(ApproxEngineFixture, ConfidenceIntervalsCoverTheExactFlow) {
  const QueryEngine engine = MakeEngine();
  const auto exact =
      engine.SnapshotTopK(t_, AllPois(), Algorithm::kIterative);
  std::vector<double> exact_flow(dataset_.pois.size(), 0.0);
  for (const PoiFlow& f : exact) {
    exact_flow[static_cast<size_t>(f.poi)] = f.flow;
  }

  ApproxConfig sampled;
  sampled.mode = ApproxMode::kSampled;
  sampled.sample_budget = 24;

  int covered = 0;
  int trials = 0;
  constexpr int kSeeds = 40;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    sampled.seed = static_cast<uint64_t>(seed);
    const auto estimates = engine.Run(
        {.ts = t_, .te = t_, .k = AllPois(), .approx = sampled});
    for (const FlowEstimate& est : estimates) {
      const double truth = exact_flow[static_cast<size_t>(est.poi)];
      // Only POIs with real flow test the interval meaningfully; a POI
      // nobody visits is trivially covered by [0, 0].
      if (truth < 0.05 || est.exact) continue;
      ++trials;
      covered += (est.ci_low <= truth && truth <= est.ci_high) ? 1 : 0;
    }
  }
  ASSERT_GT(trials, 100) << "fixture too small to measure coverage";
  const double coverage = static_cast<double>(covered) / trials;
  // Nominal coverage is 0.95; the normal approximation at n=24 plus the
  // clamp at zero undercover slightly, so accept anything >= 0.85.
  EXPECT_GE(coverage, 0.85) << covered << "/" << trials;
}

// ---------------------------------------------------------------------------
// Streaming integration.

class ApproxStreamingFixture : public ::testing::Test {
 protected:
  ApproxStreamingFixture() {
    OfficeDatasetConfig config;
    config.num_objects = 60;
    config.duration = 900.0;
    config.seed = 7;
    dataset_ = GenerateOfficeDataset(config);
  }

  std::unique_ptr<StreamingMonitor> MakeMonitor() const {
    StreamingOptions options;
    options.vmax = dataset_.vmax;
    options.expiry_seconds = 1e9;
    auto monitor = std::make_unique<StreamingMonitor>(dataset_.deployment,
                                                      dataset_.pois,
                                                      options);
    std::vector<RawReading> replay;
    for (const ObjectId object : dataset_.ott.objects()) {
      for (const auto index : dataset_.ott.ChainOf(object)) {
        const TrackingRecord& record = dataset_.ott.record(index);
        replay.push_back({object, record.device_id, record.ts});
        replay.push_back({object, record.device_id, record.te});
      }
    }
    EXPECT_TRUE(monitor->IngestBatch(replay).ok());
    return monitor;
  }

  Dataset dataset_;
  const Timestamp t_ = 450.0;
};

TEST_F(ApproxStreamingFixture, ExactOptionsKeepCurrentTopKIdentical) {
  const auto plain = MakeMonitor();
  ApproxConfig exact;
  exact.mode = ApproxMode::kExact;
  const auto configured = MakeMonitor();
  const int k = static_cast<int>(dataset_.pois.size());

  ExpectSameFlows(plain->CurrentTopK(t_, k), configured->CurrentTopK(t_, k));

  // The estimate API under an exact config wraps the exact answer.
  const auto estimates = configured->CurrentTopKEstimate(t_, k, exact);
  ExpectSameFlows(plain->CurrentTopK(t_, k), EstimatesToFlows(estimates));
  for (const FlowEstimate& est : estimates) EXPECT_TRUE(est.exact);
}

TEST_F(ApproxStreamingFixture, SampledLiveQueriesAreDeterministic) {
  ApproxConfig sampled;
  sampled.mode = ApproxMode::kSampled;
  sampled.sample_budget = 16;
  const auto monitor = MakeMonitor();
  const int k = static_cast<int>(dataset_.pois.size());

  Counter& sampled_queries =
      MetricsRegistry::Default().counter("streaming.sampled_queries");
  const int64_t before = sampled_queries.value();

  const auto first = monitor->CurrentTopKEstimate(t_, k, sampled);
  const auto second = monitor->CurrentTopKEstimate(t_, k, sampled);
  ASSERT_EQ(first.size(), second.size());
  bool any_estimated = false;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].poi, second[i].poi);
    EXPECT_EQ(first[i].value, second[i].value);
    EXPECT_EQ(first[i].std_err, second[i].std_err);
    any_estimated = any_estimated || !first[i].exact;
  }
  EXPECT_TRUE(any_estimated);
  EXPECT_EQ(sampled_queries.value(), before + 2);
}

}  // namespace
}  // namespace indoorflow
