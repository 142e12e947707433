// Differential validation of the whole query pipeline: engine flows vs a
// Monte-Carlo reference that computes each object presence by sampling the
// POI uniformly and testing membership in the derived uncertainty region.
// Exercises state resolution, chain extraction, region construction,
// topology checking, and area integration end to end.

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/naive.h"
#include "src/core/tracking_state.h"

namespace indoorflow {
namespace {

class DifferentialFixture : public ::testing::Test {
 protected:
  DifferentialFixture() {
    OfficeDatasetConfig config;
    config.num_objects = 12;
    config.duration = 900.0;
    config.seed = 321;
    dataset_ = GenerateOfficeDataset(config);
    graph_ = dataset_.door_graph.get();
    checker_ = std::make_unique<TopologyChecker>(
        dataset_.built.plan, *graph_, dataset_.deployment);
    model_ = std::make_unique<UncertaintyModel>(
        dataset_.ott, dataset_.deployment, dataset_.vmax, checker_.get(),
        TopologyMode::kPartition);
    artree_ = ARTree::Build(dataset_.ott);
  }

  // Monte-Carlo presence of `ur` in POI `poi` with N samples.
  double McPresence(const Region& ur, const Poi& poi, Rng& rng,
                    int samples) {
    const Box b = poi.shape.Bounds();
    int hits = 0;
    int in_poi = 0;
    for (int i = 0; i < samples; ++i) {
      const Point p{rng.Uniform(b.min_x, b.max_x),
                    rng.Uniform(b.min_y, b.max_y)};
      if (!poi.shape.Contains(p)) continue;
      ++in_poi;
      hits += ur.Contains(p) ? 1 : 0;
    }
    return in_poi == 0 ? 0.0
                       : static_cast<double>(hits) / in_poi *
                             (static_cast<double>(in_poi) / samples) *
                             (b.Area() / poi.Area());
  }

  Dataset dataset_;
  const DoorGraph* graph_ = nullptr;
  std::unique_ptr<TopologyChecker> checker_;
  std::unique_ptr<UncertaintyModel> model_;
  ARTree artree_;
};

TEST_F(DifferentialFixture, SnapshotFlowsMatchMonteCarlo) {
  constexpr int kSamples = 3000;
  const Timestamp t = 450.0;

  // Reference flows.
  std::vector<ARTreeEntry> entries;
  artree_.PointQuery(t, &entries);
  std::vector<Region> regions;
  for (const ARTreeEntry& le : entries) {
    regions.push_back(
        model_->Snapshot(ResolveSnapshotState(dataset_.ott, le, t), t));
  }
  Rng rng(99);
  std::vector<double> reference(dataset_.pois.size(), 0.0);
  std::vector<int> contributors(dataset_.pois.size(), 0);
  for (const Region& ur : regions) {
    for (const Poi& poi : dataset_.pois) {
      if (!ur.Bounds().Intersects(poi.shape.Bounds())) continue;
      reference[static_cast<size_t>(poi.id)] +=
          McPresence(ur, poi, rng, kSamples);
      contributors[static_cast<size_t>(poi.id)] += 1;
    }
  }

  EngineConfig engine_config;
  engine_config.topology = TopologyMode::kPartition;
  engine_config.vmax = dataset_.vmax;
  const QueryEngine engine(dataset_, engine_config);
  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    const auto flows = engine.SnapshotTopK(
        t, static_cast<int>(dataset_.pois.size()), algo);
    ASSERT_EQ(flows.size(), dataset_.pois.size());
    for (const PoiFlow& f : flows) {
      // Monte-Carlo sigma per presence ~ 0.5/sqrt(N); integration adds its
      // own 1% tolerance per contributor.
      const double n =
          static_cast<double>(contributors[static_cast<size_t>(f.poi)]);
      const double tolerance =
          5.0 * 0.5 / std::sqrt(static_cast<double>(kSamples)) *
              std::sqrt(std::max(1.0, n)) +
          0.02 * n + 1e-9;
      EXPECT_NEAR(f.flow, reference[static_cast<size_t>(f.poi)], tolerance)
          << "poi " << f.poi << " (" << n << " contributors)";
    }
  }
}

TEST_F(DifferentialFixture, IntervalFlowsMatchMonteCarlo) {
  constexpr int kSamples = 2000;
  const Timestamp ts = 300.0;
  const Timestamp te = 480.0;

  std::vector<ARTreeEntry> entries;
  artree_.RangeQuery(ts, te, &entries);
  std::vector<Region> regions;
  std::set<ObjectId> seen;
  for (const ARTreeEntry& le : entries) {
    const ObjectId object = dataset_.ott.record(le.cur).object_id;
    if (!seen.insert(object).second) continue;
    const IntervalChain chain = RelevantChain(dataset_.ott, object, ts, te);
    if (chain.records.empty()) continue;
    regions.push_back(model_->Interval(chain, ts, te));
  }

  Rng rng(77);
  std::vector<double> reference(dataset_.pois.size(), 0.0);
  std::vector<int> contributors(dataset_.pois.size(), 0);
  for (const Region& ur : regions) {
    for (const Poi& poi : dataset_.pois) {
      if (!ur.Bounds().Intersects(poi.shape.Bounds())) continue;
      reference[static_cast<size_t>(poi.id)] +=
          McPresence(ur, poi, rng, kSamples);
      contributors[static_cast<size_t>(poi.id)] += 1;
    }
  }

  EngineConfig engine_config;
  engine_config.topology = TopologyMode::kPartition;
  engine_config.vmax = dataset_.vmax;
  const QueryEngine engine(dataset_, engine_config);
  const auto flows = engine.IntervalTopK(
      ts, te, static_cast<int>(dataset_.pois.size()), Algorithm::kJoin);
  for (const PoiFlow& f : flows) {
    const double n =
        static_cast<double>(contributors[static_cast<size_t>(f.poi)]);
    const double tolerance =
        5.0 * 0.5 / std::sqrt(static_cast<double>(kSamples)) *
            std::sqrt(std::max(1.0, n)) +
        0.02 * n + 1e-9;
    EXPECT_NEAR(f.flow, reference[static_cast<size_t>(f.poi)], tolerance)
        << "poi " << f.poi;
  }
}

// The naive no-index implementation is the third witness: it must agree
// with both engine algorithms exactly (same uncertainty model, same
// integrator).
TEST_F(DifferentialFixture, NaiveMatchesEngineExactly) {
  EngineConfig engine_config;
  engine_config.topology = TopologyMode::kPartition;
  engine_config.vmax = dataset_.vmax;
  const QueryEngine engine(dataset_, engine_config);

  NaiveContext naive;
  naive.table = &dataset_.ott;
  naive.model = model_.get();
  naive.pois = &dataset_.pois;

  std::vector<PoiId> all_ids;
  for (const Poi& poi : dataset_.pois) all_ids.push_back(poi.id);
  const int k = static_cast<int>(all_ids.size());

  // Presences are accumulated in different orders, so flows agree to
  // floating-point accumulation error (~1e-12), not bit-for-bit; compare
  // per-POI maps rather than rank order.
  const auto as_map = [](const std::vector<PoiFlow>& flows) {
    std::map<PoiId, double> out;
    for (const PoiFlow& f : flows) out[f.poi] = f.flow;
    return out;
  };

  for (const Timestamp t : {150.0, 450.0, 750.0}) {
    const auto expected = as_map(NaiveSnapshotTopK(naive, all_ids, t, k));
    for (const Algorithm algo :
         {Algorithm::kIterative, Algorithm::kJoin}) {
      const auto got = as_map(engine.SnapshotTopK(t, k, algo));
      ASSERT_EQ(got.size(), expected.size());
      for (const auto& [poi, flow] : expected) {
        ASSERT_TRUE(got.contains(poi)) << "t=" << t << " poi=" << poi;
        EXPECT_NEAR(got.at(poi), flow, 1e-9) << "t=" << t << " poi=" << poi;
      }
    }
  }
  const auto expected =
      as_map(NaiveIntervalTopK(naive, all_ids, 300.0, 480.0, k));
  const auto got =
      as_map(engine.IntervalTopK(300.0, 480.0, k, Algorithm::kJoin));
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [poi, flow] : expected) {
    EXPECT_NEAR(got.at(poi), flow, 1e-9) << "poi=" << poi;
  }
}

// Threshold and density results are definable straight from the naive
// flow map, so the same witness validates the extension queries: the
// threshold result is the filtered flow map, the density result is the
// area-normalized one.
TEST_F(DifferentialFixture, ThresholdAndDensityMatchNaiveDefinition) {
  EngineConfig engine_config;
  engine_config.topology = TopologyMode::kPartition;
  engine_config.vmax = dataset_.vmax;
  const QueryEngine engine(dataset_, engine_config);

  NaiveContext naive;
  naive.table = &dataset_.ott;
  naive.model = model_.get();
  naive.pois = &dataset_.pois;

  std::vector<PoiId> all_ids;
  for (const Poi& poi : dataset_.pois) all_ids.push_back(poi.id);
  const int k = static_cast<int>(all_ids.size());
  const Timestamp t = 450.0;
  const auto reference = NaiveSnapshotTopK(naive, all_ids, t, k);
  std::map<PoiId, double> flows;
  for (const PoiFlow& f : reference) flows[f.poi] = f.flow;

  // Threshold: pick tau in the largest gap between adjacent flow values.
  std::vector<double> values;
  for (const auto& [id, flow] : flows) values.push_back(flow);
  std::sort(values.rbegin(), values.rend());
  double tau = 0.0;
  double best_gap = 0.0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i - 1] - values[i] > best_gap) {
      best_gap = values[i - 1] - values[i];
      tau = (values[i - 1] + values[i]) / 2.0;
    }
  }
  if (tau > 0.0) {
    size_t expected_count = 0;
    for (const auto& [id, flow] : flows) expected_count += flow >= tau;
    for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
      const auto hot = EstimatesToFlows(engine.Run(
          {.ts = t,
           .te = t,
           .objective = Objective::kThreshold,
           .algorithm = algo,
           .tau = tau}));
      ASSERT_EQ(hot.size(), expected_count) << "tau=" << tau;
      for (const PoiFlow& f : hot) {
        EXPECT_NEAR(f.flow, flows.at(f.poi), 1e-9);
        EXPECT_GE(f.flow, tau);
      }
    }
  }

  // Density: naive flow / POI area, per POI.
  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    const auto dense = EstimatesToFlows(engine.Run(
        {.ts = t,
         .te = t,
         .objective = Objective::kDensity,
         .algorithm = algo,
         .k = k}));
    ASSERT_EQ(dense.size(), flows.size());
    for (const PoiFlow& f : dense) {
      const double area = dataset_.pois[static_cast<size_t>(f.poi)].Area();
      ASSERT_GT(area, 0.0);
      EXPECT_NEAR(f.flow, flows.at(f.poi) / area, 1e-9) << "poi=" << f.poi;
    }
  }
}

// The UR cache must be invisible in results: a hit hands back the exact
// same shared CSG node tree the miss path would have built, so every flow
// is bit-identical — not merely close — with caching on, both on the cold
// first pass (all misses + inserts) and the warm rerun (hits). Covers the
// full query matrix: top-k / threshold / density x snapshot / interval,
// both algorithms, several timestamps.
TEST_F(DifferentialFixture, CachedResultsAreBitIdenticalAcrossQueryMatrix) {
  EngineConfig base_config;
  base_config.topology = TopologyMode::kPartition;
  base_config.vmax = dataset_.vmax;
  const QueryEngine uncached(dataset_, base_config);

  EngineConfig cached_config = base_config;
  cached_config.ur_cache.enabled = true;
  const QueryEngine cached(dataset_, cached_config);
  ASSERT_NE(cached.ur_cache(), nullptr);
  ASSERT_EQ(uncached.ur_cache(), nullptr);

  const int k = static_cast<int>(dataset_.pois.size());
  const double tau = 0.05;
  const auto expect_identical = [](const std::vector<PoiFlow>& a,
                                   const std::vector<PoiFlow>& b,
                                   const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].poi, b[i].poi) << what << " rank " << i;
      // EXPECT_EQ, not EXPECT_NEAR: bit-identical is the contract.
      EXPECT_EQ(a[i].flow, b[i].flow) << what << " rank " << i;
    }
  };

  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    for (const Timestamp t : {150.0, 450.0, 750.0}) {
      const Timestamp ts = t - 60.0;
      const Timestamp te = t + 60.0;
      // Two cached passes per query: pass 0 is cold (misses populate the
      // cache), pass 1 is warm (hits reuse it); both must equal uncached.
      for (int pass = 0; pass < 2; ++pass) {
        expect_identical(uncached.SnapshotTopK(t, k, algo),
                         cached.SnapshotTopK(t, k, algo), "snapshot topk");
        expect_identical(uncached.IntervalTopK(ts, te, k, algo),
                         cached.IntervalTopK(ts, te, k, algo),
                         "interval topk");
        const QuerySpec snapshot_threshold{
            .ts = t,
            .te = t,
            .objective = Objective::kThreshold,
            .algorithm = algo,
            .tau = tau};
        const QuerySpec interval_threshold{
            .interval = true,
            .ts = ts,
            .te = te,
            .objective = Objective::kThreshold,
            .algorithm = algo,
            .tau = tau};
        const QuerySpec snapshot_density{.ts = t,
                                         .te = t,
                                         .objective = Objective::kDensity,
                                         .algorithm = algo,
                                         .k = k};
        const QuerySpec interval_density{.interval = true,
                                         .ts = ts,
                                         .te = te,
                                         .objective = Objective::kDensity,
                                         .algorithm = algo,
                                         .k = k};
        expect_identical(EstimatesToFlows(uncached.Run(snapshot_threshold)),
                         EstimatesToFlows(cached.Run(snapshot_threshold)),
                         "snapshot threshold");
        expect_identical(EstimatesToFlows(uncached.Run(interval_threshold)),
                         EstimatesToFlows(cached.Run(interval_threshold)),
                         "interval threshold");
        expect_identical(EstimatesToFlows(uncached.Run(snapshot_density)),
                         EstimatesToFlows(cached.Run(snapshot_density)),
                         "snapshot density");
        expect_identical(EstimatesToFlows(uncached.Run(interval_density)),
                         EstimatesToFlows(cached.Run(interval_density)),
                         "interval density");
      }
    }
  }
  const UrCache::Counters counters = cached.ur_cache()->TotalCounters();
  EXPECT_GT(counters.hits, 0);
  EXPECT_GT(counters.inserts, 0);
}

// The per-query hit counter surfaces through QueryStats: a warm rerun at
// the same timestamp reports hits instead of derivations.
TEST_F(DifferentialFixture, WarmRerunBooksCacheHitsNotDerivations) {
  EngineConfig config;
  config.topology = TopologyMode::kPartition;
  config.vmax = dataset_.vmax;
  config.ur_cache.enabled = true;
  const QueryEngine engine(dataset_, config);

  QueryStats cold;
  engine.SnapshotTopK(450.0, 5, Algorithm::kIterative, nullptr, &cold);
  EXPECT_GT(cold.regions_derived, 0);
  EXPECT_EQ(cold.ur_cache_hits, 0);

  QueryStats warm;
  engine.SnapshotTopK(450.0, 5, Algorithm::kIterative, nullptr, &warm);
  EXPECT_EQ(warm.regions_derived, 0);
  EXPECT_EQ(warm.ur_cache_hits, cold.regions_derived);
}

}  // namespace
}  // namespace indoorflow
