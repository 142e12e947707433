// Differential validation of intra-query parallelism: an engine with
// EngineConfig::threads > 1 must return bit-identical flows, identical
// work counters and the same EXPLAIN verdicts and object-cost order as a
// serial one for every query method, both algorithms and the sampled
// estimates, with and without the cross-query UR cache — across several
// dataset seeds and at two parallel thresholds (1 forces every section
// parallel; 8 also sends small join leaf lists down the one-lane path),
// under exact topology checking too, and for the default EngineConfig
// (which fans out) against threads = 1.
// This is the enforcement half of the determinism contract documented on
// QueryEngine::SnapshotTopK and on the per-object evaluation kernel in
// src/core/query_pipeline.cc.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/executor.h"
#include "src/core/engine.h"
#include "src/core/flow_matrix.h"
#include "src/core/query_profile.h"

namespace indoorflow {
namespace {

void ExpectSameFlows(const std::vector<PoiFlow>& serial,
                     const std::vector<PoiFlow>& parallel,
                     const char* what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].poi, parallel[i].poi) << what << " rank " << i;
    // Bit-identical, not approximately equal: the parallel path must not
    // reorder any floating-point accumulation.
    EXPECT_EQ(serial[i].flow, parallel[i].flow) << what << " rank " << i;
  }
}

// The work counters must match too — fan-out may not change what gets
// derived, integrated, or cache-hit, only who computes it. (The timers and
// parallel_* fields legitimately differ.)
void ExpectSameWork(const QueryStats& serial, const QueryStats& parallel,
                    const char* what) {
  EXPECT_EQ(serial.objects_retrieved, parallel.objects_retrieved) << what;
  EXPECT_EQ(serial.regions_derived, parallel.regions_derived) << what;
  EXPECT_EQ(serial.presence_evaluations, parallel.presence_evaluations)
      << what;
  EXPECT_EQ(serial.pois_evaluated, parallel.pois_evaluated) << what;
  EXPECT_EQ(serial.ur_cache_hits, parallel.ur_cache_hits) << what;
  EXPECT_EQ(serial.sample_population, parallel.sample_population) << what;
  EXPECT_EQ(serial.sample_size, parallel.sample_size) << what;
}

// EXPLAIN must not depend on who computed what either: each POI's verdict,
// flow (bit-equal) and presence count, and the order in which objects were
// derived. The derive_ns values are clock readings and legitimately differ.
void ExpectSameExplain(const QueryProfile& serial,
                       const QueryProfile& parallel, const char* what) {
  ASSERT_EQ(serial.pois.size(), parallel.pois.size()) << what;
  for (size_t i = 0; i < serial.pois.size(); ++i) {
    const QueryProfile::PoiEntry& s = serial.pois[i];
    const QueryProfile::PoiEntry& p = parallel.pois[i];
    EXPECT_EQ(s.poi, p.poi) << what << " entry " << i;
    EXPECT_EQ(s.verdict, p.verdict) << what << " poi " << s.poi;
    EXPECT_EQ(s.flow, p.flow) << what << " poi " << s.poi;
    EXPECT_EQ(s.presence_evals, p.presence_evals) << what << " poi " << s.poi;
  }
  ASSERT_EQ(serial.object_costs.size(), parallel.object_costs.size())
      << what;
  for (size_t i = 0; i < serial.object_costs.size(); ++i) {
    EXPECT_EQ(serial.object_costs[i].object,
              parallel.object_costs[i].object)
        << what << " object cost " << i;
  }
}

// Sampled estimates: value, standard error and CI bounds bit-identical.
void ExpectSameEstimates(const std::vector<FlowEstimate>& serial,
                         const std::vector<FlowEstimate>& parallel,
                         const char* what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].poi, parallel[i].poi) << what << " rank " << i;
    EXPECT_EQ(serial[i].exact, parallel[i].exact) << what << " rank " << i;
    EXPECT_EQ(serial[i].value, parallel[i].value) << what << " rank " << i;
    EXPECT_EQ(serial[i].std_err, parallel[i].std_err)
        << what << " rank " << i;
    EXPECT_EQ(serial[i].ci_low, parallel[i].ci_low) << what << " rank " << i;
    EXPECT_EQ(serial[i].ci_high, parallel[i].ci_high)
        << what << " rank " << i;
  }
}

Dataset MakeDataset(uint64_t seed, int num_objects = 12) {
  OfficeDatasetConfig config;
  config.num_objects = num_objects;
  config.duration = 900.0;
  config.seed = seed;
  return GenerateOfficeDataset(config);
}

// parallel_threshold = 1 forces every parallel section when threads > 1;
// larger values leave sections below it (small join leaf lists) serial.
std::unique_ptr<QueryEngine> MakeEngine(
    const Dataset& dataset, int threads, bool cache,
    int parallel_threshold = 1,
    TopologyMode topology = EngineConfig{}.topology) {
  EngineConfig config;
  config.threads = threads;
  config.topology = topology;
  config.parallel_threshold = parallel_threshold;
  config.ur_cache.enabled = cache;
  return std::make_unique<QueryEngine>(dataset, config);
}

// Runs the full query matrix (six methods x two algorithms x three
// timestamps) against both engines and asserts bit-identity throughout.
// The engines must be fresh so cache state evolves identically.
void RunMatrix(const QueryEngine& serial, const QueryEngine& parallel) {
  const std::vector<Timestamp> times = {150.0, 450.0, 750.0};
  const Algorithm algos[] = {Algorithm::kIterative, Algorithm::kJoin};
  constexpr int kK = 6;
  constexpr double kTau = 0.4;
  for (const Algorithm algo : algos) {
    for (const Timestamp t : times) {
      QueryStats ss, ps;
      QueryProfile sp, pp;
      ExpectSameFlows(serial.SnapshotTopK(t, kK, algo, nullptr, &ss, &sp),
                      parallel.SnapshotTopK(t, kK, algo, nullptr, &ps, &pp),
                      "SnapshotTopK");
      ExpectSameWork(ss, ps, "SnapshotTopK");
      ExpectSameExplain(sp, pp, "SnapshotTopK");
      ss.Reset();
      ps.Reset();
      sp = QueryProfile();
      pp = QueryProfile();
      ExpectSameFlows(
          serial.IntervalTopK(t, t + 120.0, kK, algo, nullptr, &ss, &sp),
          parallel.IntervalTopK(t, t + 120.0, kK, algo, nullptr, &ps, &pp),
          "IntervalTopK");
      ExpectSameWork(ss, ps, "IntervalTopK");
      ExpectSameExplain(sp, pp, "IntervalTopK");
      ss.Reset();
      ps.Reset();
      sp = QueryProfile();
      pp = QueryProfile();
      ExpectSameFlows(
          EstimatesToFlows(serial.Run(
              {.ts = t,
               .te = t,
               .objective = Objective::kThreshold,
               .algorithm = algo,
               .tau = kTau}, {.stats = &ss, .profile = &sp})),
          EstimatesToFlows(parallel.Run(
              {.ts = t,
               .te = t,
               .objective = Objective::kThreshold,
               .algorithm = algo,
               .tau = kTau}, {.stats = &ps, .profile = &pp})),
          "SnapshotThreshold");
      ExpectSameWork(ss, ps, "SnapshotThreshold");
      ExpectSameExplain(sp, pp, "SnapshotThreshold");
      ss.Reset();
      ps.Reset();
      sp = QueryProfile();
      pp = QueryProfile();
      ExpectSameFlows(
          EstimatesToFlows(serial.Run(
              {.interval = true,
               .ts = t,
               .te = t + 120.0,
               .objective = Objective::kThreshold,
               .algorithm = algo,
               .tau = kTau}, {.stats = &ss, .profile = &sp})),
          EstimatesToFlows(parallel.Run(
              {.interval = true,
               .ts = t,
               .te = t + 120.0,
               .objective = Objective::kThreshold,
               .algorithm = algo,
               .tau = kTau}, {.stats = &ps, .profile = &pp})),
          "IntervalThreshold");
      ExpectSameWork(ss, ps, "IntervalThreshold");
      ExpectSameExplain(sp, pp, "IntervalThreshold");
      ss.Reset();
      ps.Reset();
      sp = QueryProfile();
      pp = QueryProfile();
      ExpectSameFlows(
          EstimatesToFlows(serial.Run(
              {.ts = t,
               .te = t,
               .objective = Objective::kDensity,
               .algorithm = algo,
               .k = kK}, {.stats = &ss, .profile = &sp})),
          EstimatesToFlows(parallel.Run(
              {.ts = t,
               .te = t,
               .objective = Objective::kDensity,
               .algorithm = algo,
               .k = kK}, {.stats = &ps, .profile = &pp})),
          "SnapshotDensityTopK");
      ExpectSameWork(ss, ps, "SnapshotDensityTopK");
      ExpectSameExplain(sp, pp, "SnapshotDensityTopK");
      ss.Reset();
      ps.Reset();
      sp = QueryProfile();
      pp = QueryProfile();
      ExpectSameFlows(
          EstimatesToFlows(serial.Run(
              {.interval = true,
               .ts = t,
               .te = t + 120.0,
               .objective = Objective::kDensity,
               .algorithm = algo,
               .k = kK}, {.stats = &ss, .profile = &sp})),
          EstimatesToFlows(parallel.Run(
              {.interval = true,
               .ts = t,
               .te = t + 120.0,
               .objective = Objective::kDensity,
               .algorithm = algo,
               .k = kK}, {.stats = &ps, .profile = &pp})),
          "IntervalDensityTopK");
      ExpectSameWork(ss, ps, "IntervalDensityTopK");
      ExpectSameExplain(sp, pp, "IntervalDensityTopK");
    }
  }
  // Sampled estimates (iterative only): a budget below the population, so
  // the Horvitz–Thompson path really subsamples.
  ApproxConfig approx;
  approx.mode = ApproxMode::kSampled;
  approx.sample_budget = 3;
  for (const Timestamp t : times) {
    QueryStats ss, ps;
    QueryProfile sp, pp;
    ExpectSameEstimates(
        serial.Run({.ts = t,
                    .te = t,
                    .k = kK,
                    .approx = approx}, {.stats = &ss, .profile = &sp}),
        parallel.Run({.ts = t,
                      .te = t,
                      .k = kK,
                      .approx = approx}, {.stats = &ps, .profile = &pp}),
        "SnapshotTopKEstimate");
    EXPECT_LT(ss.sample_size, ss.sample_population) << "t=" << t;
    ExpectSameWork(ss, ps, "SnapshotTopKEstimate");
    EXPECT_EQ(ss.sample_size, ps.sample_size);
    EXPECT_EQ(ss.sample_population, ps.sample_population);
    ExpectSameExplain(sp, pp, "SnapshotTopKEstimate");
    ss.Reset();
    ps.Reset();
    sp = QueryProfile();
    pp = QueryProfile();
    ExpectSameEstimates(
        serial.Run({.interval = true,
                    .ts = t,
                    .te = t + 120.0,
                    .k = kK,
                    .approx = approx}, {.stats = &ss, .profile = &sp}),
        parallel.Run({.interval = true,
                      .ts = t,
                      .te = t + 120.0,
                      .k = kK,
                      .approx = approx}, {.stats = &ps, .profile = &pp}),
        "IntervalTopKEstimate");
    EXPECT_LT(ss.sample_size, ss.sample_population) << "t=" << t;
    ExpectSameWork(ss, ps, "IntervalTopKEstimate");
    EXPECT_EQ(ss.sample_size, ps.sample_size);
    EXPECT_EQ(ss.sample_population, ps.sample_population);
    ExpectSameExplain(sp, pp, "IntervalTopKEstimate");
  }
}

TEST(ParallelDifferentialTest, AllMethodsBitIdenticalAcrossSeeds) {
  for (const uint64_t seed : {uint64_t{321}, uint64_t{99}, uint64_t{7}}) {
    SCOPED_TRACE(seed);
    const Dataset dataset = MakeDataset(seed);
    for (const int threshold : {1, 8}) {
      SCOPED_TRACE(threshold);
      const auto serial = MakeEngine(dataset, 1, /*cache=*/false, threshold);
      const auto parallel =
          MakeEngine(dataset, 8, /*cache=*/false, threshold);
      RunMatrix(*serial, *parallel);
    }
  }
}

// Same matrix with the cross-query UR cache on: the parallel path shares
// the cache's synchronized lookups/inserts, and repeated timestamps must
// produce identical hit counts and flows on both engines.
TEST(ParallelDifferentialTest, BitIdenticalWithUrCache) {
  const Dataset dataset = MakeDataset(321);
  for (const int threshold : {1, 8}) {
    SCOPED_TRACE(threshold);
    const auto serial = MakeEngine(dataset, 1, /*cache=*/true, threshold);
    const auto parallel = MakeEngine(dataset, 8, /*cache=*/true, threshold);
    RunMatrix(*serial, *parallel);
    // Second pass hits the warm cache.
    RunMatrix(*serial, *parallel);
  }
}

// Exact topology checking runs its reachability scratch per thread
// (src/core/topology_check.cc); parallel lanes must still agree with a
// serial engine bit for bit.
TEST(ParallelDifferentialTest, BitIdenticalWithExactTopology) {
  const Dataset dataset = MakeDataset(321);
  const auto serial =
      MakeEngine(dataset, 1, /*cache=*/false, 1, TopologyMode::kExact);
  const auto parallel =
      MakeEngine(dataset, 8, /*cache=*/false, 1, TopologyMode::kExact);
  RunMatrix(*serial, *parallel);
}

// The default EngineConfig fans out (threads = 0: the executor's full
// width, default parallel_threshold) and must still match a serial engine
// row for row, in EXPLAIN and in every work counter. Enough objects that
// iterative sections clear the default threshold.
TEST(ParallelDifferentialTest, DefaultConfigMatchesSerial) {
  const Dataset dataset = MakeDataset(7, /*num_objects=*/100);
  EngineConfig serial_config;
  serial_config.threads = 1;
  const QueryEngine serial(dataset, serial_config);
  const QueryEngine fanned(dataset, EngineConfig{});
  RunMatrix(serial, fanned);
  if (Executor::ResolveThreads(EngineConfig{}.threads) > 1) {
    QueryStats stats;
    fanned.IntervalTopK(300.0, 600.0, 6, Algorithm::kIterative, nullptr,
                        &stats);
    EXPECT_GT(stats.parallel_tasks, 0);
  }
}

// A default-config join fans its long leaf lists out, and its phase times
// stay meaningful: presence_ns sums per-worker presence time and topk_ns
// is the traversal's wall time outside the leaf lists, neither reading 0.
TEST(ParallelDifferentialTest, DefaultConfigJoinBooksPhaseTimes) {
  const Dataset dataset = MakeDataset(7, /*num_objects=*/100);
  const QueryEngine engine(dataset, EngineConfig{});
  QueryStats stats;
  engine.IntervalTopK(0.0, 900.0, 6, Algorithm::kJoin, nullptr, &stats);
  ASSERT_GT(stats.regions_derived, 0);
  ASSERT_GT(stats.presence_evaluations, 0);
  EXPECT_GT(stats.derive_ns, 0);
  EXPECT_GT(stats.presence_ns, 0);
  EXPECT_GT(stats.topk_ns, 0);
  if (Executor::ResolveThreads(EngineConfig{}.threads) > 1) {
    EXPECT_GT(stats.parallel_tasks, 0);
  }
}

// A parallel query must actually record fan-out when forced.
TEST(ParallelDifferentialTest, ParallelStatsRecorded) {
  const Dataset dataset = MakeDataset(321);
  const auto parallel = MakeEngine(dataset, 8, /*cache=*/false);
  QueryStats stats;
  parallel->SnapshotTopK(450.0, 6, Algorithm::kIterative, nullptr, &stats);
  EXPECT_GT(stats.parallel_tasks, 0);
  const auto serial = MakeEngine(dataset, 1, /*cache=*/false);
  stats.Reset();
  serial->SnapshotTopK(450.0, 6, Algorithm::kIterative, nullptr, &stats);
  EXPECT_EQ(stats.parallel_tasks, 0);
  EXPECT_EQ(stats.parallel_ns, 0);
}

// Batch and FlowMatrix fan-out ride the same executor; their results must
// be independent of the thread count as well.
TEST(ParallelDifferentialTest, BatchAndMatrixIndependentOfThreads) {
  const Dataset dataset = MakeDataset(99);
  const auto engine = MakeEngine(dataset, 1, /*cache=*/false);
  std::vector<Timestamp> times;
  for (double t = 50.0; t < 900.0; t += 50.0) times.push_back(t);
  const auto one =
      engine->SnapshotTopKBatch(times, 5, Algorithm::kJoin, nullptr, 1);
  const auto many =
      engine->SnapshotTopKBatch(times, 5, Algorithm::kJoin, nullptr, 8);
  ASSERT_EQ(one.size(), many.size());
  for (size_t i = 0; i < one.size(); ++i) {
    ExpectSameFlows(one[i], many[i], "SnapshotTopKBatch");
  }

  FlowMatrixOptions options;
  options.bucket_seconds = 90.0;
  options.threads = 1;
  const FlowMatrix serial_matrix =
      FlowMatrix::Build(*engine, 0.0, 900.0, options);
  options.threads = 8;
  const FlowMatrix parallel_matrix =
      FlowMatrix::Build(*engine, 0.0, 900.0, options);
  ASSERT_EQ(serial_matrix.num_buckets(), parallel_matrix.num_buckets());
  ASSERT_EQ(serial_matrix.num_pois(), parallel_matrix.num_pois());
  for (size_t b = 0; b < serial_matrix.num_buckets(); ++b) {
    for (size_t p = 0; p < serial_matrix.num_pois(); ++p) {
      EXPECT_EQ(serial_matrix.FlowAt(b, static_cast<PoiId>(p)),
                parallel_matrix.FlowAt(b, static_cast<PoiId>(p)))
          << "bucket " << b << " poi " << p;
    }
  }
}

}  // namespace
}  // namespace indoorflow
