// Tests for the EXPLAIN query profile (src/core/query_profile.h): the
// verdict-partition invariant across query types and algorithms, QueryStats
// and phase-time reconciliation, JSON/text rendering, the flight recorder's
// keep-the-slowest retention policy, and a concurrent profiling stress
// suite that runs under the TSan CI job (suite name matches its
// -R "Concurrency|..." test filter).

#include "src/core/query_profile.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"

namespace indoorflow {
namespace {

const Dataset& TestData() {
  static const Dataset* data = [] {
    OfficeDatasetConfig config;
    config.num_objects = 60;
    config.duration = 600.0;
    config.num_pois = 12;
    config.seed = 7;
    return new Dataset(GenerateOfficeDataset(config));
  }();
  return *data;
}

const QueryEngine& TestEngine() {
  static const QueryEngine* engine =
      new QueryEngine(TestData(), EngineConfig{});
  return *engine;
}

Timestamp MidTime() {
  const Dataset& data = TestData();
  return (data.window_start + data.window_end) / 2.0;
}

void ExpectPartition(const QueryProfile& profile, size_t poi_count) {
  EXPECT_EQ(profile.pois.size(), poi_count);
  const int64_t evaluated =
      profile.CountVerdict(QueryProfile::Verdict::kEvaluated);
  const int64_t pruned_bound =
      profile.CountVerdict(QueryProfile::Verdict::kPrunedBound);
  const int64_t pruned_mbr =
      profile.CountVerdict(QueryProfile::Verdict::kPrunedMbr);
  EXPECT_EQ(evaluated + pruned_bound + pruned_mbr,
            static_cast<int64_t>(poi_count))
      << profile.kind << "/" << profile.algorithm;
}

// --- Verdict partition across every query type x algorithm ------------------

TEST(QueryProfileTest, VerdictsPartitionPoiSetAcrossQueryTypes) {
  const QueryEngine& engine = TestEngine();
  const size_t pois = TestData().pois.size();
  const Timestamp t = MidTime();
  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    {
      QueryProfile profile;
      engine.SnapshotTopK(t, 3, algo, nullptr, nullptr, &profile);
      EXPECT_EQ(profile.kind, "SnapshotTopK");
      EXPECT_EQ(profile.algorithm,
                algo == Algorithm::kJoin ? "join" : "iterative");
      EXPECT_EQ(profile.ts, t);
      EXPECT_EQ(profile.te, t);
      EXPECT_EQ(profile.k, 3);
      EXPECT_GT(profile.total_ns, 0);
      ExpectPartition(profile, pois);
    }
    {
      QueryProfile profile;
      engine.IntervalTopK(t - 60.0, t + 60.0, 3, algo, nullptr, nullptr,
                          &profile);
      EXPECT_EQ(profile.kind, "IntervalTopK");
      EXPECT_EQ(profile.ts, t - 60.0);
      EXPECT_EQ(profile.te, t + 60.0);
      ExpectPartition(profile, pois);
    }
    {
      QueryProfile profile;
      engine.Run({.ts = t,
                  .te = t,
                  .objective = Objective::kThreshold,
                  .algorithm = algo,
                  .tau = 1.0}, {.profile = &profile});
      EXPECT_EQ(profile.kind, "SnapshotThreshold");
      EXPECT_EQ(profile.tau, 1.0);
      EXPECT_EQ(profile.k, 0);
      ExpectPartition(profile, pois);
    }
    {
      QueryProfile profile;
      engine.Run({.interval = true,
                  .ts = t - 60.0,
                  .te = t + 60.0,
                  .objective = Objective::kThreshold,
                  .algorithm = algo,
                  .tau = 1.0}, {.profile = &profile});
      EXPECT_EQ(profile.kind, "IntervalThreshold");
      ExpectPartition(profile, pois);
    }
    {
      QueryProfile profile;
      engine.Run({.ts = t,
                  .te = t,
                  .objective = Objective::kDensity,
                  .algorithm = algo,
                  .k = 3}, {.profile = &profile});
      EXPECT_EQ(profile.kind, "SnapshotDensityTopK");
      ExpectPartition(profile, pois);
    }
    {
      QueryProfile profile;
      engine.Run({.interval = true,
                  .ts = t - 60.0,
                  .te = t + 60.0,
                  .objective = Objective::kDensity,
                  .algorithm = algo,
                  .k = 3}, {.profile = &profile});
      EXPECT_EQ(profile.kind, "IntervalDensityTopK");
      ExpectPartition(profile, pois);
    }
  }
}

TEST(QueryProfileTest, SubsetQueriesPartitionTheSubset) {
  const QueryEngine& engine = TestEngine();
  const std::vector<PoiId> subset = {0, 2, 5};
  QueryProfile profile;
  engine.SnapshotTopK(MidTime(), 2, Algorithm::kJoin, &subset, nullptr,
                      &profile);
  ExpectPartition(profile, subset.size());
  for (const QueryProfile::PoiEntry& entry : profile.pois) {
    EXPECT_NE(std::find(subset.begin(), subset.end(), entry.poi),
              subset.end());
  }
}

// --- Reconciliation with QueryStats and the query results -------------------

TEST(QueryProfileTest, ProfileStatsMatchQueryStatsAndResultsUnchanged) {
  const QueryEngine& engine = TestEngine();
  const Timestamp t = MidTime();
  const auto plain = engine.SnapshotTopK(t, 5, Algorithm::kJoin);
  QueryStats stats;
  QueryProfile profile;
  const auto profiled =
      engine.SnapshotTopK(t, 5, Algorithm::kJoin, nullptr, &stats, &profile);
  ASSERT_EQ(profiled.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(profiled[i].poi, plain[i].poi);
    EXPECT_DOUBLE_EQ(profiled[i].flow, plain[i].flow);
  }
  // The profile's stats are the scope's own deltas, so a zero-initialized
  // caller QueryStats must agree field by field.
  for (const QueryStatsField& field : kQueryStatsFields) {
    EXPECT_EQ(profile.stats.*field.member, stats.*field.member)
        << field.json_name;
  }
  // Phase times reconcile with the wall total.
  const int64_t phase_sum = profile.stats.retrieve_ns +
                            profile.stats.derive_ns +
                            profile.stats.presence_ns + profile.stats.topk_ns;
  EXPECT_GT(phase_sum, 0);
  EXPECT_LE(phase_sum, profile.total_ns);
}

TEST(QueryProfileTest, EvaluatedFlowsMatchReturnedFlows) {
  const QueryEngine& engine = TestEngine();
  const int k = static_cast<int>(TestData().pois.size());
  for (const Algorithm algo : {Algorithm::kIterative, Algorithm::kJoin}) {
    QueryProfile profile;
    const auto top =
        engine.SnapshotTopK(MidTime(), k, algo, nullptr, nullptr, &profile);
    for (const PoiFlow& result : top) {
      if (result.flow <= 0.0) continue;
      const auto it = std::find_if(
          profile.pois.begin(), profile.pois.end(),
          [&result](const QueryProfile::PoiEntry& entry) {
            return entry.poi == result.poi;
          });
      ASSERT_NE(it, profile.pois.end());
      EXPECT_EQ(it->verdict, QueryProfile::Verdict::kEvaluated);
      EXPECT_NEAR(it->flow, result.flow, 1e-9 + result.flow * 1e-12);
    }
  }
}

// --- Rendering --------------------------------------------------------------

TEST(QueryProfileTest, ToJsonHasExpectedShape) {
  const QueryEngine& engine = TestEngine();
  QueryProfile profile;
  engine.SnapshotTopK(MidTime(), 3, Algorithm::kJoin, nullptr, nullptr,
                      &profile);
  const std::string json = profile.ToJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  for (const char* key :
       {"\"kind\"", "\"algorithm\"", "\"params\"", "\"total_ns\"",
        "\"stats\"", "\"verdicts\"", "\"pois\"", "\"object_costs\"",
        "\"join_trace\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(QueryProfileTest, ToTextMentionsPhasesAndFunnel) {
  const QueryEngine& engine = TestEngine();
  QueryProfile profile;
  engine.SnapshotTopK(MidTime(), 3, Algorithm::kJoin, nullptr, nullptr,
                      &profile);
  const std::string text = profile.ToText();
  for (const char* needle :
       {"query:", "phases:", "pois:", "evaluated", "pruned_bound",
        "pruned_mbr", "work:"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(QueryProfileTest, SummaryModeSkipsDetailButKeepsVerdicts) {
  const QueryEngine& engine = TestEngine();
  QueryProfile profile;
  profile.detail = false;
  engine.SnapshotTopK(MidTime(), 3, Algorithm::kJoin, nullptr, nullptr,
                      &profile);
  EXPECT_TRUE(profile.object_costs.empty());
  EXPECT_TRUE(profile.join_events.empty());
  ExpectPartition(profile, TestData().pois.size());
  EXPECT_NE(profile.ToJson().find("\"detail\":false"), std::string::npos);
}

// --- Flight recorder --------------------------------------------------------

QueryProfile ProfileWithTotal(int64_t total_ns) {
  QueryProfile profile;
  profile.kind = "Synthetic";
  profile.total_ns = total_ns;
  return profile;
}

TEST(QueryProfileTest, RecorderKeepsSlowestWithinCapacity) {
  ProfileRecorder recorder(/*capacity=*/2, /*window=*/1024);
  for (const int64_t total : {10, 40, 20, 30}) {
    recorder.Record(ProfileWithTotal(total));
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded(), 4);
  const std::string json = recorder.ToJson();
  // Slowest-first: 40 then 30; 10 and 20 were displaced.
  const size_t pos40 = json.find("\"total_ns\":40");
  const size_t pos30 = json.find("\"total_ns\":30");
  EXPECT_NE(pos40, std::string::npos) << json;
  EXPECT_NE(pos30, std::string::npos) << json;
  EXPECT_LT(pos40, pos30);
  EXPECT_EQ(json.find("\"total_ns\":10"), std::string::npos);
  EXPECT_EQ(json.find("\"total_ns\":20"), std::string::npos);
}

TEST(QueryProfileTest, RecorderWindowAgesOutOldProfiles) {
  // A burst of slow queries must not pin the buffer once `window` newer
  // queries have been recorded.
  ProfileRecorder recorder(/*capacity=*/4, /*window=*/3);
  recorder.Record(ProfileWithTotal(1000000));
  recorder.Record(ProfileWithTotal(1000000));
  for (int i = 0; i < 4; ++i) recorder.Record(ProfileWithTotal(1 + i));
  const std::string json = recorder.ToJson();
  EXPECT_EQ(json.find("\"total_ns\":1000000"), std::string::npos) << json;
  EXPECT_EQ(recorder.recorded(), 6);
}

TEST(QueryProfileTest, EngineRecordsSummaryProfilesWhenAttached) {
  QueryEngine engine(TestData(), EngineConfig{});
  ProfileRecorder recorder;
  engine.AttachProfileRecorder(&recorder);
  engine.SnapshotTopK(MidTime(), 3, Algorithm::kJoin);
  EXPECT_EQ(recorder.recorded(), 1);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"kind\":\"SnapshotTopK\""), std::string::npos)
      << json;
  // Ambient profiles are summaries: no per-object costs or join trace.
  EXPECT_NE(json.find("\"detail\":false"), std::string::npos) << json;
  // A caller-provided (detailed) profile is recorded too.
  QueryProfile profile;
  engine.IntervalTopK(MidTime() - 30.0, MidTime() + 30.0, 3,
                      Algorithm::kIterative, nullptr, nullptr, &profile);
  EXPECT_EQ(recorder.recorded(), 2);
  engine.AttachProfileRecorder(nullptr);
  engine.SnapshotTopK(MidTime(), 3, Algorithm::kJoin);
  EXPECT_EQ(recorder.recorded(), 2);
}

// --- Concurrency stress (runs under the TSan CI job) ------------------------

TEST(QueryProfileConcurrencyTest, ParallelProfiledQueriesIntoOneRecorder) {
  QueryEngine engine(TestData(), EngineConfig{});
  ProfileRecorder recorder(/*capacity=*/8, /*window=*/64);
  engine.AttachProfileRecorder(&recorder);
  const size_t pois = TestData().pois.size();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, pois, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        QueryProfile profile;
        const Timestamp when = MidTime() + 10.0 * t + i;
        if (i % 2 == 0) {
          engine.SnapshotTopK(when, 3, Algorithm::kJoin, nullptr, nullptr,
                              &profile);
        } else {
          engine.IntervalTopK(when - 30.0, when + 30.0, 3,
                              Algorithm::kIterative, nullptr, nullptr,
                              &profile);
        }
        ExpectPartition(profile, pois);
      }
    });
  }
  // Read the recorder while the queries hammer it.
  std::thread reader([&recorder] {
    for (int i = 0; i < 20; ++i) {
      const std::string json = recorder.ToJson();
      EXPECT_FALSE(json.empty());
    }
  });
  for (std::thread& thread : threads) thread.join();
  reader.join();
  EXPECT_EQ(recorder.recorded(),
            int64_t{kThreads} * kQueriesPerThread);
}

TEST(QueryProfileConcurrencyTest, BatchQueriesRecordFromWorkerThreads) {
  QueryEngine engine(TestData(), EngineConfig{});
  ProfileRecorder recorder(/*capacity=*/4, /*window=*/128);
  engine.AttachProfileRecorder(&recorder);
  std::vector<Timestamp> times;
  for (int i = 0; i < 24; ++i) times.push_back(MidTime() - 60.0 + 5.0 * i);
  const auto results =
      engine.SnapshotTopKBatch(times, 3, Algorithm::kJoin, nullptr,
                               /*threads=*/4);
  EXPECT_EQ(results.size(), times.size());
  EXPECT_EQ(recorder.recorded(), static_cast<int64_t>(times.size()));
  EXPECT_LE(recorder.size(), 4u);
}

}  // namespace
}  // namespace indoorflow
