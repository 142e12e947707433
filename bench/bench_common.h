// Shared infrastructure for the paper-reproduction benchmarks.
//
// Parameters follow Table 4 of the paper (defaults in bold there):
//   |O|: 10K..50K (default 30K)   detection range: 1..2.5m (default 1.5)
//   |P|: 20..100% of 75 POIs (default 60)   k: 1..50 (default 20)
//   t_e - t_s: 10..60 min (default 20)
//
// Paper-scale datasets do not fit a 1-core CI budget, so object counts are
// multiplied by INDOORFLOW_BENCH_SCALE (default 0.01, i.e. 300 objects for
// the paper's 30K). Relative algorithm behaviour — the shapes the paper's
// figures show — is preserved; set INDOORFLOW_BENCH_SCALE=1 for full scale.

#ifndef INDOORFLOW_BENCH_BENCH_COMMON_H_
#define INDOORFLOW_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/core/engine.h"

namespace indoorflow {
namespace bench {

// ---- Deterministic seeds ---------------------------------------------------
// Every fixture RNG is seeded from these constants so repeated runs (and the
// CI regression gate's baseline comparison) measure identical workloads.

inline constexpr uint64_t kOfficeSeed = 42;
inline constexpr uint64_t kCphSeed = 7;
inline constexpr uint64_t kPoiSubsetSeed = 99;
inline constexpr uint64_t kBoxSeed = 5;
inline constexpr uint64_t kProbeSeed = 3;

// ---- Table 4 -------------------------------------------------------------

inline constexpr int kPaperObjects[] = {10000, 20000, 30000, 40000, 50000};
inline constexpr int kPaperObjectsDefault = 30000;
inline constexpr double kDetectionRanges[] = {1.0, 1.5, 2.0, 2.5};
inline constexpr double kDetectionRangeDefault = 1.5;
inline constexpr int kPoiPercents[] = {20, 40, 60, 80, 100};
inline constexpr int kPoiPercentDefault = 60;
inline constexpr int kKValues[] = {1, 5, 10, 20, 30, 40, 50};
inline constexpr int kKDefault = 20;
inline constexpr int kIntervalMinutes[] = {10, 20, 30, 40, 50, 60};
inline constexpr int kIntervalMinutesDefault = 20;

/// Observation window for the synthetic dataset (covers the longest query
/// interval with slack).
inline constexpr double kObservationSeconds = 2.0 * 3600.0;

inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("INDOORFLOW_BENCH_SCALE");
    if (env == nullptr) return 0.01;
    const double v = std::atof(env);
    return v > 0.0 ? v : 0.01;
  }();
  return scale;
}

inline int ScaledObjects(int paper_objects) {
  const int scaled = static_cast<int>(paper_objects * Scale());
  return scaled < 10 ? 10 : scaled;
}

// ---- Cached datasets and engines ------------------------------------------

/// Office dataset for (paper-scale |O|, detection range), generated once
/// per process.
inline const Dataset& OfficeData(int paper_objects, double detection_range) {
  static auto* cache = new std::map<std::pair<int, int>, Dataset>();
  const std::pair<int, int> key{paper_objects,
                                static_cast<int>(detection_range * 100)};
  auto it = cache->find(key);
  if (it == cache->end()) {
    OfficeDatasetConfig config;
    config.num_objects = ScaledObjects(paper_objects);
    config.detection_range = detection_range;
    config.duration = kObservationSeconds;
    config.seed = kOfficeSeed;
    it = cache->emplace(key, GenerateOfficeDataset(config)).first;
  }
  return it->second;
}

inline const Dataset& CphData() {
  static const Dataset* data = [] {
    CphDatasetConfig config;
    // The CPH extract tracks ~10K passengers; scale like the synthetic
    // datasets but keep at least a few hundred for meaningful queries.
    config.num_passengers = std::max(200, ScaledObjects(10000) * 2);
    config.window = kObservationSeconds;
    config.seed = kCphSeed;
    return new Dataset(GenerateCphLikeDataset(config));
  }();
  return *data;
}

/// Engine cache keyed by dataset pointer (datasets above are stable). The
/// default topology mode is the paper's partition-level check. Serial
/// (threads = 1): the paper's figures compare algorithms on one core, and
/// bench/baseline.json records them that way.
inline const QueryEngine& EngineFor(
    const Dataset& dataset, TopologyMode mode = TopologyMode::kPartition) {
  static auto* cache =
      new std::map<std::pair<const Dataset*, int>,
                   std::unique_ptr<QueryEngine>>();
  const auto key = std::make_pair(&dataset, static_cast<int>(mode));
  auto it = cache->find(key);
  if (it == cache->end()) {
    EngineConfig config;
    config.threads = 1;
    config.topology = mode;
    it = cache
             ->emplace(key,
                       std::make_unique<QueryEngine>(dataset, config))
             .first;
  }
  return *it->second;
}

/// Engine with intra-query parallelism enabled (EngineConfig::threads =
/// `threads`, parallel_threshold = 1 so the fan-out engages even at small
/// INDOORFLOW_BENCH_SCALE object counts). Cached separately from EngineFor
/// — the serial baselines must keep measuring a serial engine.
inline const QueryEngine& ParallelEngineFor(const Dataset& dataset,
                                            int threads) {
  static auto* cache = new std::map<std::pair<const Dataset*, int>,
                                    std::unique_ptr<QueryEngine>>();
  const auto key = std::make_pair(&dataset, threads);
  auto it = cache->find(key);
  if (it == cache->end()) {
    EngineConfig config;
    config.threads = threads;
    config.parallel_threshold = 1;
    it = cache
             ->emplace(key,
                       std::make_unique<QueryEngine>(dataset, config))
             .first;
  }
  return *it->second;
}

/// Deterministic random POI subset of the given percentage (paper: "the
/// query POI set is determined as a random subset of the total 75 POIs").
inline std::vector<PoiId> PoiSubset(const Dataset& dataset, int percent,
                                    uint64_t seed = kPoiSubsetSeed) {
  std::vector<PoiId> all;
  for (const Poi& poi : dataset.pois) all.push_back(poi.id);
  Rng rng(seed);
  // Fisher-Yates prefix shuffle.
  const size_t want =
      std::max<size_t>(1, all.size() * static_cast<size_t>(percent) / 100);
  for (size_t i = 0; i < want; ++i) {
    const size_t j =
        i + static_cast<size_t>(rng.UniformInt(
                static_cast<uint64_t>(all.size() - i)));
    std::swap(all[i], all[j]);
  }
  all.resize(want);
  return all;
}

/// Query anchors: mid-window snapshot time / centered interval.
inline Timestamp SnapshotTime(const Dataset& dataset) {
  return (dataset.window_start + dataset.window_end) / 2.0;
}

inline std::pair<Timestamp, Timestamp> IntervalWindow(const Dataset& dataset,
                                                      int minutes) {
  const Timestamp mid = SnapshotTime(dataset);
  const double half = minutes * 60.0 / 2.0;
  return {mid - half, mid + half};
}

inline const char* AlgoName(int algo) {
  return algo == 0 ? "iterative" : "join";
}

inline Algorithm AlgoOf(int algo) {
  return algo == 0 ? Algorithm::kIterative : Algorithm::kJoin;
}

/// Publishes per-query QueryStats averages as benchmark user counters, so
/// --benchmark_format=json carries the ablation's work-avoided data
/// machine-readably (tools/bench_compare.py also diffs these, catching
/// pruning regressions that happen not to move the median time).
inline void RecordQueryStats(benchmark::State& state, const QueryStats& stats,
                             int64_t queries) {
  if (queries <= 0) return;
  const double n = static_cast<double>(queries);
  // Counter names come from kQueryStatsFields (fields without a bench name
  // are the phase timers, which the benchmark itself already measures) —
  // bench/baseline.json keys on these names.
  for (const QueryStatsField& field : kQueryStatsFields) {
    if (field.bench_name == nullptr) continue;
    state.counters[field.bench_name] =
        static_cast<double>(stats.*field.member) / n;
  }
}

}  // namespace bench
}  // namespace indoorflow

#endif  // INDOORFLOW_BENCH_BENCH_COMMON_H_
