// Figure 10: snapshot top-k query on the synthetic (office) dataset.
//   (a) running time vs k         — both algorithms ~stable in k;
//   (b) running time vs |P|       — slight growth with more query POIs;
// with the join algorithm outperforming the iterative one (paper §5.2.1).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace indoorflow {
namespace {

using bench::AlgoOf;

void BM_Fig10a_EffectOfK(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int algo = static_cast<int>(state.range(1));
  const Dataset& data =
      bench::OfficeData(bench::kPaperObjectsDefault,
                        bench::kDetectionRangeDefault);
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.SnapshotTopK(t, k, AlgoOf(algo), &subset, &stats);
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(bench::AlgoName(algo));
  bench::RecordQueryStats(state, stats, queries);
}

void BM_Fig10b_EffectOfP(benchmark::State& state) {
  const int percent = static_cast<int>(state.range(0));
  const int algo = static_cast<int>(state.range(1));
  const Dataset& data =
      bench::OfficeData(bench::kPaperObjectsDefault,
                        bench::kDetectionRangeDefault);
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset = bench::PoiSubset(data, percent);
  const Timestamp t = bench::SnapshotTime(data);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.SnapshotTopK(t, bench::kKDefault, AlgoOf(algo),
                                      &subset, &stats);
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(bench::AlgoName(algo));
  bench::RecordQueryStats(state, stats, queries);
}

/// Engine with the cross-query UR cache enabled, one per dataset. Kept
/// separate from bench::EngineFor so the cold-path benchmarks above keep
/// measuring (and gating) uncached derivation.
const QueryEngine& CachedEngineFor(const Dataset& data) {
  static auto* cache =
      new std::map<const Dataset*, std::unique_ptr<QueryEngine>>();
  auto it = cache->find(&data);
  if (it == cache->end()) {
    EngineConfig config;
    config.threads = 1;  // serial, like EngineFor
    config.topology = TopologyMode::kPartition;
    config.ur_cache.enabled = true;
    it = cache->emplace(&data, std::make_unique<QueryEngine>(data, config))
             .first;
  }
  return *it->second;
}

void BM_Fig10a_CachedRerun(benchmark::State& state) {
  // Rerunning the same snapshot workload against a cache-enabled engine:
  // one untimed priming query fills the cache, so the loop measures the
  // steady-state hit path. tools/bench_compare.py gates this against
  // baseline.json alongside the cold variant above.
  const int k = static_cast<int>(state.range(0));
  const int algo = static_cast<int>(state.range(1));
  const Dataset& data =
      bench::OfficeData(bench::kPaperObjectsDefault,
                        bench::kDetectionRangeDefault);
  const QueryEngine& engine = CachedEngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  benchmark::DoNotOptimize(engine.SnapshotTopK(t, k, AlgoOf(algo), &subset));
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.SnapshotTopK(t, k, AlgoOf(algo), &subset, &stats);
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(bench::AlgoName(algo));
  bench::RecordQueryStats(state, stats, queries);
}

void KArgs(benchmark::internal::Benchmark* b) {
  for (int algo = 0; algo < 2; ++algo) {
    for (int k : bench::kKValues) b->Args({k, algo});
  }
}

void PArgs(benchmark::internal::Benchmark* b) {
  for (int algo = 0; algo < 2; ++algo) {
    for (int p : bench::kPoiPercents) b->Args({p, algo});
  }
}

BENCHMARK(BM_Fig10a_EffectOfK)
    ->Apply(KArgs)
    ->ArgNames({"k", "algo"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig10a_CachedRerun)
    ->Args({bench::kKDefault, 0})
    ->Args({bench::kKDefault, 1})
    ->ArgNames({"k", "algo"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig10b_EffectOfP)
    ->Apply(PArgs)
    ->ArgNames({"P_pct", "algo"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace indoorflow
