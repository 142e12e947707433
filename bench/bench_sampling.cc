// Quality-vs-speedup for sampling-based approximate top-k
// (docs/APPROXIMATION.md): the Fig10 snapshot workload evaluated exactly
// and under increasing sample budgets.
//
// Each sampled variant publishes deterministic quality counters alongside
// its running time:
//   RecallAtK   — |top-k(exact) ∩ top-k(sampled)| / k at the paper's
//                 default k, fixed sampler seed;
//   MeanRelErr  — mean |estimate - exact| / exact over the exact top-k;
//   SamplePopulation / SampleBudget — the n-of-N the estimator saw.
// tools/bench_compare.py diffs the counters against bench/baseline.json
// (quality regressions fail loudly even when timings hold), and CI's
// warn-only gate (tools/check_sampling_quality.py) checks RecallAtK at the
// default budget.
//
// The dataset is the Fig10 office synthetic with the object count floored
// at 2000: sampling pays off in the population-bound regime, and the
// default INDOORFLOW_BENCH_SCALE=0.01 would leave only 300 objects —
// too few for the budget sweep to separate from exact evaluation.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/approx.h"

namespace indoorflow {
namespace {

constexpr int kBudgets[] = {64, 128, 256};
constexpr int kDefaultBudget = 256;

const Dataset& SamplingData() {
  static const Dataset* data = [] {
    OfficeDatasetConfig config;
    config.num_objects =
        std::max(2000, bench::ScaledObjects(bench::kPaperObjectsDefault));
    config.detection_range = bench::kDetectionRangeDefault;
    config.duration = bench::kObservationSeconds;
    config.seed = bench::kOfficeSeed;
    return new Dataset(GenerateOfficeDataset(config));
  }();
  return *data;
}

ApproxConfig SampledConfig(int budget) {
  ApproxConfig config;
  config.mode = ApproxMode::kSampled;
  config.sample_budget = budget;
  return config;
}

/// Recall@k and mean relative error of one sampled run against the exact
/// flows, computed once per benchmark (fixed seed, so the counters are
/// bit-stable across runs and baseline comparisons).
struct Quality {
  double recall = 0.0;
  double mean_rel_err = 0.0;
  double population = 0.0;
  double sample_size = 0.0;
};

Quality MeasureQuality(const QueryEngine& engine,
                       const std::vector<PoiId>& subset, Timestamp t,
                       int k, const ApproxConfig& approx) {
  const auto exact =
      engine.SnapshotTopK(t, static_cast<int>(subset.size()),
                          Algorithm::kIterative, &subset);
  QueryStats stats;
  const auto estimates = engine.Run({.ts = t,
                                     .te = t,
                                     .k = static_cast<int>(subset.size()),
                                     .subset = &subset,
                                     .approx = approx}, {.stats = &stats});

  std::set<PoiId> exact_top;
  for (int i = 0; i < k && i < static_cast<int>(exact.size()); ++i) {
    exact_top.insert(exact[static_cast<size_t>(i)].poi);
  }
  int hits = 0;
  for (int i = 0; i < k && i < static_cast<int>(estimates.size()); ++i) {
    hits += exact_top.count(estimates[static_cast<size_t>(i)].poi) ? 1 : 0;
  }

  std::map<PoiId, double> estimate_of;
  for (const FlowEstimate& est : estimates) {
    estimate_of[est.poi] = est.value;
  }
  double err_sum = 0.0;
  int err_count = 0;
  for (const PoiId poi : exact_top) {
    double exact_flow = 0.0;
    for (const PoiFlow& f : exact) {
      if (f.poi == poi) exact_flow = f.flow;
    }
    if (exact_flow <= 0.0) continue;
    const auto it = estimate_of.find(poi);
    const double estimate = it == estimate_of.end() ? 0.0 : it->second;
    err_sum += std::abs(estimate - exact_flow) / exact_flow;
    ++err_count;
  }

  Quality quality;
  quality.recall = exact_top.empty()
                       ? 1.0
                       : static_cast<double>(hits) /
                             static_cast<double>(exact_top.size());
  quality.mean_rel_err =
      err_count == 0 ? 0.0 : err_sum / static_cast<double>(err_count);
  quality.population = static_cast<double>(stats.sample_population);
  quality.sample_size = static_cast<double>(stats.sample_size);
  return quality;
}

/// The exact reference: the same workload every sampled variant divides
/// its running time by.
void BM_Sampling_Exact(benchmark::State& state) {
  const Dataset& data = SamplingData();
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.SnapshotTopK(t, bench::kKDefault,
                                      Algorithm::kIterative, &subset,
                                      &stats);
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel("exact");
  bench::RecordQueryStats(state, stats, queries);
}

void BM_Sampling_Budget(benchmark::State& state) {
  const int budget = static_cast<int>(state.range(0));
  const Dataset& data = SamplingData();
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  const ApproxConfig approx = SampledConfig(budget);
  const Quality quality =
      MeasureQuality(engine, subset, t, bench::kKDefault, approx);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.Run({.ts = t,
                              .te = t,
                              .k = bench::kKDefault,
                              .subset = &subset,
                              .approx = approx}, {.stats = &stats});
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel("sampled");
  state.counters["RecallAtK"] = quality.recall;
  state.counters["MeanRelErr"] = quality.mean_rel_err;
  state.counters["SamplePopulation"] = quality.population;
  state.counters["SampleBudget"] = static_cast<double>(budget);
  bench::RecordQueryStats(state, stats, queries);
}

/// Adaptive mode on the same workload: the population exceeds the switch
/// threshold, so this measures the sampled path plus the decision
/// overhead.
void BM_Sampling_Adaptive(benchmark::State& state) {
  const Dataset& data = SamplingData();
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  ApproxConfig approx = SampledConfig(kDefaultBudget);
  approx.mode = ApproxMode::kAdaptive;
  approx.adaptive_min_population = 512;
  const Quality quality =
      MeasureQuality(engine, subset, t, bench::kKDefault, approx);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.Run({.ts = t,
                              .te = t,
                              .k = bench::kKDefault,
                              .subset = &subset,
                              .approx = approx}, {.stats = &stats});
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel("adaptive");
  state.counters["RecallAtK"] = quality.recall;
  state.counters["MeanRelErr"] = quality.mean_rel_err;
  state.counters["SamplePopulation"] = quality.population;
  state.counters["SampleBudget"] =
      static_cast<double>(approx.sample_budget);
  bench::RecordQueryStats(state, stats, queries);
}

void BudgetArgs(benchmark::internal::Benchmark* b) {
  for (const int budget : kBudgets) b->Args({budget});
}

BENCHMARK(BM_Sampling_Exact)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sampling_Budget)
    ->Apply(BudgetArgs)
    ->ArgNames({"budget"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sampling_Adaptive)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace indoorflow
