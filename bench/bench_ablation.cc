// Ablation benchmarks for the design choices DESIGN.md calls out:
//   1. joinInterval with vs without the finer per-ellipse sub-MBRs
//      (paper Section 4.3.2 / Figure 9);
//   2. query cost with vs without the indoor topology check (Section 3.3);
//   3. AR-tree retrieval vs a full OTT scan;
//   4. area-integrator tolerance vs presence-computation cost.

#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/common/deadline.h"
#include "src/common/trace.h"
#include "src/core/flow_matrix.h"
#include "src/core/naive.h"
#include "src/core/tracking_state.h"
#include "src/core/uncertainty.h"
#include "src/index/dynamic_rtree.h"
#include "src/geometry/area_integrator.h"

namespace indoorflow {
namespace {

const Dataset& Data() {
  return bench::OfficeData(bench::kPaperObjectsDefault,
                           bench::kDetectionRangeDefault);
}

// --- 1. Sub-MBR improvement -------------------------------------------------

void BM_Ablation_SubMbrs(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  const Dataset& data = Data();
  EngineConfig config;
  config.threads = 1;  // serial, like bench::EngineFor
  config.topology = TopologyMode::kOff;
  config.interval_sub_mbrs = enabled;
  const QueryEngine engine(data, config);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const auto [ts, te] =
      bench::IntervalWindow(data, bench::kIntervalMinutesDefault);
  for (auto _ : state) {
    auto result = engine.IntervalTopK(ts, te, bench::kKDefault,
                                      Algorithm::kJoin, &subset);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(enabled ? "sub_mbrs_on" : "sub_mbrs_off");
}
BENCHMARK(BM_Ablation_SubMbrs)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

// --- 2. Topology check cost --------------------------------------------------

void BM_Ablation_TopologyCheck(benchmark::State& state) {
  const auto mode = static_cast<TopologyMode>(state.range(0));
  const bool interval = state.range(1) != 0;
  const Dataset& data = Data();
  const QueryEngine& engine = bench::EngineFor(data, mode);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  const auto [ts, te] =
      bench::IntervalWindow(data, bench::kIntervalMinutesDefault);
  for (auto _ : state) {
    auto result =
        interval ? engine.IntervalTopK(ts, te, bench::kKDefault,
                                       Algorithm::kJoin, &subset)
                 : engine.SnapshotTopK(t, bench::kKDefault, Algorithm::kJoin,
                                       &subset);
    benchmark::DoNotOptimize(result);
  }
  const char* mode_name = mode == TopologyMode::kOff        ? "topo_off"
                          : mode == TopologyMode::kPartition ? "topo_partition"
                                                             : "topo_exact";
  state.SetLabel(std::string(mode_name) +
                 (interval ? "/interval" : "/snapshot"));
}
BENCHMARK(BM_Ablation_TopologyCheck)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->ArgNames({"topo_mode", "interval"})
    ->Unit(benchmark::kMillisecond);

// --- 2b. Pruning effectiveness (operation counts, not time) ------------------
// The join's advantage in the paper is work avoided; these counters expose
// how many uncertainty regions / presence evaluations each algorithm does.

void BM_Ablation_PruningCounters(benchmark::State& state) {
  const bool join = state.range(0) != 0;
  const int k = static_cast<int>(state.range(1));
  const Dataset& data = Data();
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const auto [ts, te] =
      bench::IntervalWindow(data, bench::kIntervalMinutesDefault);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = engine.IntervalTopK(
        ts, te, k, join ? Algorithm::kJoin : Algorithm::kIterative, &subset,
        &stats);
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(join ? "join" : "iterative");
  bench::RecordQueryStats(state, stats, queries);
}
BENCHMARK(BM_Ablation_PruningCounters)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 20})
    ->Args({1, 20})
    ->ArgNames({"join", "k"})
    ->Unit(benchmark::kMillisecond);

// --- 2b1b. Threshold queries (indoorflow extension) --------------------------
// The join's bound cutoff stops the traversal once no POI can reach tau;
// the iterative variant always computes every flow. `pct` positions tau
// relative to the snapshot's peak flow (99 = just under the peak, only the
// hottest POI qualifies; 50 = half the peak, a broad alert).

void BM_Ablation_ThresholdQuery(benchmark::State& state) {
  const bool join = state.range(0) != 0;
  const int pct = static_cast<int>(state.range(1));
  const bool area_bounds = state.range(2) != 0;
  const Dataset& data = Data();
  EngineConfig config;
  config.threads = 1;  // serial, like bench::EngineFor
  config.join_area_bounds = area_bounds;
  const QueryEngine engine(data, config);
  const Timestamp t = bench::SnapshotTime(data);
  const auto top = engine.SnapshotTopK(t, 1, Algorithm::kIterative);
  const double tau =
      top.empty() || top[0].flow <= 0.0
          ? 1.0
          : top[0].flow * static_cast<double>(pct) / 100.0;
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = EstimatesToFlows(engine.Run(
        {.ts = t,
         .te = t,
         .objective = Objective::kThreshold,
         .algorithm = join ? Algorithm::kJoin : Algorithm::kIterative,
         .tau = tau}, {.stats = &stats}));
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(std::string(join ? "join" : "iterative") +
                 (area_bounds ? "+area_bounds" : ""));
  bench::RecordQueryStats(state, stats, queries);
}
BENCHMARK(BM_Ablation_ThresholdQuery)
    ->Args({0, 99, 0})
    ->Args({1, 99, 0})
    ->Args({1, 99, 1})
    ->Args({0, 50, 0})
    ->Args({1, 50, 0})
    ->Args({1, 50, 1})
    ->ArgNames({"join", "tau_pct", "area"})
    ->Unit(benchmark::kMillisecond);

// --- 2b1c. Density top-k (indoorflow extension) ------------------------------
// Density bounds (flow bound / min POI area) prune better than raw flow
// bounds because the ranking is dominated by small POIs whose subtrees
// carry small min-areas — the counters make that visible.

void BM_Ablation_DensityQuery(benchmark::State& state) {
  const bool join = state.range(0) != 0;
  const int k = static_cast<int>(state.range(1));
  const Dataset& data = Data();
  const QueryEngine& engine = bench::EngineFor(data);
  const Timestamp t = bench::SnapshotTime(data);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result = EstimatesToFlows(engine.Run(
        {.ts = t,
         .te = t,
         .objective = Objective::kDensity,
         .algorithm = join ? Algorithm::kJoin : Algorithm::kIterative,
         .k = k}, {.stats = &stats}));
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(join ? "join" : "iterative");
  bench::RecordQueryStats(state, stats, queries);
}
BENCHMARK(BM_Ablation_DensityQuery)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 10})
    ->Args({1, 10})
    ->ArgNames({"join", "k"})
    ->Unit(benchmark::kMillisecond);

// --- 2b2. Area-aware join bounds (indoorflow extension) -----------------------

void BM_Ablation_AreaBounds(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  const int k = static_cast<int>(state.range(1));
  const Dataset& data = Data();
  EngineConfig config;
  config.threads = 1;  // serial, like bench::EngineFor
  config.join_area_bounds = enabled;
  const QueryEngine engine(data, config);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const auto [ts, te] =
      bench::IntervalWindow(data, bench::kIntervalMinutesDefault);
  QueryStats stats;
  int64_t queries = 0;
  for (auto _ : state) {
    auto result =
        engine.IntervalTopK(ts, te, k, Algorithm::kJoin, &subset, &stats);
    benchmark::DoNotOptimize(result);
    ++queries;
  }
  state.SetLabel(enabled ? "area_bounds" : "count_bounds");
  bench::RecordQueryStats(state, stats, queries);
}
BENCHMARK(BM_Ablation_AreaBounds)
    ->Args({0, 5})
    ->Args({1, 5})
    ->Args({0, 20})
    ->Args({1, 20})
    ->ArgNames({"area", "k"})
    ->Unit(benchmark::kMillisecond);

// --- 2c. R_I construction: STR bulk load vs classical insertion ---------------

void BM_Ablation_RTreeConstruction(benchmark::State& state) {
  const bool dynamic = state.range(0) != 0;
  const Dataset& data = Data();
  // Object MBRs as the join algorithms would build them.
  std::vector<Box> boxes;
  Rng rng(bench::kBoxSeed);
  const Box bounds = data.built.plan.Bounds();
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(bounds.min_x, bounds.max_x);
    const double y = rng.Uniform(bounds.min_y, bounds.max_y);
    boxes.push_back(Box{x, y, x + rng.Uniform(1, 15), y + rng.Uniform(1, 15)});
  }
  for (auto _ : state) {
    if (dynamic) {
      DynamicRTree tree(8);
      for (size_t i = 0; i < boxes.size(); ++i) {
        tree.Insert(static_cast<int32_t>(i), boxes[i]);
      }
      benchmark::DoNotOptimize(tree);
    } else {
      std::vector<RTree::Item> items;
      items.reserve(boxes.size());
      for (size_t i = 0; i < boxes.size(); ++i) {
        items.push_back(RTree::Item{static_cast<int32_t>(i), boxes[i]});
      }
      auto tree = RTree::BulkLoad(std::move(items), 8);
      benchmark::DoNotOptimize(tree);
    }
  }
  state.SetLabel(dynamic ? "guttman_insert" : "str_bulk_load");
}
BENCHMARK(BM_Ablation_RTreeConstruction)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- 2d. No-index baseline vs the engine ---------------------------------------

void BM_Ablation_NaiveVsEngine(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));  // 0 naive, 1 iter, 2 join
  const Dataset& data = Data();
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);

  const TopologyChecker checker(data.built.plan, *data.door_graph,
                                data.deployment);
  const UncertaintyModel model(data.ott, data.deployment, data.vmax,
                               &checker, TopologyMode::kPartition);
  NaiveContext naive;
  naive.table = &data.ott;
  naive.model = &model;
  naive.pois = &data.pois;

  for (auto _ : state) {
    std::vector<PoiFlow> result;
    switch (mode) {
      case 0:
        result = NaiveSnapshotTopK(naive, subset, t, bench::kKDefault);
        break;
      case 1:
        result = engine.SnapshotTopK(t, bench::kKDefault,
                                     Algorithm::kIterative, &subset);
        break;
      default:
        result = engine.SnapshotTopK(t, bench::kKDefault, Algorithm::kJoin,
                                     &subset);
        break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(mode == 0 ? "naive" : (mode == 1 ? "iterative" : "join"));
}
BENCHMARK(BM_Ablation_NaiveVsEngine)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- 2e. Materialized flows vs live queries ------------------------------------

void BM_Ablation_FlowMatrixQuery(benchmark::State& state) {
  const bool materialized = state.range(0) != 0;
  const Dataset& data = Data();
  const QueryEngine& engine = bench::EngineFor(data);
  static const FlowMatrix* matrix = [&] {
    FlowMatrixOptions options;
    options.bucket_seconds = 300.0;
    options.threads = 1;
    return new FlowMatrix(FlowMatrix::Build(
        engine, data.window_start, data.window_end, options));
  }();
  Rng rng(bench::kProbeSeed);
  for (auto _ : state) {
    const Timestamp t =
        rng.Uniform(data.window_start + 400.0, data.window_end - 400.0);
    auto result = materialized
                      ? matrix->ApproxSnapshotTopK(t, bench::kKDefault)
                      : engine.SnapshotTopK(t, bench::kKDefault,
                                            Algorithm::kJoin);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(materialized ? "flow_matrix" : "live_query");
}
BENCHMARK(BM_Ablation_FlowMatrixQuery)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- 3. AR-tree vs full scan -------------------------------------------------

void BM_Ablation_ARTreePointQuery(benchmark::State& state) {
  const Dataset& data = Data();
  const ARTree tree = ARTree::Build(data.ott);
  const Timestamp t = bench::SnapshotTime(data);
  std::vector<ARTreeEntry> out;
  for (auto _ : state) {
    tree.PointQuery(t, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel("artree");
  state.counters["hits"] = static_cast<double>(out.size());
}
BENCHMARK(BM_Ablation_ARTreePointQuery)->Unit(benchmark::kMicrosecond);

void BM_Ablation_OttScanPointQuery(benchmark::State& state) {
  const Dataset& data = Data();
  const ObjectTrackingTable& table = data.ott;
  const Timestamp t = bench::SnapshotTime(data);
  std::vector<ARTreeEntry> out;
  for (auto _ : state) {
    out.clear();
    // Equivalent retrieval without the index: walk every chain.
    for (ObjectId object : table.objects()) {
      for (RecordIndex idx : table.ChainOf(object)) {
        const TrackingRecord& cur = table.record(idx);
        const RecordIndex pre = table.PrevOf(idx);
        const Timestamp t1 =
            pre == kInvalidRecord ? cur.ts : table.record(pre).te;
        const bool covers = pre == kInvalidRecord
                                ? (t >= t1 && t <= cur.te)
                                : (t > t1 && t <= cur.te);
        if (covers) {
          out.push_back(ARTreeEntry{t1, cur.te, pre, idx,
                                    pre == kInvalidRecord});
        }
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel("full_scan");
  state.counters["hits"] = static_cast<double>(out.size());
}
BENCHMARK(BM_Ablation_OttScanPointQuery)->Unit(benchmark::kMicrosecond);

// --- 3b. Request-trace overhead (sampling off vs 100%) ---------------------
// Arg(0) is the unsampled request shape: identifiers are minted (the
// response join key) but no Trace is allocated, so every Span operation in
// the engine is a null-pointer compare. Arg(1) is a fully sampled request:
// a heap Trace, a root span, the per-query span tree, and Finish(). The
// bench gate holds the delta between the two to the tracing budget
// documented in docs/OBSERVABILITY.md.

void BM_TraceOverhead(benchmark::State& state) {
  const bool sampled = state.range(0) != 0;
  const Dataset& data = Data();
  const QueryEngine& engine = bench::EngineFor(data);
  const std::vector<PoiId> subset =
      bench::PoiSubset(data, bench::kPoiPercentDefault);
  const Timestamp t = bench::SnapshotTime(data);
  for (auto _ : state) {
    const TraceContext context = NewTraceContext(sampled ? 1.0 : 0.0);
    std::shared_ptr<Trace> trace;
    if (context.sampled) trace = std::make_shared<Trace>(context);
    Span root(trace.get(), "request");
    QueryControl control(Deadline::Infinite(), nullptr);
    control.set_span(&root);
    auto result = engine.SnapshotTopK(t, bench::kKDefault, Algorithm::kJoin,
                                      &subset, nullptr, nullptr, &control);
    benchmark::DoNotOptimize(result);
    root.End();
    if (trace != nullptr) trace->Finish();
  }
  state.SetLabel(sampled ? "sampled" : "unsampled");
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- 4. Area-integrator precision sweep ---------------------------------------

void BM_Ablation_AreaTolerance(benchmark::State& state) {
  // Presence-style integration of a ring ∩ ellipse region against a POI
  // that the region only partially covers (so the boundary must actually
  // be refined down to the requested tolerance).
  const double tolerance = 1.0 / state.range(0);
  const Region ur = Region::Intersect(
      Region::Make(ExtendedEllipse(Circle{{0, 0}, 1.5}, Circle{{12, 2}, 1.5},
                                   14.0)),
      Region::Make(Ring{{12, 2}, 1.5, 9.0}));
  const Polygon poi = Polygon::Rectangle(2, -8, 22, 12);
  const Region poi_region = Region::Make(poi);
  AreaOptions options;
  options.abs_tolerance = tolerance * poi.Area();
  options.max_depth = 20;
  double area = 0.0;
  for (auto _ : state) {
    area = AreaOfIntersection(ur, poi_region, options).area;
    benchmark::DoNotOptimize(area);
  }
  state.counters["presence"] = area / poi.Area();
}
BENCHMARK(BM_Ablation_AreaTolerance)
    ->Arg(10)      // 10% tolerance
    ->Arg(100)     // 1%
    ->Arg(1000)    // 0.1%
    ->Arg(10000)   // 0.01%
    ->ArgName("inv_tol")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace indoorflow
