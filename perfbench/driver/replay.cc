#include "driver/replay.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/core/flow.h"
#include "src/core/tracking_state.h"

namespace perfbench {

using namespace indoorflow;

namespace {

// QueryEngine's defaults, restated: EngineConfig{} fan-outs.
constexpr int kArtreeFanout = 32;
constexpr int kPoiFanout = 8;

ARTree TimedArtree(const ObjectTrackingTable& table, double* ms) {
  const int64_t start = NowNs();
  ARTree tree = ARTree::Build(table, kArtreeFanout);
  *ms = Ms(start, NowNs());
  return tree;
}

}  // namespace

Replay::Replay(const LoadedData& data)
    : data_(data),
      artree_(TimedArtree(data.ott, &artree_build_ms_)),
      topology_(data.plan, *data.graph, data.deployment),
      model_(data.ott, data.deployment, EngineConfig{}.vmax, &topology_,
             EngineConfig{}.topology) {
  std::vector<RTree::Item> items;
  for (const Poi& poi : data.pois) {
    poi_regions_.push_back(Region::Make(poi.shape));
    const double area = EffectivePoiArea(poi.Area(), flow_);
    poi_areas_.push_back(area);
    items.push_back(RTree::Item{
        poi.id, poi.shape.Bounds(),
        area > 0.0 ? area : std::numeric_limits<double>::infinity()});
  }
  poi_tree_ = RTree::BulkLoad(std::move(items), kPoiFanout);
}

Replay::Layers Replay::LayersOf(SpanRecorder* recorder) const {
  Layers l;
  if (recorder == nullptr) return l;
  l.query = recorder->Layer("core.query");
  l.artree = recorder->Layer("index.artree");
  l.derive = recorder->Layer("core.derive");
  l.rtree = recorder->Layer("index.rtree");
  l.presence = recorder->Layer("geometry.presence");
  l.topk = recorder->Layer("core.topk");
  return l;
}

std::vector<PoiFlow> Replay::Run(const TopKQuery& query,
                                 SpanRecorder* recorder, int64_t op,
                                 ReplayCounts* counts) const {
  const Layers l = LayersOf(recorder);
  ScopedSpan root(recorder, l.query, op);
  const ObjectTrackingTable& table = data_.ott;

  std::vector<ARTreeEntry> entries;
  {
    ScopedSpan span(recorder, l.artree, op);
    if (query.interval) {
      artree_.RangeQuery(query.ts, query.te, &entries);
    } else {
      artree_.PointQuery(query.ts, &entries);
    }
  }

  std::unordered_map<PoiId, double> flows;
  for (const Poi& poi : data_.pois) flows[poi.id] = 0.0;
  std::unordered_set<ObjectId> seen;
  std::vector<int32_t> candidates;
  for (const ARTreeEntry& entry : entries) {
    const ObjectId object = table.record(entry.cur).object_id;
    Region ur;
    {
      ScopedSpan span(recorder, l.derive, op);
      if (query.interval) {
        if (!seen.insert(object).second) continue;
        const IntervalChain chain =
            RelevantChain(table, object, query.ts, query.te);
        if (chain.records.empty()) continue;
        ur = model_.Interval(chain, query.ts, query.te);
      } else if (!table.has_overlaps()) {
        ur = model_.Snapshot(ResolveSnapshotState(table, entry, query.ts),
                             query.ts);
      } else {
        if (!seen.insert(object).second) continue;
        ur = model_.Snapshot(ResolveSnapshotStateAt(table, object, query.ts),
                             query.ts);
      }
    }
    if (counts != nullptr) ++counts->objects_derived;
    if (ur.IsEmpty()) continue;
    {
      ScopedSpan span(recorder, l.rtree, op);
      poi_tree_.IntersectionQuery(ur.Bounds(), &candidates);
    }
    for (const int32_t poi : candidates) {
      double presence = 0.0;
      {
        ScopedSpan span(recorder, l.presence, op);
        presence = Presence(ur, poi_areas_[static_cast<size_t>(poi)],
                            poi_regions_[static_cast<size_t>(poi)], flow_);
      }
      flows[poi] += presence;
      if (counts != nullptr) {
        ++counts->pairs;
        if (presence > 0.0) ++counts->useful_pairs;
      }
    }
  }

  ScopedSpan span(recorder, l.topk, op);
  std::vector<PoiFlow> all;
  all.reserve(flows.size());
  for (const auto& [poi, flow] : flows) all.push_back(PoiFlow{poi, flow});
  if (counts != nullptr) {
    ++counts->queries;
    counts->artree_entries += static_cast<int64_t>(entries.size());
  }
  return TopK(std::move(all), query.k);
}

std::vector<PoiFlow> RunEngine(const QueryEngine& engine,
                               const TopKQuery& query, Algorithm algorithm,
                               QueryStats* stats) {
  return query.interval
             ? engine.IntervalTopK(query.ts, query.te, query.k, algorithm,
                                   nullptr, stats)
             : engine.SnapshotTopK(query.ts, query.k, algorithm, nullptr,
                                   stats);
}

void ReplayLayers(const LoadedData& data, const QueryEngine& engine,
                  const std::vector<TopKQuery>& queries,
                  const std::string& spans_out, Result* result) {
  const Replay replay(data);
  result->Add("index.artree_build_ms", replay.artree_build_ms(), "ms");

  // The engine's answers and QueryStats, per algorithm.
  std::vector<std::vector<PoiFlow>> reference;
  QueryStats stats[2];
  int64_t k_sum = 0;
  int64_t interval_derive_ns = 0;
  int64_t interval_wall_ns = 0;
  for (const TopKQuery& q : queries) {
    for (int a = 0; a < 2; ++a) {
      QueryStats one;
      const int64_t start = NowNs();
      std::vector<PoiFlow> answer = RunEngine(
          engine, q, a == 0 ? Algorithm::kIterative : Algorithm::kJoin, &one);
      const int64_t wall = NowNs() - start;
      stats[a] += one;
      if (a == 0) {
        reference.push_back(std::move(answer));
        if (q.interval) {
          interval_derive_ns += one.derive_ns;
          interval_wall_ns += wall;
        }
      }
    }
    k_sum += q.k;
  }

  // The replay, untraced then traced; each answer must match the engine's.
  const auto check = [&](const std::vector<PoiFlow>& got, size_t i,
                         const char* mode) {
    ++result->attempted;
    if (!AgreeTopK(got, reference[i], 1e-9)) {
      ++result->failed;
      result->Fail(std::string("replay (") + mode +
                   ") disagrees with QueryEngine kIterative on query " +
                   std::to_string(i));
    }
  };
  // Untraced before and after the traced pass, so warm-up favours neither
  // side of trace.overhead_frac; the second untraced pass is the base.
  const auto untraced = [&] {
    int64_t ns = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const int64_t start = NowNs();
      const std::vector<PoiFlow> got =
          replay.Run(queries[i], nullptr, 0, nullptr);
      ns += NowNs() - start;
      check(got, i, "untraced");
    }
    return ns;
  };
  untraced();
  SpanRecorder recorder;
  ReplayCounts counts;
  int64_t traced_ns = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t start = NowNs();
    const std::vector<PoiFlow> got = replay.Run(
        queries[i], &recorder, static_cast<int64_t>(i), &counts);
    traced_ns += NowNs() - start;
    check(got, i, "traced");
  }
  const int64_t untraced_ns = untraced();

  // Self times must add up to the replay's wall time: exactly to the root
  // spans, and to the wall clock measured around them up to the clock
  // reads that bracket each root.
  const std::vector<SpanRecord>& spans = recorder.spans();
  const std::vector<int64_t> self =
      SelfNsByLayer(spans, recorder.layers().size());
  int64_t self_total = 0;
  for (const int64_t ns : self) self_total += ns;
  const int64_t root_ns = RootNs(spans);
  if (self_total != root_ns ||
      std::abs(static_cast<double>(traced_ns - root_ns)) >
          0.01 * static_cast<double>(traced_ns) + 1e6) {
    result->Fail("replay self times (" + std::to_string(self_total) +
                 " ns) do not add up to its wall time (" +
                 std::to_string(traced_ns) + " ns)");
  }

  const auto us = [&](const char* layer) {
    std::vector<double> d = DurationsNs(spans, recorder.Layer(layer));
    for (double& v : d) v /= 1e3;
    return Summarize(std::move(d));
  };
  const auto share = [&](std::initializer_list<const char*> layers) {
    int64_t ns = 0;
    for (const char* layer : layers) {
      const size_t id = static_cast<size_t>(recorder.Layer(layer));
      if (id < self.size()) ns += self[id];
    }
    return root_ns > 0 ? static_cast<double>(ns) / root_ns : 0.0;
  };
  const double n = std::max<double>(1.0, static_cast<double>(counts.queries));
  const double objects =
      std::max<double>(1.0, static_cast<double>(counts.objects_derived));
  result->Add("index.artree_us", us("index.artree").p50, "us");
  result->Add("index.entries_per_query", counts.artree_entries / n, "count");
  result->Add("index.poi_hits_per_object", counts.pairs / objects, "count");
  result->Add("index.mbr_precision",
              counts.pairs > 0 ? static_cast<double>(counts.useful_pairs) /
                                     static_cast<double>(counts.pairs)
                               : 0.0,
              "frac");
  const Summary derive = us("core.derive");
  result->Add("core.derive_us_p50", derive.p50, "us");
  result->Add("core.derive_us_tail", derive.tail, "us");
  const Summary presence = us("geometry.presence");
  result->Add("geometry.presence_us_p50", presence.p50, "us");
  result->Add("geometry.presence_us_tail", presence.tail, "us");
  result->Add("geometry.pairs_per_query", counts.pairs / n, "count");
  result->Add("core.topk_us", us("core.topk").p50, "us");
  result->Add("index.self_share", share({"index.artree", "index.rtree"}),
              "frac");
  result->Add("core.derive.self_share", share({"core.derive"}), "frac");
  result->Add("geometry.self_share", share({"geometry.presence"}), "frac");
  result->Add("core.topk.self_share", share({"core.topk"}), "frac");
  result->Add("core.query.self_share", share({"core.query"}), "frac");
  result->Add("trace.overhead_frac",
              untraced_ns > 0 ? static_cast<double>(traced_ns) /
                                        static_cast<double>(untraced_ns) -
                                    1.0
                              : 0.0,
              "frac");

  for (const auto& [name, value] : StatsCounts(stats)) {
    result->Add(name, static_cast<double>(value), "count");
  }
  result->Add("core.join_useful_frac",
              stats[1].pois_evaluated > 0
                  ? static_cast<double>(k_sum) /
                        static_cast<double>(stats[1].pois_evaluated)
                  : 0.0,
              "frac");
  result->Add("core.derive_share",
              interval_wall_ns > 0
                  ? static_cast<double>(interval_derive_ns) /
                        static_cast<double>(interval_wall_ns)
                  : 0.0,
              "frac");
  result->Count("replay.pairs", counts.pairs);
  result->Count("replay.useful_pairs", counts.useful_pairs);
  result->Count("replay.objects_derived", counts.objects_derived);
  if (!spans_out.empty() && !recorder.WriteCsv(spans_out)) {
    result->Fail("could not write spans to " + spans_out);
  }
}

}  // namespace perfbench
