// Operation counters for query execution.
//
// The paper's performance argument is about *work avoided*: the join
// algorithms derive uncertainty regions and evaluate presences only for
// objects/POIs that survive MBR pruning. QueryStats makes that measurable:
// pass a QueryStats to QueryEngine::SnapshotTopK / IntervalTopK and compare
// the counters across algorithms (bench_ablation prints them).

#ifndef INDOORFLOW_CORE_QUERY_STATS_H_
#define INDOORFLOW_CORE_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace indoorflow {

struct QueryStats {
  /// Objects returned by the AR-tree point/range query.
  int64_t objects_retrieved = 0;
  /// Uncertainty regions actually derived (join: only listed objects).
  int64_t regions_derived = 0;
  /// Presence integrations performed ((object, POI) pairs).
  int64_t presence_evaluations = 0;
  /// POIs whose exact flow was computed (join only; iterative computes all).
  int64_t pois_evaluated = 0;
  /// Derivations satisfied by the cross-query UR cache (src/core/ur_cache.h)
  /// instead of being derived; 0 when the engine runs without a cache.
  int64_t ur_cache_hits = 0;

  /// Per-phase wall time (nanoseconds, MonotonicNowNs deltas), filled in by
  /// the query algorithms. The phases mirror the paper's cost decomposition:
  /// retrieve (index lookup), derive (uncertainty-region construction),
  /// presence (area integrations), topk (aggregation / candidate ranking).
  int64_t retrieve_ns = 0;
  int64_t derive_ns = 0;
  int64_t presence_ns = 0;
  int64_t topk_ns = 0;

  /// Executor lanes fanned out by parallel sections of this query (0 when
  /// the query ran fully serially). When a query runs several parallel
  /// sections (e.g. multiple join batch rounds), this sums their lanes.
  /// Lanes are the sections' width: on a busy pool fewer threads run
  /// them (src/common/executor.h).
  int64_t parallel_tasks = 0;
  /// Wall time spent inside parallel sections (ns). Unlike derive_ns /
  /// presence_ns — which sum *per-worker* time and can exceed wall time
  /// when lanes overlap — this is measured once around each fan-out.
  int64_t parallel_ns = 0;

  /// Filter-phase candidate population seen by estimate queries (equals
  /// objects_retrieved for snapshot/interval estimates; 0 on exact-only
  /// query paths, which never consult the sampler).
  int64_t sample_population = 0;
  /// Candidates the estimate path actually evaluated: min(budget,
  /// population) when it sampled, the whole population when it ran exactly.
  int64_t sample_size = 0;

  void Reset() { *this = QueryStats{}; }

  QueryStats& operator+=(const QueryStats& o) {
    objects_retrieved += o.objects_retrieved;
    regions_derived += o.regions_derived;
    presence_evaluations += o.presence_evaluations;
    pois_evaluated += o.pois_evaluated;
    ur_cache_hits += o.ur_cache_hits;
    retrieve_ns += o.retrieve_ns;
    derive_ns += o.derive_ns;
    presence_ns += o.presence_ns;
    topk_ns += o.topk_ns;
    parallel_tasks += o.parallel_tasks;
    parallel_ns += o.parallel_ns;
    sample_population += o.sample_population;
    sample_size += o.sample_size;
    return *this;
  }

  QueryStats& operator-=(const QueryStats& o) {
    objects_retrieved -= o.objects_retrieved;
    regions_derived -= o.regions_derived;
    presence_evaluations -= o.presence_evaluations;
    pois_evaluated -= o.pois_evaluated;
    ur_cache_hits -= o.ur_cache_hits;
    retrieve_ns -= o.retrieve_ns;
    derive_ns -= o.derive_ns;
    presence_ns -= o.presence_ns;
    topk_ns -= o.topk_ns;
    parallel_tasks -= o.parallel_tasks;
    parallel_ns -= o.parallel_ns;
    sample_population -= o.sample_population;
    sample_size -= o.sample_size;
    return *this;
  }

  /// One flat JSON object over all fields, keyed by the snake_case
  /// names of kQueryStatsFields below. Shared by `indoorflow_cli` output
  /// and QueryProfile::ToJson so the two never drift.
  std::string ToJson() const;
};

/// The single source of truth for QueryStats field names across the JSON
/// serializations (json_name) and the benchmark counters published by
/// bench/bench_common.h (bench_name — CamelCase, pinned by
/// bench/baseline.json). `bench_name` is null for the phase timers, which
/// benchmarks report through their own timing instead.
struct QueryStatsField {
  const char* json_name;
  const char* bench_name;
  int64_t QueryStats::* member;
};

inline constexpr QueryStatsField kQueryStatsFields[] = {
    {"objects_retrieved", "ObjectsRetrieved", &QueryStats::objects_retrieved},
    {"regions_derived", "RegionsDerived", &QueryStats::regions_derived},
    {"presence_evaluations", "PresenceEvals",
     &QueryStats::presence_evaluations},
    {"pois_evaluated", "PoisEvaluated", &QueryStats::pois_evaluated},
    {"ur_cache_hits", "UrCacheHits", &QueryStats::ur_cache_hits},
    {"retrieve_ns", nullptr, &QueryStats::retrieve_ns},
    {"derive_ns", nullptr, &QueryStats::derive_ns},
    {"presence_ns", nullptr, &QueryStats::presence_ns},
    {"topk_ns", nullptr, &QueryStats::topk_ns},
    {"parallel_tasks", nullptr, &QueryStats::parallel_tasks},
    {"parallel_ns", nullptr, &QueryStats::parallel_ns},
    // bench_name deliberately null: the sampling benchmark publishes its
    // own quality counters, and keeping these out of the benchmark rows
    // keeps bench/baseline.json's counter set stable for exact suites.
    {"sample_population", nullptr, &QueryStats::sample_population},
    {"sample_size", nullptr, &QueryStats::sample_size},
};

inline std::string QueryStats::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const QueryStatsField& field : kQueryStatsFields) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(field.json_name);
    out.append("\":");
    out.append(std::to_string(this->*field.member));
  }
  out.push_back('}');
  return out;
}

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_QUERY_STATS_H_
