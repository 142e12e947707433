// The join-based query framework shared by Algorithms 2 and 5.
//
// Both join algorithms traverse the POI R-tree R_P and the per-query
// aggregate object R-tree R_I best-first, ordered by an upper bound on the
// flow a POI (or group of POIs) can reach: since an object's presence never
// exceeds 1 (Definition 1), the number of objects whose MBRs intersect a POI
// entry's MBR bounds its flow. Exact uncertainty regions are derived only
// for POIs that survive to the front of the queue — the algorithms' source
// of speedup over the iterative baselines.
//
// The join never derives a region or integrates a presence itself: when a
// leaf POI meets a leaf-level join list it asks one hook for the listed
// objects' presences, which the engine serves with the per-object
// evaluation kernel shared by every query path (src/core/query_pipeline.cc)
// — snapshot or interval, on one lane or many. Join-list admission against
// leaf object entries goes through AggregateRTree::Admits, which implements
// the interval sub-MBR improvement transparently.

#ifndef INDOORFLOW_CORE_PRIORITY_JOIN_H_
#define INDOORFLOW_CORE_PRIORITY_JOIN_H_

#include <functional>
#include <vector>

#include "src/common/deadline.h"
#include "src/core/flow.h"
#include "src/core/query_stats.h"
#include "src/index/aggregate_rtree.h"
#include "src/index/rtree.h"

namespace indoorflow {

struct QueryProfile;

struct PriorityJoinSpec {
  const RTree* poi_tree = nullptr;       // R_P over the query POI subset
  const AggregateRTree* objects = nullptr;  // R_I
  const std::vector<double>* poi_areas = nullptr;  // indexed by PoiId
  /// The leaf hook: fills `out`, aligned with `slots` (one leaf's join
  /// list of R_I object slots, in list order), with each object's presence
  /// in POI `poi`. The join sums them in that same order, so the flow's
  /// floating-point accumulation sequence is fixed however the hook
  /// computes them. The hook owns all derivation and presence accounting
  /// (QueryStats, EXPLAIN object costs); the join books only its own
  /// traversal (pois_evaluated, verdicts, bound trace).
  std::function<void(const std::vector<int32_t>& slots, PoiId poi,
                     std::vector<double>* out)>
      leaf_presences;
  /// Optional operation counters (may be null).
  QueryStats* stats = nullptr;
  /// Optional EXPLAIN recorder (may be null): receives per-POI bound
  /// observations, exact-flow verdicts, and the heap-pop trace.
  QueryProfile* profile = nullptr;
  /// Tighten upper bounds with geometry (an indoorflow extension over the
  /// paper's count bounds): an object's presence in any POI below a POI
  /// entry is at most area(object MBR ∩ POI-entry box) / min POI area in
  /// that subtree — usually far below 1, letting the best-first join stop
  /// earlier. Results are unchanged (the bound remains an upper bound).
  bool area_bounds = false;
  /// Per-request deadline / cancellation (may be null = never abort). The
  /// best-first loop polls it once per heap pop and returns early — with
  /// whatever was already emitted — once it trips; the engine's caller
  /// detects the abort via control->Aborted() and discards the partial
  /// result.
  const QueryControl* control = nullptr;
  /// Rank by crowd density Φ(p) / area(p) instead of raw flow (an
  /// indoorflow extension — "the most crowded POIs"). Bounds divide by the
  /// subtree's minimum POI area (the R_P min-value aggregate), so the
  /// division preserves the upper-bound property. Emitted PoiFlow.flow
  /// values are densities (1/m²).
  bool density = false;
};

/// Runs the best-first join and returns the top-k POIs by flow. POIs whose
/// flow is zero are appended (in id order) only if fewer than k POIs have
/// positive flow; `subset_ids` lists the queried POIs for that padding.
std::vector<PoiFlow> PriorityJoinTopK(const PriorityJoinSpec& spec, int k,
                                      const std::vector<PoiId>& subset_ids);

/// Runs the best-first join and returns every POI whose flow is at least
/// `tau` (> 0, checked by the engine), ordered by flow descending (ties
/// toward lower POI id). Termination is bound-driven: the traversal stops
/// as soon as the queue's best upper bound drops below `tau`, so a
/// selective threshold touches only the hottest corner of the join — the
/// same work-avoidance that makes the top-k join fast at small k.
std::vector<PoiFlow> PriorityJoinThreshold(const PriorityJoinSpec& spec,
                                           double tau);

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_PRIORITY_JOIN_H_
