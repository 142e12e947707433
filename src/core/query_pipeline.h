// The query pipeline behind every QueryEngine method: snapshot top-k
// (paper Problem 1, Section 4.2) and interval top-k (Problem 2, Section
// 4.3), each with the iterative algorithm (Algorithms 1 / 4) or the
// best-first join (Algorithms 2 / 5), plus the threshold, density and
// sampled-estimate extensions. The time shape only picks the filter
// phase's retriever, the UR derivation and the R_I MBRs; everything after
// it, down to the per-object derive -> presence step, is one code path.

#ifndef INDOORFLOW_CORE_QUERY_PIPELINE_H_
#define INDOORFLOW_CORE_QUERY_PIPELINE_H_

#include <vector>

#include "src/core/approx.h"
#include "src/core/query_context.h"

namespace indoorflow {

enum class Algorithm {
  kIterative,  // Algorithms 1 / 4
  kJoin,       // Algorithms 2 / 5
};

/// What a query ranks or filters by.
enum class Objective {
  /// The k POIs with the highest flow (the paper's queries).
  kTopK,
  /// Every POI whose flow is at least tau (> 0), flow-descending. The join
  /// stops as soon as its best remaining bound drops below tau.
  kThreshold,
  /// The k POIs with the highest crowd density Φ(p)/area(p); returned
  /// PoiFlow.flow values are densities (1/m²). The join ranks by density
  /// bounds directly (subtree flow bound / R_P min-area aggregate).
  kDensity,
};

/// One query's time shape, objective and algorithm.
struct QueryShape {
  /// Problem 2 over [ts, te] when true; Problem 1 at t = ts = te otherwise.
  bool interval = false;
  Timestamp ts = 0.0;
  Timestamp te = 0.0;
  Objective objective = Objective::kTopK;
  Algorithm algorithm = Algorithm::kIterative;
  int k = 0;         // kTopK / kDensity
  double tau = 0.0;  // kThreshold
};

/// Evaluates `shape` over the query POIs `ids`, indexed by `poi_tree`.
/// Iterative: derive the UR of every object the AR-tree retrieves and add
/// its presences into per-POI flows. Join: build the aggregate object
/// R-tree R_I from cheap per-object MBRs (per-ellipse sub-MBRs for
/// interval queries when ctx.interval_sub_mbrs), then run the best-first
/// R_P x R_I join, deriving URs lazily into the per-query H_U table.
std::vector<PoiFlow> EvaluateQuery(const QueryContext& ctx,
                                   const RTree& poi_tree,
                                   const std::vector<PoiId>& ids,
                                   const QueryShape& shape);

/// Approximate iterative top-k of `shape` (whose objective and algorithm
/// are ignored): when `approx` calls for sampling (see ShouldSample),
/// evaluate a deterministic uniform subsample of the filter-phase objects
/// and return Horvitz–Thompson estimates with error bounds; otherwise
/// evaluate every object and return exact estimates. Ranking is by
/// estimated value with TopK's tie-break contract.
std::vector<FlowEstimate> EstimateQuery(const QueryContext& ctx,
                                        const RTree& poi_tree,
                                        const std::vector<PoiId>& ids,
                                        const QueryShape& shape,
                                        const ApproxConfig& approx);

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_QUERY_PIPELINE_H_
