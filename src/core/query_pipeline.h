// The query pipeline behind QueryEngine::Run: snapshot top-k (paper
// Problem 1, Section 4.2) and interval top-k (Problem 2, Section 4.3),
// each with the iterative algorithm (Algorithms 1 / 4) or the best-first
// join (Algorithms 2 / 5), plus the threshold, density and
// sampled-estimate extensions. A QuerySpec names one such query. The time
// shape only picks the filter phase's retriever, the UR derivation and
// the R_I MBRs; everything after it, down to the per-object derive ->
// presence step, is one code path.

#ifndef INDOORFLOW_CORE_QUERY_PIPELINE_H_
#define INDOORFLOW_CORE_QUERY_PIPELINE_H_

#include <vector>

#include "src/common/status.h"
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

/// One query: its time shape, objective, algorithm, query POIs and
/// evaluation mode. The request carries its own mode, so nothing outside
/// it can reroute the query.
struct QuerySpec {
  /// Problem 2 over [ts, te] when true; Problem 1 at t = ts = te otherwise.
  bool interval = false;
  Timestamp ts = 0.0;
  Timestamp te = 0.0;
  Objective objective = Objective::kTopK;
  Algorithm algorithm = Algorithm::kIterative;
  int k = 0;         // kTopK / kDensity
  double tau = 0.0;  // kThreshold
  /// The query POIs (nullptr = all); must outlive the query.
  const std::vector<PoiId>* subset = nullptr;
  /// Exact by default. A sampled or adaptive mode applies only where
  /// IsEstimate holds; every other spec evaluates exactly.
  ApproxConfig approx = {};
};

/// Whether `spec` runs the sampling estimator: iterative flow top-k under
/// a non-exact mode. The join's early-termination bounds assume every
/// object is present, a sampled flow can straddle tau, and the density
/// division amplifies estimator noise, so every other spec is exact.
bool IsEstimate(const QuerySpec& spec);

/// The checks every boundary that takes a spec from users applies: te >=
/// ts; k in [1, 1000000] for top-k and density; tau > 0 for threshold;
/// sample_budget >= 2 when the mode is not exact (one draw has no
/// within-sample variance, so its error would be undefined).
Status ValidateQuerySpec(const QuerySpec& spec);

/// Evaluates `spec` exactly over the query POIs `ids`, indexed by `poi_tree`.
/// Iterative: derive the UR of every object the AR-tree retrieves and add
/// its presences into per-POI flows. Join: build the aggregate object
/// R-tree R_I from cheap per-object MBRs (per-ellipse sub-MBRs for
/// interval queries when ctx.interval_sub_mbrs), then run the best-first
/// R_P x R_I join, deriving URs lazily into the per-query H_U table.
std::vector<PoiFlow> EvaluateQuery(const QueryContext& ctx,
                                   const RTree& poi_tree,
                                   const std::vector<PoiId>& ids,
                                   const QuerySpec& spec);

/// Approximate iterative top-k of `spec` (whose objective and algorithm
/// are ignored): when spec.approx calls for sampling (see ShouldSample),
/// evaluate a deterministic uniform subsample of the filter-phase objects
/// and return Horvitz–Thompson estimates with error bounds; otherwise
/// evaluate every object and return exact estimates. Ranking is by
/// estimated value with TopK's tie-break contract.
std::vector<FlowEstimate> EstimateQuery(const QueryContext& ctx,
                                        const RTree& poi_tree,
                                        const std::vector<PoiId>& ids,
                                        const QuerySpec& spec);

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_QUERY_PIPELINE_H_
