// Sampling-based approximate flow evaluation (the approximation contract).
//
// The exact query paths evaluate a presence integral for every object that
// survives the R-tree filter phase. Under heavy traffic that is the cost
// ceiling, so the engine can instead uniformly sample n of the N surviving
// objects and scale: with S the sampled set,
//
//   Φ̂(p) = (N / n) · Σ_{o ∈ S} φ_o(p)
//
// is the Horvitz–Thompson estimator of the flow Φ(p) = Σ_{o ∈ O} φ_o(p) and
// is unbiased (every object is included with probability n/N). Its variance
// under simple random sampling without replacement carries the finite
// population correction,
//
//   Var[Φ̂(p)] = N² · (1 − n/N) · s²_p / n ,
//
// where s²_p is the sample variance of the per-object presences (zero
// presences of sampled objects included). The reported ci95 is the normal
// approximation Φ̂ ± 1.96·√Var, clamped below at 0 because flows are
// non-negative. When n ≥ N the sampler degrades to exact evaluation and the
// estimate is marked exact with zero error.
//
// Sampling is deterministic: a seeded Rng (mixed from the configured seed and
// the query timestamps) drives a partial Fisher–Yates shuffle, and the chosen
// indices are re-sorted ascending so sampled evaluation visits objects in the
// same canonical order as exact evaluation. Same seed + same inputs =>
// bit-identical estimates. See docs/APPROXIMATION.md for the full contract.

#ifndef INDOORFLOW_CORE_APPROX_H_
#define INDOORFLOW_CORE_APPROX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/flow.h"

namespace indoorflow {

/// How a query evaluates per-POI flows.
enum class ApproxMode {
  /// Evaluate every surviving object. Exact queries never touch the
  /// sampling code.
  kExact,
  /// Always sample down to `sample_budget` objects (no-op when the
  /// population is already within budget).
  kSampled,
  /// Decide per query: sample only when the filter-phase population reaches
  /// `adaptive_min_population`, otherwise evaluate exactly.
  kAdaptive,
};

/// Approximate-evaluation knobs: QuerySpec::approx, the per-call argument
/// of StreamingMonitor::CurrentTopKEstimate, and the serving layer's
/// default and per-request overrides.
struct ApproxConfig {
  ApproxMode mode = ApproxMode::kExact;
  /// Maximum number of objects evaluated by a sampled query.
  /// ValidateQuerySpec rejects budgets below 2: a single draw has no
  /// within-sample variance, so its error would be undefined (see
  /// EstimateFlows).
  int64_t sample_budget = 256;
  /// kAdaptive samples only when the filter phase yields at least this many
  /// candidate objects; smaller populations are evaluated exactly.
  int64_t adaptive_min_population = 1024;
  /// Base seed for the deterministic sampler. The per-query stream is mixed
  /// from this and the query timestamps, so distinct queries draw distinct
  /// samples while repeated runs are reproducible.
  uint64_t seed = 0x1d0f10;
};

/// One POI's flow estimate. `value` is the (estimated or exact) flow;
/// `exact` is true when every candidate was evaluated, in which case
/// std_err is 0 and the interval collapses to the value. A sampled
/// estimate built from fewer than two draws has an undefined error:
/// std_err and the interval are NaN, never 0 (the boundaries require
/// sample_budget >= 2, but a live query racing eviction can still lose
/// draws). The error field is named std_err because `stderr` is a
/// <cstdio> macro.
struct FlowEstimate {
  PoiId poi = -1;
  double value = 0.0;
  bool exact = true;
  double std_err = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
};

/// "exact" | "sampled" | "adaptive".
const char* ApproxModeName(ApproxMode mode);

/// Maps an ApproxModeName spelling back to its mode; returns false
/// (leaving *mode untouched) on anything else.
bool ApproxModeFromName(const std::string& text, ApproxMode* mode);

/// Whether a query over `population` candidates should subsample under this
/// config. False whenever the budget already covers the population.
bool ShouldSample(const ApproxConfig& config, size_t population);

/// Mixes the configured base seed with the query window so distinct query
/// timestamps draw decorrelated samples deterministically.
uint64_t MixSampleSeed(uint64_t seed, double ts, double te);

/// `n` distinct indices drawn uniformly from [0, population) without
/// replacement (partial Fisher–Yates), returned sorted ascending so callers
/// evaluate sampled items in canonical order. n is clamped to population.
std::vector<size_t> SampleIndices(size_t population, size_t n, uint64_t seed);

/// Assembles Horvitz–Thompson estimates for every POI in `subset_ids` from
/// the per-POI presence sums and sums of squares accumulated over `sampled`
/// of `population` objects. With sampled >= population the result is exact;
/// with sampled < 2 (and not exact) the error fields are NaN (undefined).
/// Callers must count only observations that actually contributed to the
/// sums — an item that vanished mid-query leaves both `sampled` and
/// `population`, it is not a zero.
std::vector<FlowEstimate> EstimateFlows(
    const std::vector<PoiId>& subset_ids,
    const std::unordered_map<PoiId, double>& sums,
    const std::unordered_map<PoiId, double>& sums_sq, size_t population,
    size_t sampled);

/// Wraps exactly-evaluated flows as exact FlowEstimates (std_err 0, interval
/// collapsed to the value).
std::vector<FlowEstimate> ExactEstimates(const std::vector<PoiFlow>& flows);

/// Selects the k highest-value estimates with the same ordering contract as
/// TopK (value descending, ties toward lower POI id). `estimates` is
/// consumed.
std::vector<FlowEstimate> TopKEstimates(std::vector<FlowEstimate> estimates,
                                        int k);

/// Drops the estimate wrapper for callers that only want ranked values.
std::vector<PoiFlow> EstimatesToFlows(const std::vector<FlowEstimate>& est);

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_APPROX_H_
