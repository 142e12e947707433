// Object presence and POI flow (paper Definitions 1 and 2).
//
//   presence  φ(o) = area(UR(o) ∩ p) / area(p)   — in [0, 1], "the
//     probability that o is in POI p";
//   flow      Φ(p) = Σ_{o ∈ O} φ(o)              — weighted visit count.

#ifndef INDOORFLOW_CORE_FLOW_H_
#define INDOORFLOW_CORE_FLOW_H_

#include <algorithm>
#include <vector>

#include "src/geometry/area_integrator.h"
#include "src/indoor/poi.h"

namespace indoorflow {

struct FlowConfig {
  /// Presence values are computed to within this absolute error (the area
  /// integrator's tolerance is presence_tolerance * area(p)).
  double presence_tolerance = 0.01;
  /// Caps for the adaptive integrator (see AreaOptions). The cell cap
  /// bounds per-pair cost on boundary-heavy regions; the flow error it
  /// introduces is certified and, at this setting, far below the ranking
  /// gaps observed in practice.
  int max_depth = 12;
  int max_cells = 10000;
  /// POI polygons with area below this (m²) are degenerate — collapsed or
  /// self-crossing shapes whose area carries no signal. Their areas are
  /// demoted to exactly 0 at load time (EffectivePoiArea), so presence,
  /// flow, and density all treat them as zero-flow POIs and the density
  /// ranking's division by the subtree min-area aggregate never sees a
  /// near-zero divisor.
  double min_poi_area = 1e-9;
};

/// Load-time clamp for degenerate POI polygons (see
/// FlowConfig::min_poi_area): areas below the threshold become exactly 0,
/// the value every downstream guard (`Presence`, density division, join
/// bounds) already short-circuits on.
inline double EffectivePoiArea(double area, const FlowConfig& config) {
  return area >= config.min_poi_area ? area : 0.0;
}

/// φ: the fraction of the POI covered by `ur`, clamped to [0, 1].
/// `poi_area` and `poi_region` are the POI polygon's precomputed area and
/// Region wrapper (callers cache both per POI). With `work` set, the
/// integration's work counters are added to it.
double Presence(const Region& ur, double poi_area, const Region& poi_region,
                const FlowConfig& config, AreaWork* work = nullptr);

/// One POI's flow in a query result.
struct PoiFlow {
  PoiId poi = -1;
  double flow = 0.0;
};

/// Selects the k highest-flow POIs (ties broken toward lower POI id so that
/// all algorithms return identical results). `flows` is consumed.
std::vector<PoiFlow> TopK(std::vector<PoiFlow> flows, int k);

/// Selects every POI with flow >= tau, ordered by flow descending (ties
/// toward lower POI id). `flows` is consumed.
std::vector<PoiFlow> FlowsAtLeast(std::vector<PoiFlow> flows, double tau);

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_FLOW_H_
