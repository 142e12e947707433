#include "src/core/flow.h"

namespace indoorflow {

double Presence(const Region& ur, double poi_area, const Region& poi_region,
                const FlowConfig& config, AreaWork* work) {
  if (poi_area <= 0.0) return 0.0;
  AreaOptions options;
  options.abs_tolerance = config.presence_tolerance * poi_area;
  options.max_depth = config.max_depth;
  options.max_cells = config.max_cells;
  const AreaEstimate estimate = AreaOfIntersection(ur, poi_region, options);
  if (work != nullptr) *work += estimate.work;
  return std::clamp(estimate.area / poi_area, 0.0, 1.0);
}

std::vector<PoiFlow> TopK(std::vector<PoiFlow> flows, int k) {
  const auto better = [](const PoiFlow& a, const PoiFlow& b) {
    if (a.flow != b.flow) return a.flow > b.flow;
    return a.poi < b.poi;
  };
  const size_t keep = std::min<size_t>(static_cast<size_t>(std::max(k, 0)),
                                       flows.size());
  std::partial_sort(flows.begin(),
                    flows.begin() + static_cast<ptrdiff_t>(keep),
                    flows.end(), better);
  flows.resize(keep);
  return flows;
}

std::vector<PoiFlow> FlowsAtLeast(std::vector<PoiFlow> flows, double tau) {
  std::erase_if(flows, [tau](const PoiFlow& f) { return f.flow < tau; });
  std::sort(flows.begin(), flows.end(),
            [](const PoiFlow& a, const PoiFlow& b) {
              if (a.flow != b.flow) return a.flow > b.flow;
              return a.poi < b.poi;
            });
  return flows;
}

}  // namespace indoorflow
