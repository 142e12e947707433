// Shopping-mall scenario (paper, Introduction): "the lease prices of
// different shop locations in a large shopping mall may be set according to
// the numbers of people passing by the location."
//
// We build the dedicated mall plan (a cyclic corridor loop with shops on
// the outside and anchor stores flanking a central food court), track
// shoppers over a business day slice, and rank shop POIs by average
// occupancy to derive a lease-price tier per shop.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/timeline.h"

int main() {
  using namespace indoorflow;

  MallDatasetConfig data_config;
  data_config.num_shoppers = 300;
  data_config.window = 2.0 * 3600.0;  // two hours
  data_config.detection_range = 2.0;
  data_config.min_stay = 600.0;
  data_config.max_stay = 3600.0;
  data_config.seed = 7;
  std::printf("Simulating a mall: %d shops + 2 anchors + food court, "
              "%d shoppers, 2 hours...\n",
              2 * data_config.plan.shops_per_row +
                  2 * data_config.plan.shops_per_side,
              data_config.num_shoppers);
  const Dataset mall = GenerateMallDataset(data_config);
  std::printf("  readers: %zu, tracking records: %zu\n",
              mall.deployment.size(), mall.ott.size());

  EngineConfig config;
  config.topology = TopologyMode::kPartition;
  const QueryEngine engine(mall, config);

  // Rank every POI by *average occupancy* over the two hours: the
  // time-averaged snapshot flow. (The paper's interval flow counts every
  // shopper whose uncertainty region ever touches the shop — over two
  // hours that saturates toward |O| for all shops; the occupancy average
  // discriminates.)
  std::vector<PoiFlow> ranking;
  for (const Poi& poi : mall.pois) {
    // Lease pricing concerns the shops; skip the hallway slices.
    if (poi.name.starts_with("hallway_poi_")) continue;
    const auto series = FlowTimeline(engine, poi.id, 300.0,
                                     data_config.window - 300.0, 300.0,
                                     Algorithm::kJoin);
    ranking.push_back(PoiFlow{poi.id, AverageFlow(series)});
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const PoiFlow& a, const PoiFlow& b) {
              if (a.flow != b.flow) return a.flow > b.flow;
              return a.poi < b.poi;
            });

  // Lease tiers: top quartile premium, next standard, rest economy.
  std::printf("\n%-20s %10s   %s\n", "POI", "avg occ.", "lease tier");
  const size_t quartile = ranking.size() / 4;
  for (size_t i = 0; i < std::min<size_t>(ranking.size(), 15); ++i) {
    const PoiFlow& f = ranking[i];
    const char* tier = i < quartile              ? "premium"
                       : i < 2 * quartile        ? "standard"
                                                 : "economy";
    std::printf("%-20s %10.3f   %s\n",
                mall.pois[static_cast<size_t>(f.poi)].name.c_str(), f.flow,
                tier);
  }

  // Also show instantaneous crowding at the middle of the second hour.
  std::printf("\nSnapshot top-5 at t = 5400 s:\n");
  for (const PoiFlow& f : engine.SnapshotTopK(5400.0, 5, Algorithm::kJoin)) {
    std::printf("  %-20s flow = %.3f\n",
                mall.pois[static_cast<size_t>(f.poi)].name.c_str(), f.flow);
  }

  // Flow counts people; density normalizes by POI size — the ranking the
  // safety office wants ("which spot is most *crowded* per square meter?").
  // The join answers it with density bounds directly and prunes far more
  // aggressively than with flow bounds (small POIs dominate).
  std::printf("\nDensity top-5 at t = 5400 s (people per m^2):\n");
  for (const PoiFlow& f :
       EstimatesToFlows(engine.Run({.ts = 5400.0,
                                    .te = 5400.0,
                                    .objective = Objective::kDensity,
                                    .algorithm = Algorithm::kJoin,
                                    .k = 5}))) {
    std::printf("  %-20s density = %.4f\n",
                mall.pois[static_cast<size_t>(f.poi)].name.c_str(), f.flow);
  }
  return 0;
}
