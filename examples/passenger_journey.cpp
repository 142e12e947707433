// Object-centric analytics (indoorflow extensions on top of the paper's
// aggregate queries):
//
//   1. BuildItinerary — reconstruct where one tracked passenger likely
//      was, POI by POI, from nothing but their symbolic tracking records.
//   2. A threshold query — "every POI with flow >= tau right now", the
//      alerting companion to the paper's top-k (the join algorithm stops
//      as soon as its flow upper bound drops below tau).
//
// Both queries run on the same office dataset the synthetic experiments
// use, so this doubles as a small tour of the per-object API surface
// (ObjectRegionAt / ActiveObjects).

#include <cstdio>
#include <vector>

#include "src/core/itinerary.h"

int main() {
  using namespace indoorflow;

  OfficeDatasetConfig data_config;
  data_config.num_objects = 60;
  data_config.duration = 3600.0;
  data_config.seed = 77;
  // Beacons inside rooms (not just at doors): the deployment density is
  // what makes symbolic tracking informative — door-only deployments leave
  // room stays undetected and the uncertainty regions balloon.
  data_config.devices_in_rooms = true;
  const Dataset office = GenerateOfficeDataset(data_config);
  std::printf("Office dataset: %d people, 1 hour, %zu tracking records\n\n",
              data_config.num_objects, office.ott.size());

  EngineConfig config;
  config.topology = TopologyMode::kPartition;
  const QueryEngine engine(office, config);

  // --- 1. One person's reconstructed day --------------------------------
  // Pick the person with the most tracking records: the reconstruction is
  // only as good as the symbolic observations behind it.
  ObjectId person = office.ott.objects().front();
  size_t best_records = 0;
  for (ObjectId o : office.ott.objects()) {
    const size_t n = office.ott.ChainOf(o).size();
    if (n > best_records) {
      best_records = n;
      person = o;
    }
  }
  std::printf("Reconstructing person %d's hour (%zu detections):\n", person,
              best_records);

  ItineraryOptions options;
  options.step = 10.0;
  // Presence is a coverage ratio (Definition 1): a 1.5m beacon disk covers
  // ~15% of a room, so even a certain stay rarely scores above ~0.2.
  options.min_presence = 0.1;
  // Keep only samples where the person is localized to roughly a device
  // range: during detection gaps the uncertainty region spans much of the
  // floor and presence saturates in every POI it covers. What remains are
  // the moments symbolic tracking can actually vouch for — mostly brief
  // sightings as the person passes a device, occasionally a longer pinned
  // stay. That sparsity is the technology's honest resolution.
  options.max_region_bounds_area = 40.0;
  const Itinerary itinerary =
      BuildItinerary(engine, person, 0.0, data_config.duration, options);
  std::printf("%10s %10s   %-18s %12s %6s\n", "from", "to", "POI",
              "mean presence", "peak");
  for (const ItineraryVisit& visit : itinerary.visits) {
    std::printf("%9.0fs %9.0fs   %-18s %13.2f %6.2f%s\n", visit.start,
                visit.end,
                office.pois[static_cast<size_t>(visit.poi)].name.c_str(),
                visit.mean_presence, visit.peak_presence,
                visit.end == visit.start ? "  (pass-by)" : "");
  }
  if (itinerary.visits.empty()) {
    std::printf("  (no visit cleared the presence threshold)\n");
  }

  // --- 2. Threshold alerting --------------------------------------------
  // Detection gaps make every room carry a baseline of diffuse presence,
  // so a useful alert threshold is relative: flag POIs within 95% of the
  // building's mid-window peak flow. The threshold join's traversal
  // stops as soon as its flow upper bound drops below tau, so the alert is
  // much cheaper than ranking everything.
  const auto peak = engine.SnapshotTopK(data_config.duration / 2.0, 1,
                                        Algorithm::kJoin);
  const double tau = peak.empty() ? 1.0 : 0.95 * peak[0].flow;
  std::printf("\nPOIs with flow >= %.1f (95%% of the midday peak):\n", tau);
  std::printf("%8s   %-60s\n", "time", "POIs over threshold (flow)");
  for (Timestamp t = 600.0; t < data_config.duration; t += 600.0) {
    const auto hot = EstimatesToFlows(engine.Run(
        {.ts = t,
         .te = t,
         .objective = Objective::kThreshold,
         .algorithm = Algorithm::kJoin,
         .tau = tau}));
    std::printf("%7.0fs   ", t);
    if (hot.empty()) {
      std::printf("-\n");
      continue;
    }
    size_t shown = 0;
    for (const PoiFlow& f : hot) {
      if (++shown > 6) break;
      std::printf("%s(%.1f) ",
                  office.pois[static_cast<size_t>(f.poi)].name.c_str(),
                  f.flow);
    }
    if (hot.size() > 6) std::printf("… +%zu more", hot.size() - 6);
    std::printf("\n");
  }

  // --- 3. Tracking coverage ---------------------------------------------
  // How many objects the index can place at all, over time.
  std::printf("\nTracked objects over time: ");
  for (Timestamp t = 600.0; t < data_config.duration; t += 600.0) {
    std::printf("%zu ", engine.ActiveObjects(t).size());
  }
  std::printf("(of %d)\n", data_config.num_objects);
  return 0;
}
