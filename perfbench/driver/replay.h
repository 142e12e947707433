// Outside-in replay of the iterative algorithms (paper Algorithms 1 and 4)
// built only from the library's public functions, so each layer call can
// carry its own span:
//
//   ARTree::PointQuery / RangeQuery                      index.artree
//   ResolveSnapshotState / RelevantChain
//     + UncertaintyModel::Snapshot / Interval            core.derive
//   RTree::IntersectionQuery                             index.rtree
//   Presence                                             geometry.presence
//   TopK                                                 core.topk
//
// The replay mirrors QueryEngine's default configuration (partition
// topology check, default FlowConfig and fan-outs), so its flows match
// QueryEngine::SnapshotTopK / IntervalTopK with Algorithm::kIterative.

#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <string>
#include <vector>

#include "driver/bench.h"
#include "driver/spans.h"
#include "src/core/topology_check.h"
#include "src/core/uncertainty.h"
#include "src/index/artree.h"
#include "src/index/rtree.h"

namespace perfbench {

struct TopKQuery {
  bool interval = false;
  double ts = 0.0;  // the snapshot time when !interval
  double te = 0.0;
  int k = 10;
};

/// Work seen by the replay, summed over the queries it ran.
struct ReplayCounts {
  int64_t queries = 0;
  int64_t artree_entries = 0;
  int64_t objects_derived = 0;
  int64_t pairs = 0;         // (UR, POI) pairs integrated
  int64_t useful_pairs = 0;  // pairs with presence > 0
};

class Replay {
 public:
  /// `data` must outlive the replay. Builds the AR-tree, the topology
  /// checker, the uncertainty model and the POI R-tree.
  explicit Replay(const LoadedData& data);

  /// Runs one query; records spans under one root span of layer
  /// "core.query" when `recorder` is non-null.
  std::vector<indoorflow::PoiFlow> Run(const TopKQuery& query,
                                       SpanRecorder* recorder, int64_t op,
                                       ReplayCounts* counts) const;

  double artree_build_ms() const { return artree_build_ms_; }

 private:
  struct Layers {
    int32_t query = -1, artree = -1, derive = -1, rtree = -1,
            presence = -1, topk = -1;
  };
  Layers LayersOf(SpanRecorder* recorder) const;

  const LoadedData& data_;
  indoorflow::FlowConfig flow_;
  // Declared before artree_: the AR-tree's initializer writes it.
  double artree_build_ms_ = 0.0;
  indoorflow::ARTree artree_;
  indoorflow::TopologyChecker topology_;
  indoorflow::UncertaintyModel model_;
  std::vector<indoorflow::Region> poi_regions_;
  std::vector<double> poi_areas_;
  indoorflow::RTree poi_tree_;
};

/// One top-k query through QueryEngine.
std::vector<indoorflow::PoiFlow> RunEngine(
    const indoorflow::QueryEngine& engine, const TopKQuery& query,
    indoorflow::Algorithm algorithm, indoorflow::QueryStats* stats);

/// The traced run's engine-level layer split on one workload's dataset:
/// runs `queries` through `engine` with both algorithms (QueryStats per
/// algorithm), then through the replay untraced and traced. Checks that
/// every replay answer matches the engine's kIterative answer to 1e-9 and
/// that the layer self times add up to the replay's wall time, and adds
/// the index, core and geometry per-layer metrics. Writes the spans to
/// `spans_out` when it is non-empty.
void ReplayLayers(const LoadedData& data,
                  const indoorflow::QueryEngine& engine,
                  const std::vector<TopKQuery>& queries,
                  const std::string& spans_out, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
