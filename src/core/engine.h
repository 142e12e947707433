// QueryEngine: the library's main entry point.
//
// Owns the indexes and configuration and answers the paper's two query
// types with either algorithm, plus the threshold, density and sampled
// extensions, through one entrypoint:
//
//   QueryEngine engine(dataset, EngineConfig{});
//   auto top = engine.Run({.ts = t, .te = t, .algorithm = Algorithm::kJoin,
//                          .k = 5});
//   auto hot = engine.Run({.interval = true, .ts = ts, .te = te,
//                          .objective = Objective::kThreshold, .tau = 2.0});

// Thread safety: a constructed engine is safe for concurrent const use —
// any number of threads may issue queries against one instance (this is
// what SnapshotTopKBatch does internally, and what the TSan CI job
// stresses). The mutable state behind the const API is the lazily built
// full-POI-set R-tree cache, guarded by `poi_tree_mu_` and annotated for
// Clang's thread-safety analysis, and the optional cross-query
// uncertainty-region cache (src/core/ur_cache.h), which is internally
// synchronized. A `QueryStats*` out-parameter is written without
// synchronization, so pass a distinct one per thread.

#ifndef INDOORFLOW_CORE_ENGINE_H_
#define INDOORFLOW_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/query_pipeline.h"
#include "src/core/topology_check.h"
#include "src/core/uncertainty.h"
#include "src/core/ur_cache.h"
#include "src/sim/generators.h"

namespace indoorflow {

struct QueryProfile;
class ProfileRecorder;

struct EngineConfig {
  double vmax = 1.1;
  /// Indoor topology check applied to uncertainty regions (Section 3.3).
  /// kPartition is the paper's check; kExact is the refined point-wise
  /// variant (see TopologyMode).
  TopologyMode topology = TopologyMode::kPartition;
  /// Interval joins: finer per-ellipse sub-MBRs (Section 4.3.2).
  bool interval_sub_mbrs = true;
  /// Join bounds: replace the paper's count-based flow upper bounds with
  /// geometry-aware ones (presence <= MBR-overlap / POI area). An
  /// indoorflow extension; identical results, earlier termination.
  bool join_area_bounds = false;
  FlowConfig flow;
  /// Cross-query uncertainty-region memoization (src/core/ur_cache.h).
  /// Off by default; enabling never changes query results (the cache hands
  /// back the identical shared CSG tree) but skips repeated derivations
  /// for repeated (object, time) pairs — SnapshotTopKBatch workers and
  /// fixed-timestamp pollers share one cache per engine. See
  /// docs/TUNING.md for sizing.
  UrCacheConfig ur_cache;
  /// Worker lanes for intra-query parallelism. The default of 0 means
  /// the full width of the shared process-wide executor
  /// (src/common/executor.h): lanes = hardware concurrency, via
  /// Executor::ResolveThreads, run by the query's own thread plus the
  /// pool workers free to help. The per-object UR-derivation +
  /// presence-integration loops fan out once a query touches at least
  /// `parallel_threshold` candidate objects. 1 keeps queries fully
  /// serial; N > 1 caps the lanes at N. SnapshotTopKBatch has its
  /// own knob. Parallel and serial runs return bit-identical flows,
  /// rankings, EXPLAIN and work counters — each parallel section is a
  /// per-object map plus an ordered reduce — enforced by
  /// tests/parallel_differential_test.cc.
  int threads = 0;
  /// Minimum candidate-object count before a query section fans out;
  /// below it the scheduling overhead outweighs the win. See
  /// docs/TUNING.md for measured guidance.
  int parallel_threshold = 64;
  int poi_fanout = 8;
  int ri_fanout = 8;
  int artree_fanout = 32;
};

/// Per-call out-parameters and request control for QueryEngine::Run; all
/// optional (null = not wanted).
struct QueryOptions {
  QueryStats* stats = nullptr;
  QueryProfile* profile = nullptr;
  const QueryControl* control = nullptr;
};

class QueryEngine {
 public:
  /// All references must outlive the engine. `pois` must be id-dense
  /// (pois[i].id == i). Indexes are built eagerly.
  QueryEngine(const FloorPlan& plan, const DoorGraph& graph,
              const Deployment& deployment, const ObjectTrackingTable& table,
              const PoiSet& pois, EngineConfig config);

  /// Convenience: wires up a generated Dataset (vmax taken from the
  /// dataset; other config fields from `config`).
  QueryEngine(const Dataset& dataset, EngineConfig config);

  /// Answers one query: `spec` names its time shape (Problem 1 at t, or
  /// Problem 2 over [ts, te]), objective (top-k, threshold or density),
  /// algorithm, query POIs and evaluation mode. Rows come ranked:
  ///
  ///   - top-k: the k POIs with the highest flow;
  ///   - threshold (an indoorflow extension): every query POI whose flow
  ///     is at least tau, flow-descending. With Algorithm::kJoin the
  ///     best-first traversal stops as soon as its flow upper bound drops
  ///     below tau; both algorithms return the same set. Precondition,
  ///     for both algorithms: tau > 0 (a NaN fails it too); a violation
  ///     aborts on INDOORFLOW_CHECK, so callers taking tau from users
  ///     validate the spec first (ValidateQuerySpec);
  ///   - density (an indoorflow extension): the k POIs with the highest
  ///     crowd density Φ(p)/area(p), "the most crowded POIs"; values are
  ///     densities (1/m²). The join ranks by density upper bounds
  ///     directly (subtree flow bound / min POI area).
  ///
  /// When IsEstimate(spec) holds (iterative flow top-k under a sampled or
  /// adaptive spec.approx), the query evaluates a deterministic uniform
  /// subsample of the filter-phase candidates when the mode calls for it
  /// (see ShouldSample) and each row carries its Horvitz–Thompson
  /// standard error and 95% interval. Every other spec evaluates exactly:
  /// its rows are `exact`, with zero error and the exact flow bit for bit.
  ///
  /// `options.stats`, when non-null, accumulates operation counters for
  /// this query. `options.profile`, when non-null, receives this query's
  /// EXPLAIN profile (per-POI prune/evaluate verdicts, object derivation
  /// costs, join bound trace — see src/core/query_profile.h); like
  /// `stats`, pass a distinct one per thread. `options.control`, when
  /// non-null, attaches a per-request deadline / cancellation token
  /// (src/common/deadline.h): the query polls it between per-object work
  /// items and returns early once it trips — check control->Aborted()
  /// afterwards and discard the partial result.
  ///
  /// Thread safety: safe to call concurrently with any other const method.
  /// Determinism: results are a pure function of the inputs (sampling
  /// included, for a fixed spec.approx.seed) — unless EngineConfig::threads
  /// is 1 the per-object work may fan across the shared executor, but flows
  /// and rankings stay bit-identical to a serial run (parallel map,
  /// ordered reduce).
  std::vector<FlowEstimate> Run(const QuerySpec& spec,
                                const QueryOptions& options = {}) const;

  /// Exact flow top-k at `t` (Problem 1) and over [ts, te] (Problem 2):
  /// Run with an exact top-k spec, rows reduced to PoiFlow.
  std::vector<PoiFlow> SnapshotTopK(
      Timestamp t, int k, Algorithm algorithm,
      const std::vector<PoiId>* subset = nullptr,
      QueryStats* stats = nullptr, QueryProfile* profile = nullptr,
      const QueryControl* control = nullptr) const;
  std::vector<PoiFlow> IntervalTopK(
      Timestamp ts, Timestamp te, int k, Algorithm algorithm,
      const std::vector<PoiId>* subset = nullptr,
      QueryStats* stats = nullptr, QueryProfile* profile = nullptr,
      const QueryControl* control = nullptr) const;

  /// Runs one snapshot query per entry of `times`, fanned across the
  /// shared process-wide executor (src/common/executor.h) — queries are
  /// independent and the engine is safe for concurrent const use.
  /// `threads` caps the fan-out; <= 0 resolves to the hardware concurrency
  /// (Executor::ResolveThreads). Results are ordered like `times` and
  /// bit-identical to issuing the queries serially, regardless of lane
  /// interleaving (each result slot is written by exactly one lane).
  std::vector<std::vector<PoiFlow>> SnapshotTopKBatch(
      const std::vector<Timestamp>& times, int k, Algorithm algorithm,
      const std::vector<PoiId>* subset = nullptr, int threads = 0) const;

  /// Attaches a flight recorder: every subsequent query records a summary
  /// EXPLAIN profile (no per-object costs or join trace) into `recorder`
  /// when the caller didn't pass its own QueryProfile; the recorder keeps
  /// the slowest recent ones for /profiles/recent. Pass nullptr to detach.
  /// Call before issuing queries — the pointer is read without
  /// synchronization by concurrent queries, so don't flip it mid-flight.
  void AttachProfileRecorder(ProfileRecorder* recorder) {
    recorder_ = recorder;
  }

  /// UR(o, t): the uncertainty region of one object, empty when no record's
  /// augmented tracking interval covers `t` (the object is untracked then).
  /// Resolves the object's record chain directly, so it works for both
  /// disjoint and overlapping deployments. Safe for concurrent const use;
  /// deterministic (never consults the UR cache or the executor).
  Region ObjectRegionAt(ObjectId object, Timestamp t) const;

  /// The distinct objects whose augmented tracking interval covers `t`,
  /// ascending by id. Safe for concurrent const use; deterministic.
  std::vector<ObjectId> ActiveObjects(Timestamp t) const;

  const ARTree& artree() const { return artree_; }
  const EngineConfig& config() const { return config_; }
  const PoiSet& pois() const { return pois_; }
  /// Cached Region wrapper / area of one query POI.
  const Region& poi_region(PoiId id) const {
    return poi_regions_[static_cast<size_t>(id)];
  }
  double poi_area(PoiId id) const {
    return poi_areas_[static_cast<size_t>(id)];
  }
  /// The engine's UR cache, or null when EngineConfig::ur_cache.enabled is
  /// false. Exposed for introspection (tests, CLI stats); the cache is
  /// internally synchronized.
  UrCache* ur_cache() const { return ur_cache_.get(); }

 private:
  /// The query POI set of one call: the ids plus the R-tree over them —
  /// either a throwaway tree owned by this selection (subset queries) or a
  /// pointer to the engine's shared full-set tree.
  struct PoiSelection {
    std::vector<PoiId> ids;
    std::optional<RTree> owned;
    const RTree* shared = nullptr;
    const RTree& tree() const {
      return owned.has_value() ? *owned : *shared;
    }
  };

  QueryContext MakeContext() const;
  PoiSelection SelectPois(const std::vector<PoiId>* subset) const;
  RTree BuildPoiTree(const std::vector<PoiId>& subset) const;
  std::vector<PoiId> AllPoiIds() const;
  /// The R-tree over the full POI set, built on first use and shared by all
  /// subsequent full-set queries (subset queries build a throwaway tree).
  /// The returned reference stays valid for the engine's lifetime: once
  /// built under the lock the tree is never modified again, and the mutex
  /// release publishes it to every later reader.
  const RTree& AllPoiTree() const INDOORFLOW_LOCKS_EXCLUDED(poi_tree_mu_);

  const ObjectTrackingTable& table_;
  const PoiSet& pois_;
  EngineConfig config_;
  /// EngineConfig::threads resolved once at construction
  /// (Executor::ResolveThreads); 1 means queries never touch the pool.
  int resolved_threads_ = 1;
  ARTree artree_;
  std::optional<TopologyChecker> topology_;
  std::unique_ptr<UncertaintyModel> model_;
  std::unique_ptr<UrCache> ur_cache_;
  std::vector<Region> poi_regions_;
  std::vector<double> poi_areas_;
  mutable Mutex poi_tree_mu_
      INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceExpo)
          INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceEngine) =
              Mutex(LockRank::kEngine);
  mutable std::optional<RTree> all_poi_tree_
      INDOORFLOW_GUARDED_BY(poi_tree_mu_);
  ProfileRecorder* recorder_ = nullptr;
};

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_ENGINE_H_
