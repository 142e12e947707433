#include "src/core/engine.h"

#include <limits>
#include <utility>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/query_profile.h"

namespace indoorflow {

namespace {

// Registry handles for one query family ("snapshot" / "interval"), resolved
// once and cached: the hot path then touches only lock-free metric state.
struct EngineMetrics {
  explicit EngineMetrics(const std::string& prefix)
      : queries(MetricsRegistry::Default().counter(prefix + "count")),
        objects_retrieved(MetricsRegistry::Default().counter(
            prefix + "objects_retrieved")),
        regions_derived(
            MetricsRegistry::Default().counter(prefix + "regions_derived")),
        presence_evaluations(MetricsRegistry::Default().counter(
            prefix + "presence_evaluations")),
        pois_evaluated(
            MetricsRegistry::Default().counter(prefix + "pois_evaluated")),
        ur_cache_hits(
            MetricsRegistry::Default().counter(prefix + "ur_cache_hits")),
        latency_us(
            MetricsRegistry::Default().histogram(prefix + "latency_us")),
        retrieve_us(
            MetricsRegistry::Default().histogram(prefix + "retrieve_us")),
        derive_us(
            MetricsRegistry::Default().histogram(prefix + "derive_us")),
        presence_us(
            MetricsRegistry::Default().histogram(prefix + "presence_us")),
        topk_us(MetricsRegistry::Default().histogram(prefix + "topk_us")) {}

  Counter& queries;
  Counter& objects_retrieved;
  Counter& regions_derived;
  Counter& presence_evaluations;
  Counter& pois_evaluated;
  Counter& ur_cache_hits;
  Histogram& latency_us;
  Histogram& retrieve_us;
  Histogram& derive_us;
  Histogram& presence_us;
  Histogram& topk_us;
};

const EngineMetrics& SnapshotMetrics() {
  static const EngineMetrics* metrics =
      new EngineMetrics("query.snapshot.");
  return *metrics;
}

const EngineMetrics& IntervalMetrics() {
  static const EngineMetrics* metrics =
      new EngineMetrics("query.interval.");
  return *metrics;
}

// Folds one query's QueryStats delta and per-phase latency into the
// process-wide registry. When the caller passed no QueryStats, a local one
// is substituted (via the by-reference `stats` parameter) so the phase
// instrumentation always has somewhere to write; when the caller did pass
// one, only the delta accrued during this scope is recorded, keeping
// caller-side accumulation across queries intact.
//
// The scope also settles the EXPLAIN profile: the caller's QueryProfile
// (or, with a recorder attached and no caller profile, a substituted
// summary-mode one) gets the query's total time and stats delta, its
// verdicts finalized, and — if a flight recorder is attached — a copy
// handed to it.
//
// When the caller's QueryControl carries a request span (the serving
// path; see src/common/trace.h), the scope opens one engine span under
// it covering the whole query, synthesizes phase child spans from the
// QueryStats deltas on exit, and stamps the trace id into the profile so
// /profiles/recent rows join against /traces/recent and the query log.
class QueryMetricsScope {
 public:
  QueryMetricsScope(const EngineMetrics& metrics, const char* trace_name,
                    QueryStats*& stats, QueryProfile*& profile,
                    ProfileRecorder* recorder, const QueryControl* control)
      : metrics_(metrics),
        trace_name_(trace_name),
        recorder_(recorder),
        start_ns_(MonotonicNowNs()),
        span_(control != nullptr ? control->span() : nullptr, trace_name) {
    if (stats == nullptr) stats = &local_;
    stats_ = stats;
    before_ = *stats;
    if (profile == nullptr && recorder != nullptr) {
      local_profile_.emplace();
      local_profile_->detail = false;  // ambient recording stays cheap
      profile = &*local_profile_;
    }
    profile_ = profile;
    if (profile_ != nullptr) {
      profile_->kind = trace_name;
      if (span_.active()) profile_->trace_id = span_.trace_id_hex();
    }
  }
  QueryMetricsScope(const QueryMetricsScope&) = delete;
  QueryMetricsScope& operator=(const QueryMetricsScope&) = delete;

  ~QueryMetricsScope() {
    const int64_t total_ns = MonotonicNowNs() - start_ns_;
    const QueryStats& s = *stats_;
    metrics_.queries.Add(1);
    metrics_.objects_retrieved.Add(s.objects_retrieved -
                                   before_.objects_retrieved);
    metrics_.regions_derived.Add(s.regions_derived -
                                 before_.regions_derived);
    metrics_.presence_evaluations.Add(s.presence_evaluations -
                                      before_.presence_evaluations);
    metrics_.pois_evaluated.Add(s.pois_evaluated - before_.pois_evaluated);
    metrics_.ur_cache_hits.Add(s.ur_cache_hits - before_.ur_cache_hits);
    metrics_.latency_us.Record(static_cast<double>(total_ns) / 1000.0);
    metrics_.retrieve_us.Record(
        static_cast<double>(s.retrieve_ns - before_.retrieve_ns) / 1000.0);
    metrics_.derive_us.Record(
        static_cast<double>(s.derive_ns - before_.derive_ns) / 1000.0);
    metrics_.presence_us.Record(
        static_cast<double>(s.presence_ns - before_.presence_ns) / 1000.0);
    metrics_.topk_us.Record(
        static_cast<double>(s.topk_ns - before_.topk_ns) / 1000.0);
    if (profile_ != nullptr) {
      profile_->total_ns = total_ns;
      profile_->stats = s;
      profile_->stats -= before_;
      profile_->Finalize();
      if (recorder_ != nullptr) recorder_->Record(*profile_);
    }
    if (TracingEnabled()) {
      EmitTraceEvent(trace_name_, start_ns_ / 1000, total_ns / 1000);
    }
    if (span_.active()) {
      // Phase children synthesized from the same QueryStats deltas the
      // registry histograms record, so a trace's phase durations
      // reconcile with the stats by construction. The back-to-back
      // placement is approximate (phases interleave per object, and
      // parallel sections sum per-lane time), but every duration is the
      // measured one.
      int64_t cursor = start_ns_;
      const auto phase = [&](const char* name, int64_t dur_ns) {
        if (dur_ns <= 0) return;
        span_.RecordChild(name, cursor, dur_ns);
        cursor += dur_ns;
      };
      phase("retrieve", s.retrieve_ns - before_.retrieve_ns);
      phase("derive_ur", s.derive_ns - before_.derive_ns);
      phase("presence", s.presence_ns - before_.presence_ns);
      phase("topk", s.topk_ns - before_.topk_ns);
    }
  }

  /// The engine span lanes and cache events parent under; null when the
  /// request is unsampled so downstream sites skip all tracing work on a
  /// single pointer compare.
  const Span* span() const { return span_.active() ? &span_ : nullptr; }

 private:
  const EngineMetrics& metrics_;
  const char* trace_name_;
  QueryStats local_;
  QueryStats* stats_ = nullptr;
  QueryStats before_;
  std::optional<QueryProfile> local_profile_;
  QueryProfile* profile_ = nullptr;
  ProfileRecorder* recorder_ = nullptr;
  int64_t start_ns_;
  Span span_;
};

// The engine-side profile header: query identity, parameters, and the POI
// subset registration that anchors the verdict invariant.
void BeginProfile(QueryProfile* profile, const QuerySpec& spec,
                  const std::vector<PoiId>& ids) {
  if (profile == nullptr) return;
  profile->algorithm =
      spec.algorithm == Algorithm::kJoin ? "join" : "iterative";
  profile->ts = spec.ts;
  profile->te = spec.te;
  profile->k = spec.k;
  profile->tau = spec.tau;
  profile->BeginPois(ids);
}

// The query's metrics-scope and EXPLAIN `kind`: its time shape, then its
// objective (columns in Objective's declaration order), or TopKEstimate
// when it runs the sampling estimator.
const char* QueryKind(const QuerySpec& spec, bool estimate) {
  static constexpr const char* kKinds[2][4] = {
      {"SnapshotTopK", "SnapshotThreshold", "SnapshotDensityTopK",
       "SnapshotTopKEstimate"},
      {"IntervalTopK", "IntervalThreshold", "IntervalDensityTopK",
       "IntervalTopKEstimate"}};
  return kKinds[spec.interval ? 1 : 0]
               [estimate ? 3 : static_cast<int>(spec.objective)];
}

}  // namespace

QueryEngine::QueryEngine(const FloorPlan& plan, const DoorGraph& graph,
                         const Deployment& deployment,
                         const ObjectTrackingTable& table, const PoiSet& pois,
                         EngineConfig config)
    : table_(table),
      pois_(pois),
      config_(config),
      resolved_threads_(Executor::ResolveThreads(config.threads)) {
  INDOORFLOW_CHECK(table_.finalized());
  for (size_t i = 0; i < pois_.size(); ++i) {
    INDOORFLOW_CHECK(pois_[i].id == static_cast<PoiId>(i));
  }
  artree_ = ARTree::Build(table_, config_.artree_fanout);
  if (config_.topology != TopologyMode::kOff) {
    topology_.emplace(plan, graph, deployment);
  }
  model_ = std::make_unique<UncertaintyModel>(
      table_, deployment, config_.vmax,
      topology_.has_value() ? &*topology_ : nullptr, config_.topology);
  if (config_.ur_cache.enabled) {
    ur_cache_ = std::make_unique<UrCache>(config_.ur_cache);
  }
  poi_regions_.reserve(pois_.size());
  poi_areas_.reserve(pois_.size());
  for (const Poi& poi : pois_) {
    poi_regions_.push_back(Region::Make(poi.shape));
    // Degenerate polygons are demoted to exactly zero area here so every
    // downstream division (density ranking, area-aware join bounds) hits
    // the existing `area > 0` guards instead of a near-zero divisor.
    poi_areas_.push_back(EffectivePoiArea(poi.Area(), config_.flow));
  }
}

QueryEngine::QueryEngine(const Dataset& dataset, EngineConfig config)
    : QueryEngine(dataset.built.plan, *dataset.door_graph,
                  dataset.deployment, dataset.ott, dataset.pois,
                  [&] {
                    config.vmax = dataset.vmax;
                    return config;
                  }()) {}

QueryContext QueryEngine::MakeContext() const {
  QueryContext ctx;
  ctx.table = &table_;
  ctx.artree = &artree_;
  ctx.model = model_.get();
  ctx.pois = &pois_;
  ctx.poi_regions = &poi_regions_;
  ctx.poi_areas = &poi_areas_;
  ctx.flow = &config_.flow;
  ctx.ri_fanout = config_.ri_fanout;
  ctx.interval_sub_mbrs = config_.interval_sub_mbrs;
  ctx.join_area_bounds = config_.join_area_bounds;
  ctx.ur_cache = ur_cache_.get();
  ctx.threads = resolved_threads_;
  ctx.parallel_threshold = config_.parallel_threshold;
  // A null executor is the algorithms' "run serially" signal; resolving
  // here keeps the hot paths free of thread-count arithmetic.
  ctx.executor = resolved_threads_ > 1 ? &Executor::Default() : nullptr;
  return ctx;
}

std::vector<PoiId> QueryEngine::AllPoiIds() const {
  std::vector<PoiId> ids;
  ids.reserve(pois_.size());
  for (const Poi& poi : pois_) ids.push_back(poi.id);
  return ids;
}

RTree QueryEngine::BuildPoiTree(const std::vector<PoiId>& subset) const {
  std::vector<RTree::Item> items;
  items.reserve(subset.size());
  for (PoiId id : subset) {
    // Item::value carries the POI area for the area-aware join bounds and
    // the density ranking's min-area aggregate. Degenerate (zero-area)
    // POIs report +inf so EntryMinValue ignores them: their flows are
    // identically zero, and a zero min-area would otherwise zero out the
    // density bound of every sibling sharing the subtree.
    const double area = poi_areas_[static_cast<size_t>(id)];
    items.push_back(RTree::Item{
        id, pois_[static_cast<size_t>(id)].shape.Bounds(),
        area > 0.0 ? area : std::numeric_limits<double>::infinity()});
  }
  return RTree::BulkLoad(std::move(items), config_.poi_fanout);
}

const RTree& QueryEngine::AllPoiTree() const {
  MutexLock lock(poi_tree_mu_);
  if (!all_poi_tree_.has_value()) {
    all_poi_tree_.emplace(BuildPoiTree(AllPoiIds()));
  }
  return *all_poi_tree_;
}

QueryEngine::PoiSelection QueryEngine::SelectPois(
    const std::vector<PoiId>* subset) const {
  PoiSelection selection;
  if (subset != nullptr) {
    selection.ids = *subset;
    selection.owned.emplace(BuildPoiTree(selection.ids));
  } else {
    selection.ids = AllPoiIds();
    selection.shared = &AllPoiTree();
  }
  return selection;
}

std::vector<FlowEstimate> QueryEngine::Run(const QuerySpec& spec,
                                           const QueryOptions& options) const {
  if (spec.objective == Objective::kThreshold) {
    INDOORFLOW_CHECK(spec.tau > 0.0);
  }
  const bool estimate = IsEstimate(spec);
  QueryStats* stats = options.stats;
  QueryProfile* profile = options.profile;
  QueryMetricsScope scope(spec.interval ? IntervalMetrics()
                                        : SnapshotMetrics(),
                          QueryKind(spec, estimate), stats, profile,
                          recorder_, options.control);
  const PoiSelection selection = SelectPois(spec.subset);
  BeginProfile(profile, spec, selection.ids);
  QueryContext ctx = MakeContext();
  ctx.stats = stats;
  ctx.profile = profile;
  ctx.control = options.control;
  ctx.span = scope.span();
  if (estimate) {
    return EstimateQuery(ctx, selection.tree(), selection.ids, spec);
  }
  return ExactEstimates(
      EvaluateQuery(ctx, selection.tree(), selection.ids, spec));
}

std::vector<PoiFlow> QueryEngine::SnapshotTopK(
    Timestamp t, int k, Algorithm algorithm,
    const std::vector<PoiId>* subset, QueryStats* stats,
    QueryProfile* profile, const QueryControl* control) const {
  return EstimatesToFlows(
      Run({.ts = t, .te = t, .algorithm = algorithm, .k = k, .subset = subset},
          {stats, profile, control}));
}

std::vector<PoiFlow> QueryEngine::IntervalTopK(
    Timestamp ts, Timestamp te, int k, Algorithm algorithm,
    const std::vector<PoiId>* subset, QueryStats* stats,
    QueryProfile* profile, const QueryControl* control) const {
  return EstimatesToFlows(Run({.interval = true,
                               .ts = ts,
                               .te = te,
                               .algorithm = algorithm,
                               .k = k,
                               .subset = subset},
                              {stats, profile, control}));
}

std::vector<std::vector<PoiFlow>> QueryEngine::SnapshotTopKBatch(
    const std::vector<Timestamp>& times, int k, Algorithm algorithm,
    const std::vector<PoiId>* subset, int threads) const {
  std::vector<std::vector<PoiFlow>> results(times.size());
  if (times.empty()) return results;
  // Each index is written by exactly one executor lane, so no shared work
  // counter is needed and the result order matches `times` no matter how
  // lanes interleave.
  Executor::Default().ParallelFor(
      times.size(), Executor::ResolveThreads(threads), [&](size_t i) {
        results[i] = SnapshotTopK(times[i], k, algorithm, subset);
      });
  return results;
}

Region QueryEngine::ObjectRegionAt(ObjectId object, Timestamp t) const {
  const SnapshotState state = ResolveSnapshotStateAt(table_, object, t);
  if (!state.active() && state.pre == kInvalidRecord &&
      state.suc == kInvalidRecord) {
    return Region();
  }
  return model_->Snapshot(state, t);
}

std::vector<ObjectId> QueryEngine::ActiveObjects(Timestamp t) const {
  std::vector<ARTreeEntry> entries;
  artree_.PointQuery(t, &entries);
  std::vector<ObjectId> objects;
  objects.reserve(entries.size());
  for (const ARTreeEntry& entry : entries) {
    objects.push_back(table_.record(entry.cur).object_id);
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  return objects;
}

}  // namespace indoorflow
