#include "src/core/query_pipeline.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/core/priority_join.h"
#include "src/core/query_profile.h"
#include "src/core/tracking_state.h"
#include "src/core/ur_cache.h"

namespace indoorflow {

namespace {

using Flows = std::unordered_map<PoiId, double>;

// AR-tree point query -> one resolved state per object tracked at t
// (Algorithm 1 lines 3-5). With the paper's disjoint detection ranges each
// object has exactly one covering entry; overlapping deployments can yield
// several, so states are resolved per distinct object from the OTT.
std::vector<SnapshotState> CollectStates(const QueryContext& ctx,
                                         Timestamp t) {
  const int64_t start = ctx.stats != nullptr ? MonotonicNowNs() : 0;
  std::vector<ARTreeEntry> entries;
  ctx.artree->PointQuery(t, &entries);
  std::vector<SnapshotState> states;
  states.reserve(entries.size());
  if (!ctx.table->has_overlaps()) {
    for (const ARTreeEntry& le : entries) {
      states.push_back(ResolveSnapshotState(*ctx.table, le, t));
    }
  } else {
    std::unordered_set<ObjectId> seen;
    for (const ARTreeEntry& le : entries) {
      const ObjectId object = ctx.table->record(le.cur).object_id;
      if (!seen.insert(object).second) continue;
      states.push_back(ResolveSnapshotStateAt(*ctx.table, object, t));
    }
  }
  if (ctx.stats != nullptr) {
    ctx.stats->objects_retrieved += static_cast<int64_t>(states.size());
    ctx.stats->retrieve_ns += MonotonicNowNs() - start;
  }
  return states;
}

// AR-tree range query -> the distinct objects with relevant records, each
// with its Table-3 record chain (Algorithm 4 lines 3-8).
std::vector<IntervalChain> CollectChains(const QueryContext& ctx,
                                         Timestamp ts, Timestamp te) {
  const int64_t start = ctx.stats != nullptr ? MonotonicNowNs() : 0;
  std::vector<ARTreeEntry> entries;
  ctx.artree->RangeQuery(ts, te, &entries);
  std::unordered_set<ObjectId> seen;
  std::vector<IntervalChain> chains;
  for (const ARTreeEntry& le : entries) {
    const ObjectId object = ctx.table->record(le.cur).object_id;
    if (!seen.insert(object).second) continue;
    IntervalChain chain = RelevantChain(*ctx.table, object, ts, te);
    if (!chain.records.empty()) chains.push_back(std::move(chain));
  }
  if (ctx.stats != nullptr) {
    ctx.stats->objects_retrieved += static_cast<int64_t>(chains.size());
    ctx.stats->retrieve_ns += MonotonicNowNs() - start;
  }
  return chains;
}

template <typename T>
std::vector<T> Picked(const std::vector<T>& items,
                      const std::vector<size_t>& picks) {
  std::vector<T> picked;
  picked.reserve(picks.size());
  for (size_t i : picks) picked.push_back(items[i]);
  return picked;
}

// The filter phase's output: one candidate object per index, in canonical
// order. This is the only place the time shape shows — its retriever, its
// UR derivation and its R_I MBRs; the kernel, the join and the sampler
// below see candidate indices only.
class Candidates {
 public:
  Candidates(const QueryContext& ctx, const QuerySpec& spec)
      : ctx_(ctx), spec_(spec) {
    if (spec.interval) {
      chains_ = CollectChains(ctx, spec.ts, spec.te);
    } else {
      states_ = CollectStates(ctx, spec.ts);
    }
  }

  size_t size() const {
    return spec_.interval ? chains_.size() : states_.size();
  }
  ObjectId object(size_t i) const {
    return spec_.interval ? chains_[i].object : states_[i].object;
  }

  // The candidate's UR-cache entry, if any (a snapshot keys on [t, t]).
  bool Lookup(size_t i, Region* ur, UrCache::PresenceMemoPtr* memo) const {
    return ctx_.ur_cache != nullptr &&
           ctx_.ur_cache->Lookup(object(i), kind(), spec_.ts, spec_.te, ur,
                                 memo, ctx_.span);
  }
  void Insert(size_t i, const Region& ur,
              UrCache::PresenceMemoPtr* memo) const {
    if (ctx_.ur_cache == nullptr) return;
    ctx_.ur_cache->Insert(object(i), kind(), spec_.ts, spec_.te, ur, memo);
  }

  // UR(o, t) (Algorithm 1 line 11) or UR(o, [ts, te]) (Algorithm 4 line 9).
  // Safe to call concurrently: the model is const per call.
  Region Derive(size_t i) const {
    return spec_.interval
               ? ctx_.model->Interval(chains_[i], spec_.ts, spec_.te)
               : ctx_.model->Snapshot(states_[i], spec_.ts);
  }

  // The candidate's R_I entry from cheap MBRs (Algorithm 2 lines 1-11,
  // Algorithm 5 lines 1-9); interval entries carry the finer per-ellipse
  // sub-MBRs when enabled (Section 4.3.2).
  AggregateRTree::ObjectEntry Entry(size_t i) const {
    AggregateRTree::ObjectEntry entry;
    entry.object = object(i);
    if (spec_.interval) {
      ctx_.model->IntervalMbrs(chains_[i], spec_.ts, spec_.te, &entry.mbr,
                               ctx_.interval_sub_mbrs ? &entry.sub_mbrs
                                                      : nullptr);
    } else {
      entry.mbr = ctx_.model->SnapshotMbr(states_[i], spec_.ts);
    }
    return entry;
  }

  // Keeps only the candidates at `picks` (ascending): the sampler's draw.
  void Keep(const std::vector<size_t>& picks) {
    if (spec_.interval) {
      chains_ = Picked(chains_, picks);
    } else {
      states_ = Picked(states_, picks);
    }
  }

 private:
  UrCache::Kind kind() const {
    return spec_.interval ? UrCache::Kind::kInterval
                           : UrCache::Kind::kSnapshot;
  }

  const QueryContext& ctx_;
  const QuerySpec spec_;
  std::vector<SnapshotState> states_;
  std::vector<IntervalChain> chains_;
};

// ---- The per-object evaluation kernel (Definitions 1-2) ----------------
//
// Every query path runs the same per-object step: resolve UR(o), find the
// POIs it can reach, integrate presence φ(o, p) into flow Φ(p). The step
// is split in two. EvaluateObject computes one object's share into a
// private ObjectTally and touches no shared state but the internally
// synchronized UR cache and presence memos, so executor lanes may run it
// concurrently. BookTally does everything order-sensitive — the
// floating-point flow accumulation, QueryStats, EXPLAIN — on the calling
// thread in object order. A parallel run therefore books exactly what a
// serial run books, bit for bit (tests/parallel_differential_test.cc).

// One object's UR and its UR-cache presence memo (null without a cache):
// what the join's per-query H_U table keeps per R_I slot.
struct ObjectUr {
  Region ur;
  UrCache::PresenceMemoPtr memo;
};

// One object's privately computed share of a query.
struct ObjectTally {
  ObjectId object = 0;
  ObjectUr resolved;  // when resolved here rather than read from H_U
  bool cache_hit = false;
  bool derived = false;
  int64_t derive_ns = 0;
  std::vector<int32_t> pois;
  std::vector<double> presences;  // aligned with pois
  int64_t presence_evals = 0;
  int64_t presence_ns = 0;
  AreaWork work;

  // Readies the tally for the next object, keeping the vectors' capacity
  // so a serial loop allocates nothing per object.
  void Clear() {
    resolved = ObjectUr();
    cache_hit = derived = false;
    derive_ns = presence_evals = presence_ns = 0;
    work = AreaWork();
    pois.clear();
    presences.clear();
  }
};

// Fills `tally` for candidate `i`: its UR — `known` when the join's H_U
// table already holds it, else a UR-cache hit or a fresh derivation — and
// its presence in each POI. The POIs are those of `poi_tree` the UR's
// bounds touch (Algorithm 1 line 12), or with a null tree the one join
// leaf POI `poi`. A cache hit hands back the identical shared CSG tree a
// fresh derivation would build, and a memoized presence is the exact
// double the deterministic integrator would return, so flows are
// bit-identical either way; only real derivations and evaluations count.
void EvaluateObject(const QueryContext& ctx, const Candidates& candidates,
                    size_t i, const ObjectUr* known, const RTree* poi_tree,
                    PoiId poi, ObjectTally* tally) {
  tally->object = candidates.object(i);
  if (known == nullptr) {
    ObjectUr& own = tally->resolved;
    if (candidates.Lookup(i, &own.ur, &own.memo)) {
      tally->cache_hit = true;
    } else {
      const bool clocked = ctx.stats != nullptr || ctx.profile != nullptr;
      const int64_t derive_start = clocked ? MonotonicNowNs() : 0;
      own.ur = candidates.Derive(i);
      if (clocked) tally->derive_ns = MonotonicNowNs() - derive_start;
      tally->derived = true;
      candidates.Insert(i, own.ur, &own.memo);
    }
    known = &own;
  }
  if (poi_tree != nullptr) {
    if (known->ur.IsEmpty()) return;
    poi_tree->IntersectionQuery(known->ur.Bounds(), &tally->pois);
  } else {
    tally->pois.assign(1, poi);
  }
  // Join leaves are timed per leaf by their caller instead: two clock
  // reads per Presence call cost ~5% of a join query.
  const bool timed = ctx.stats != nullptr && poi_tree != nullptr;
  const int64_t presence_start = timed ? MonotonicNowNs() : 0;
  UrCache::PresenceMemo* const memo = known->memo.get();
  tally->presences.reserve(tally->pois.size());
  for (const int32_t id : tally->pois) {
    double presence;
    if (memo == nullptr || !memo->TryGet(id, &presence)) {
      presence = Presence(known->ur, (*ctx.poi_areas)[static_cast<size_t>(id)],
                          (*ctx.poi_regions)[static_cast<size_t>(id)],
                          *ctx.flow, &tally->work);
      ++tally->presence_evals;
      if (memo != nullptr) memo->Put(id, presence);
    }
    tally->presences.push_back(presence);
  }
  if (timed) tally->presence_ns = MonotonicNowNs() - presence_start;
}

// Books one tally's work into QueryStats and EXPLAIN and, with `flows`
// set, adds its presences into the per-POI flows (and their squares into
// `flows_sq`, for the sampling estimator's variance). Calling thread only,
// in object order.
void BookTally(const QueryContext& ctx, const ObjectTally& tally,
               Flows* flows, Flows* flows_sq) {
  QueryStats* const stats = ctx.stats;
  QueryProfile* const profile = ctx.profile;
  if (tally.cache_hit) {
    if (stats != nullptr) ++stats->ur_cache_hits;
  } else if (tally.derived) {
    if (stats != nullptr) {
      stats->derive_ns += tally.derive_ns;
      ++stats->regions_derived;
    }
    if (profile != nullptr) {
      profile->AddObjectCost(tally.object, tally.derive_ns);
    }
  }
  if (stats != nullptr) {
    stats->presence_evaluations += tally.presence_evals;
    stats->cells_classified += tally.work.cells_classified;
    stats->leaf_tests += tally.work.leaf_tests;
    stats->presence_cell_cap += tally.work.cell_caps;
    stats->presence_ns += tally.presence_ns;
  }
  if (flows == nullptr) return;
  for (size_t c = 0; c < tally.pois.size(); ++c) {
    const int32_t poi = tally.pois[c];
    const double presence = tally.presences[c];
    (*flows)[poi] += presence;
    if (flows_sq != nullptr) (*flows_sq)[poi] += presence * presence;
    if (profile != nullptr) profile->MarkPresence(poi, presence);
  }
}

// Whether RunObjects fans a section of n objects across the executor.
bool FansOut(const QueryContext& ctx, size_t n) {
  return ctx.executor != nullptr && ctx.threads > 1 &&
         n >= static_cast<size_t>(ctx.parallel_threshold);
}

// Runs `evaluate(i, &tally)` then `book(i, tally)` for i in [0, n). A
// serial context, or a section below ctx.parallel_threshold, interleaves
// the two per object on this thread and records no fan-out. Otherwise
// `evaluate` fans across the executor into one private tally per index
// (any lane may take any index) and the bookings follow in index order.
// One sticky deadline/cancel poll per object (src/common/deadline.h): a
// tripped poll ends the serial loop and leaves the remaining parallel
// tallies empty, so they book nothing; the caller discards the partial
// result once control->Aborted() reports it.
template <typename Evaluate, typename Book>
void RunObjects(const QueryContext& ctx, size_t n, const Evaluate& evaluate,
                const Book& book) {
  if (!FansOut(ctx, n)) {
    ObjectTally tally;
    for (size_t i = 0; i < n && !QueryAborted(ctx); ++i) {
      tally.Clear();
      evaluate(i, &tally);
      book(i, tally);
    }
    return;
  }
  std::vector<ObjectTally> tallies(n);
  const int64_t fan_start = MonotonicNowNs();
  const int lanes = ctx.executor->ParallelFor(
      n, ctx.threads,
      [&](size_t i) {
        if (!QueryAborted(ctx)) evaluate(i, &tallies[i]);
      },
      ctx.span);
  // derive_ns and presence_ns sum the per-lane spans (they can exceed
  // wall time when lanes overlap); parallel_ns has the wall-clock view.
  if (ctx.stats != nullptr) {
    ctx.stats->parallel_tasks += lanes;
    ctx.stats->parallel_ns += MonotonicNowNs() - fan_start;
  }
  for (size_t i = 0; i < n; ++i) book(i, tallies[i]);
}

// ---- Iterative algorithms (Algorithms 1 and 4) --------------------------

Flows ZeroFlows(const std::vector<PoiId>& ids) {
  Flows flows;
  flows.reserve(ids.size());
  for (PoiId id : ids) flows[id] = 0.0;
  return flows;
}

// Each candidate's presences added into per-POI flows (Algorithm 1 lines
// 4-14, Algorithm 4 lines 9-12).
void AccumulateFlows(const QueryContext& ctx, const RTree& poi_tree,
                     const Candidates& candidates, Flows* flows,
                     Flows* flows_sq) {
  RunObjects(
      ctx, candidates.size(),
      [&](size_t i, ObjectTally* tally) {
        EvaluateObject(ctx, candidates, i, nullptr, &poi_tree, -1, tally);
      },
      [&](size_t, const ObjectTally& tally) {
        BookTally(ctx, tally, flows, flows_sq);
      });
}

// Ranks or filters the accumulated flows by the query's objective; timed
// as the top-k phase.
std::vector<PoiFlow> Finish(const QueryContext& ctx, const QuerySpec& spec,
                            const Flows& flows) {
  std::vector<PoiFlow> all;
  all.reserve(flows.size());
  for (const auto& [id, flow] : flows) all.push_back(PoiFlow{id, flow});
  const int64_t topk_start = ctx.stats != nullptr ? MonotonicNowNs() : 0;
  if (spec.objective == Objective::kDensity) {
    for (PoiFlow& f : all) {
      const double area = (*ctx.poi_areas)[static_cast<size_t>(f.poi)];
      f.flow = area > 0.0 ? f.flow / area : 0.0;
    }
  }
  std::vector<PoiFlow> result =
      spec.objective == Objective::kThreshold
          ? FlowsAtLeast(std::move(all), spec.tau)
          : TopK(std::move(all), spec.k);
  if (ctx.stats != nullptr) {
    ctx.stats->topk_ns += MonotonicNowNs() - topk_start;
  }
  return result;
}

// ---- Join algorithms (Algorithms 2 and 5) -------------------------------

std::vector<PoiFlow> RunJoin(const QueryContext& ctx, const RTree& poi_tree,
                             const std::vector<PoiId>& ids,
                             const QuerySpec& spec) {
  const Candidates candidates(ctx, spec);
  // Everything after the retriever is join work; the wall time spent in
  // leaf lists (all of the join's derive and presence work) is subtracted
  // at the end so topk_ns covers only the R_I build plus the priority
  // traversal itself.
  QueryStats* const stats = ctx.stats;
  const int64_t join_start = stats != nullptr ? MonotonicNowNs() : 0;
  int64_t leaf_ns = 0;
  std::vector<AggregateRTree::ObjectEntry> objects;
  std::vector<size_t> slot_candidates;  // R_I slot -> candidate index
  objects.reserve(candidates.size());
  slot_candidates.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    AggregateRTree::ObjectEntry entry = candidates.Entry(i);
    if (entry.mbr.Empty()) continue;
    objects.push_back(std::move(entry));
    slot_candidates.push_back(i);
  }
  const AggregateRTree agg =
      AggregateRTree::Build(std::move(objects), ctx.ri_fanout);

  // The per-query H_U table (lines 29-31): each slot's UR once resolved,
  // so later leaves reuse it without consulting the cross-query cache.
  std::vector<std::optional<ObjectUr>> hu(slot_candidates.size());

  PriorityJoinSpec join;
  join.poi_tree = &poi_tree;
  join.objects = &agg;
  join.poi_areas = ctx.poi_areas;
  join.leaf_presences = [&](const std::vector<int32_t>& slots, PoiId poi,
                            std::vector<double>* out) {
    // A serial leaf is timed as a whole and the derive time booked inside
    // is subtracted. A fanned leaf times each object instead, so its
    // presence_ns sums per-worker time like its derive_ns does.
    const int64_t leaf_start = stats != nullptr ? MonotonicNowNs() : 0;
    const int64_t leaf_derive = stats != nullptr ? stats->derive_ns : 0;
    const bool fanned = FansOut(ctx, slots.size());
    out->assign(slots.size(), 0.0);
    RunObjects(
        ctx, slots.size(),
        [&](size_t i, ObjectTally* tally) {
          const bool timed = fanned && stats != nullptr;
          const int64_t start = timed ? MonotonicNowNs() : 0;
          const std::optional<ObjectUr>& entry =
              hu[static_cast<size_t>(slots[i])];
          EvaluateObject(ctx, candidates,
                         slot_candidates[static_cast<size_t>(slots[i])],
                         entry.has_value() ? &*entry : nullptr, nullptr, poi,
                         tally);
          if (timed) {
            tally->presence_ns =
                MonotonicNowNs() - start - tally->derive_ns;
          }
        },
        [&](size_t i, ObjectTally& tally) {
          BookTally(ctx, tally, nullptr, nullptr);
          if (tally.cache_hit || tally.derived) {
            hu[static_cast<size_t>(slots[i])] = std::move(tally.resolved);
          }
          if (!tally.presences.empty()) (*out)[i] = tally.presences.front();
        });
    if (stats != nullptr) {
      const int64_t span = MonotonicNowNs() - leaf_start;
      leaf_ns += span;
      const int64_t derived = stats->derive_ns - leaf_derive;
      if (!fanned) stats->presence_ns += span > derived ? span - derived : 0;
    }
  };
  join.stats = stats;
  join.profile = ctx.profile;
  join.area_bounds = ctx.join_area_bounds;
  join.control = ctx.control;
  join.density = spec.objective == Objective::kDensity;
  std::vector<PoiFlow> result =
      spec.objective == Objective::kThreshold
          ? PriorityJoinThreshold(join, spec.tau)
          : PriorityJoinTopK(join, spec.k, ids);
  if (stats != nullptr) {
    const int64_t span = MonotonicNowNs() - join_start;
    stats->topk_ns += span > leaf_ns ? span - leaf_ns : 0;
  }
  return result;
}

}  // namespace

bool IsEstimate(const QuerySpec& spec) {
  return spec.approx.mode != ApproxMode::kExact &&
         spec.algorithm == Algorithm::kIterative &&
         spec.objective == Objective::kTopK;
}

Status ValidateQuerySpec(const QuerySpec& spec) {
  if (!(spec.te >= spec.ts)) {
    return Status::InvalidArgument("te must be >= ts");
  }
  if (spec.objective == Objective::kThreshold) {
    if (!(spec.tau > 0.0)) return Status::InvalidArgument("tau must be > 0");
  } else if (spec.k < 1 || spec.k > 1000000) {
    return Status::InvalidArgument("k must be in [1, 1000000]");
  }
  if (spec.approx.mode != ApproxMode::kExact &&
      spec.approx.sample_budget < 2) {
    return Status::InvalidArgument("sample_budget must be >= 2");
  }
  return Status::OK();
}

std::vector<PoiFlow> EvaluateQuery(const QueryContext& ctx,
                                   const RTree& poi_tree,
                                   const std::vector<PoiId>& ids,
                                   const QuerySpec& spec) {
  if (spec.algorithm == Algorithm::kJoin) {
    return RunJoin(ctx, poi_tree, ids, spec);
  }
  if (ctx.stats != nullptr) {
    ctx.stats->pois_evaluated += static_cast<int64_t>(ids.size());
  }
  const Candidates candidates(ctx, spec);
  Flows flows = ZeroFlows(ids);
  AccumulateFlows(ctx, poi_tree, candidates, &flows, nullptr);
  return Finish(ctx, spec, flows);
}

std::vector<FlowEstimate> EstimateQuery(const QueryContext& ctx,
                                        const RTree& poi_tree,
                                        const std::vector<PoiId>& ids,
                                        const QuerySpec& spec) {
  const ApproxConfig& approx = spec.approx;
  if (ctx.stats != nullptr) {
    ctx.stats->pois_evaluated += static_cast<int64_t>(ids.size());
  }
  Candidates candidates(ctx, spec);
  const size_t population = candidates.size();
  const bool sample = ShouldSample(approx, population);
  Flows flows = ZeroFlows(ids);
  Flows flows_sq;
  if (sample) {
    // Deterministic subsample in canonical (filter-phase) order; the
    // accumulation over it is the exact kernel, UR cache and memos
    // included, just over fewer objects.
    candidates.Keep(SampleIndices(population,
                                  static_cast<size_t>(approx.sample_budget),
                                  MixSampleSeed(approx.seed, spec.ts,
                                                spec.te)));
    flows_sq = ZeroFlows(ids);
  }
  AccumulateFlows(ctx, poi_tree, candidates, &flows,
                  sample ? &flows_sq : nullptr);
  const size_t evaluated = candidates.size();
  std::vector<FlowEstimate> estimates =
      EstimateFlows(ids, flows, flows_sq, population, evaluated);

  if (ctx.stats != nullptr) {
    ctx.stats->sample_population += static_cast<int64_t>(population);
    ctx.stats->sample_size += static_cast<int64_t>(evaluated);
  }
  if (ctx.profile != nullptr) {
    ctx.profile->approx_mode = ApproxModeName(approx.mode);
    ctx.profile->sampled = sample;
    ctx.profile->sample_budget = approx.sample_budget;
    ctx.profile->sample_population = static_cast<int64_t>(population);
    ctx.profile->sample_size = static_cast<int64_t>(evaluated);
    for (const FlowEstimate& est : estimates) {
      if (est.std_err > ctx.profile->max_std_err) {
        ctx.profile->max_std_err = est.std_err;
      }
    }
  }

  const int64_t topk_start = ctx.stats != nullptr ? MonotonicNowNs() : 0;
  std::vector<FlowEstimate> result =
      TopKEstimates(std::move(estimates), spec.k);
  if (ctx.stats != nullptr) {
    ctx.stats->topk_ns += MonotonicNowNs() - topk_start;
  }
  return result;
}

}  // namespace indoorflow
