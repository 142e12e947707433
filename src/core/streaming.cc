#include "src/core/streaming.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace indoorflow {

namespace {

// Registry handles for the ingest and live-query paths, resolved once.
struct StreamingMetrics {
  Counter& readings_ingested =
      MetricsRegistry::Default().counter("streaming.readings_ingested");
  Counter& readings_rejected =
      MetricsRegistry::Default().counter("streaming.readings_rejected");
  Counter& batches_ingested =
      MetricsRegistry::Default().counter("streaming.batches_ingested");
  Counter& tracks_evicted =
      MetricsRegistry::Default().counter("streaming.tracks_evicted");
  Counter& shard_recomputes =
      MetricsRegistry::Default().counter("streaming.shard_recomputes");
  Counter& shard_reuses =
      MetricsRegistry::Default().counter("streaming.shard_reuses");
  Counter& sampled_queries =
      MetricsRegistry::Default().counter("streaming.sampled_queries");
  Counter& sampled_tracks =
      MetricsRegistry::Default().counter("streaming.sampled_tracks");
  Gauge& track_table_size =
      MetricsRegistry::Default().gauge("streaming.track_table_size");
  Gauge& shard_count =
      MetricsRegistry::Default().gauge("streaming.shard_count");
  Gauge& topk_dirty_ratio =
      MetricsRegistry::Default().gauge("streaming.topk_dirty_ratio");
  Histogram& ingest_latency_us =
      MetricsRegistry::Default().histogram("streaming.ingest_latency_us");
  Histogram& topk_latency_us =
      MetricsRegistry::Default().histogram("streaming.topk_latency_us");
};

StreamingMetrics& GetStreamingMetrics() {
  static StreamingMetrics* metrics = new StreamingMetrics();
  return *metrics;
}

}  // namespace

StreamingMonitor::StreamingMonitor(const Deployment& deployment,
                                   const PoiSet& pois,
                                   StreamingOptions options,
                                   const TopologyChecker* topology)
    : deployment_(deployment),
      pois_(pois),
      options_(options),
      topology_(topology) {
  INDOORFLOW_CHECK(options_.merger.sampling_period > 0.0);
  INDOORFLOW_CHECK(options_.vmax > 0.0);
  poi_regions_.reserve(pois_.size());
  poi_areas_.reserve(pois_.size());
  for (size_t i = 0; i < pois_.size(); ++i) {
    INDOORFLOW_CHECK(pois_[i].id == static_cast<PoiId>(i));
    // Degenerate polygons demote to area 0 so live flows treat them the
    // same way the historical engine does.
    poi_regions_.push_back(Region::Make(pois_[i].shape));
    poi_areas_.push_back(EffectivePoiArea(pois_[i].Area(), options_.flow));
  }
  if (options_.ur_cache.enabled) {
    ur_cache_ = std::make_unique<UrCache>(options_.ur_cache);
  }
  size_t shard_count = 1;
  while (shard_count < static_cast<size_t>(std::max(options_.shards, 1))) {
    shard_count <<= 1;
  }
  shards_.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = static_cast<uint32_t>(shard_count - 1);
  GetStreamingMetrics().shard_count.Set(static_cast<double>(shard_count));
  // Deployment reach: an upper bound on the distance from any device
  // center to any point of any detection disk. A hand-off ring with budget
  // vmax * gap >= reach contains every disk outright (and its inner hole
  // has vanished, since reach also bounds every radius), so by the time a
  // track is `reach / vmax` stale its `last` record can no longer
  // constrain anything — eviction past that lag is exact.
  Box centers;  // default Box is empty (inverted bounds)
  for (const Device& device : deployment_.devices()) {
    centers.ExpandToInclude(device.range.center);
  }
  const double diag =
      deployment_.size() == 0
          ? 0.0
          : std::hypot(centers.max_x - centers.min_x,
                       centers.max_y - centers.min_y);
  const double reach = diag + 2.0 * deployment_.max_radius();
  eviction_lag_seconds_ =
      std::max(options_.expiry_seconds, reach / options_.vmax);
}

Status StreamingMonitor::ApplyReadingLocked(Shard& shard,
                                            const RawReading& reading) {
  StreamingMetrics& metrics = GetStreamingMetrics();
  if (reading.device_id < 0 ||
      static_cast<size_t>(reading.device_id) >= deployment_.size()) {
    metrics.readings_rejected.Add(1);
    return Status::InvalidArgument("unknown device " +
                                   std::to_string(reading.device_id));
  }
  const auto [it, inserted] = shard.tracks.try_emplace(reading.object_id);
  ObjectTrack& track = it->second;
  const double max_gap =
      options_.merger.max_gap_factor * options_.merger.sampling_period;
  if (track.open.has_value()) {
    if (reading.t < track.open->te) {
      metrics.readings_rejected.Add(1);
      return Status::InvalidArgument(
          "out-of-order reading for object " +
          std::to_string(reading.object_id));
    }
    if (track.open->device_id == reading.device_id &&
        reading.t - track.open->te <= max_gap) {
      track.open->te = reading.t;  // extend the open record
    } else {
      track.last = track.open;  // close it and start a new one
      track.open = TrackingRecord{reading.object_id, reading.device_id,
                                  reading.t, reading.t};
    }
  } else {
    track.open = TrackingRecord{reading.object_id, reading.device_id,
                                reading.t, reading.t};
  }
  if (inserted) track_count_.fetch_add(1, std::memory_order_relaxed);
  shard.dirty = true;
  // Monotonic cross-shard max: another shard's ingest may race this CAS,
  // but each retry re-reads the larger value, so the clock never regresses.
  Timestamp seen = now_.load(std::memory_order_relaxed);
  while (reading.t > seen &&
         !now_.compare_exchange_weak(seen, reading.t,
                                     std::memory_order_relaxed)) {
  }
  // New evidence for this object: every cached live region of it is now
  // stale. The bump is per object, so other objects' entries stay warm.
  if (ur_cache_ != nullptr) ur_cache_->BumpEpoch(reading.object_id);
  metrics.readings_ingested.Add(1);
  return Status::OK();
}

size_t StreamingMonitor::EvictExpiredLocked(Shard& shard,
                                            Timestamp horizon) const {
  size_t evicted = 0;
  for (auto it = shard.tracks.begin(); it != shard.tracks.end();) {
    const ObjectTrack& track = it->second;
    if (track.open.has_value() &&
        horizon - track.open->te > eviction_lag_seconds_) {
      it = shard.tracks.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) {
    StreamingMetrics& metrics = GetStreamingMetrics();
    track_count_.fetch_sub(static_cast<int64_t>(evicted),
                           std::memory_order_relaxed);
    metrics.tracks_evicted.Add(static_cast<int64_t>(evicted));
  }
  return evicted;
}

Status StreamingMonitor::Ingest(const RawReading& reading, const Span* span) {
  StreamingMetrics& metrics = GetStreamingMetrics();
  ScopedTimer timer(&metrics.ingest_latency_us);
  // Destroyed after `lock` below: the span's End() takes the kTrace mutex
  // only once the shard lock has been released (a legal rank descent
  // either way).
  Span ingest_span(span, "ingest");
  Shard& shard = ShardFor(reading.object_id);
  Status status;
  {
    MutexLock lock(shard.mu);
    status = ApplyReadingLocked(shard, reading);
    // Amortized eviction: sweep this shard at most twice per eviction-lag
    // window, so evictable entries linger at most ~1.5x the lag even on an
    // ingest-only workload (queries evict eagerly on recompute).
    if (status.ok() &&
        reading.t - shard.last_sweep >= 0.5 * eviction_lag_seconds_) {
      shard.last_sweep = reading.t;
      EvictExpiredLocked(shard, now());
    }
  }
  metrics.track_table_size.Set(static_cast<double>(TrackCount()));
  return status;
}

Status StreamingMonitor::IngestBatch(const std::vector<RawReading>& readings,
                                     const Span* span) {
  StreamingMetrics& metrics = GetStreamingMetrics();
  ScopedTimer timer(&metrics.ingest_latency_us);
  Span batch_span(span, "ingest_batch");
  // Group reading indices by shard, preserving arrival order within each
  // shard (an object maps to exactly one shard, so its per-object order
  // survives the regrouping and the batch applies identically to a
  // one-by-one replay).
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  for (uint32_t i = 0; i < readings.size(); ++i) {
    by_shard[static_cast<uint32_t>(readings[i].object_id) & shard_mask_]
        .push_back(i);
  }
  // Readings replay shard by shard, so "first rejection" must be tracked
  // by batch index: the first failing shard is not the first failing
  // reading in arrival order.
  Status first_error = Status::OK();
  uint32_t first_error_index = static_cast<uint32_t>(readings.size());
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (uint32_t i : by_shard[s]) {
      Status status = ApplyReadingLocked(shard, readings[i]);
      if (!status.ok() && i < first_error_index) {
        first_error_index = i;
        first_error = std::move(status);
      }
    }
    const Timestamp latest = now();
    if (latest - shard.last_sweep >= 0.5 * eviction_lag_seconds_) {
      shard.last_sweep = latest;
      EvictExpiredLocked(shard, latest);
    }
  }
  metrics.batches_ingested.Add(1);
  metrics.track_table_size.Set(static_cast<double>(TrackCount()));
  return first_error;
}

Region StreamingMonitor::TrackRegion(ObjectId object,
                                     const ObjectTrack& track,
                                     Timestamp t) const {
  if (!track.open.has_value()) return Region();
  const TrackingRecord& open = *track.open;
  // Before the object's first reading there is no evidence at all: the
  // object was not yet being tracked, so its live region is empty — not
  // the (future) detection disk the active branch would report.
  const Timestamp first_ts = track.last.has_value() ? track.last->ts
                                                    : open.ts;
  if (t < first_ts) return Region();
  if (t - open.te > options_.expiry_seconds) return Region();  // presumed gone

  // Live derivations key the cache under Kind::kLive — their semantics
  // differ from the historical snapshot at the same (object, t), so the
  // namespaces must not collide. Ingest bumps the object's epoch, which
  // lazily invalidates everything cached here.
  Region cached;
  if (ur_cache_ != nullptr &&
      ur_cache_->Lookup(object, UrCache::Kind::kLive, t, t, &cached)) {
    return cached;
  }

  const double max_gap =
      options_.merger.max_gap_factor * options_.merger.sampling_period;
  const Circle& open_range =
      deployment_.device(open.device_id).range;

  Region region;
  if (t <= open.te + max_gap) {
    // Still detected: the historical "active" case against the previous
    // record (same-device re-detections keep the plain range).
    region = Region::Make(open_range);
    if (track.last.has_value() &&
        track.last->device_id != open.device_id) {
      const Circle& last_range =
          deployment_.device(track.last->device_id).range;
      const double budget = options_.vmax * (t - track.last->te);
      // Zero budget (t exactly at the hand-off instant) degenerates the
      // ring to a zero-area annulus; the detection disk is the physically
      // correct constraint then (same fix as UncertaintyModel's RingPiece).
      region = Region::Intersect(
          region, budget <= 0.0
                      ? Region::Make(last_range)
                      : Region::Make(Ring::Around(last_range, budget)));
    }
  } else {
    // Undetected right now: only the backward constraint exists (no rd_suc
    // yet) — Ring(last seen device, Vmax * elapsed).
    const double budget = options_.vmax * (t - open.te);
    region = Region::Make(Ring::Around(open_range, budget));
    if (topology_ != nullptr) {
      region = Region::Intersect(
          region, topology_->ReachableFrom(open.device_id, budget));
    }
  }
  if (ur_cache_ != nullptr) {
    ur_cache_->Insert(object, UrCache::Kind::kLive, t, t, region);
  }
  return region;
}

size_t StreamingMonitor::ActiveObjects(Timestamp t) const {
  size_t count = 0;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (const auto& [object, track] : shard.tracks) {
      count += (track.open.has_value() &&
                t - track.open->te <= options_.expiry_seconds)
                   ? 1
                   : 0;
    }
  }
  return count;
}

Region StreamingMonitor::LiveRegion(ObjectId object, Timestamp t,
                                    const QueryControl* control) const {
  if (control != nullptr && control->ShouldAbort()) return Region();
  Shard& shard = ShardFor(object);
  MutexLock lock(shard.mu);
  const auto it = shard.tracks.find(object);
  if (it == shard.tracks.end()) return Region();
  return TrackRegion(object, it->second, t);
}

void StreamingMonitor::TrackPresences(ObjectId object,
                                      const ObjectTrack& track, Timestamp t,
                                      TrackContribution* contrib) const {
  contrib->object = object;
  const Region ur = TrackRegion(object, track, t);
  if (ur.IsEmpty()) return;
  const Box bounds = ur.Bounds();
  for (size_t i = 0; i < pois_.size(); ++i) {
    if (!bounds.Intersects(pois_[i].shape.Bounds())) continue;
    contrib->pois.push_back(static_cast<int32_t>(i));
    contrib->presences.push_back(
        Presence(ur, poi_areas_[i], poi_regions_[i], options_.flow));
  }
}

bool StreamingMonitor::RecomputeShardTallyLocked(
    Shard& shard, Timestamp t, const QueryControl* control) const {
  // Eviction piggybacks on the full-table walk the recompute needs anyway;
  // the horizon is the stream clock (monotone), never the query's t, so a
  // query slightly ahead of the stream cannot drop still-live tracks.
  EvictExpiredLocked(shard, now());
  // Ascending object-id order: the published contributions merge across
  // shards in one global id order, making the flow accumulation
  // independent of the shard count (see the header's sharding note).
  std::vector<ObjectId> ids;
  ids.reserve(shard.tracks.size());
  for (const auto& [object, track] : shard.tracks) ids.push_back(object);
  std::sort(ids.begin(), ids.end());
  auto tally = std::make_shared<ShardTally>();
  tally->t = t;
  tally->contribs.reserve(ids.size());
  for (ObjectId object : ids) {
    // Cooperative abandonment: publish nothing and leave the shard dirty,
    // so a later query redoes the walk from scratch.
    if (control != nullptr && control->ShouldAbort()) return false;
    TrackContribution contrib;
    TrackPresences(object, shard.tracks.find(object)->second, t, &contrib);
    if (contrib.pois.empty()) continue;
    tally->contribs.push_back(std::move(contrib));
  }
  shard.tally = std::move(tally);
  shard.dirty = false;
  return true;
}

std::vector<PoiFlow> StreamingMonitor::CurrentTopK(
    Timestamp t, int k, const QueryControl* control) const {
  StreamingMetrics& metrics = GetStreamingMetrics();
  ScopedTimer timer(&metrics.topk_latency_us);
  const size_t n = shards_.size();
  // Pass 1 (serial, one shard lock at a time): snapshot every shard whose
  // published tally is already valid for `t`; collect the stale rest.
  std::vector<ShardTallyPtr> snaps(n);
  std::vector<size_t> stale;
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    if (!shard.dirty && shard.tally != nullptr && shard.tally->t == t) {
      snaps[s] = shard.tally;
    } else {
      stale.push_back(s);
    }
  }
  // Pass 2: re-derive stale shards only, fanned across the shared
  // executor. Lanes touch disjoint shards (and the internally-synchronized
  // UR cache), so the derived contributions are identical to a serial
  // walk; the order-sensitive flow accumulation happens in pass 3.
  int64_t recomputed = 0;
  if (!stale.empty()) {
    // Lanes touch disjoint slots, so plain per-lane flags suffice (same
    // pattern as snaps); summed serially after the fan-out.
    std::vector<uint8_t> lane_recomputed(stale.size(), 0);
    Executor::Default().ParallelFor(
        stale.size(), static_cast<int>(stale.size()), [&](size_t i) {
          Shard& shard = *shards_[stale[i]];
          MutexLock lock(shard.mu);
          // Double-check under the lock: a concurrent query may have
          // published a tally for this same `t` since pass 1 — that is a
          // reuse, not a recompute.
          if (shard.dirty || shard.tally == nullptr ||
              shard.tally->t != t) {
            if (!RecomputeShardTallyLocked(shard, t, control)) return;
            lane_recomputed[i] = 1;
          }
          snaps[stale[i]] = shard.tally;
        });
    recomputed = std::count(lane_recomputed.begin(), lane_recomputed.end(),
                            uint8_t{1});
    metrics.shard_recomputes.Add(recomputed);
    metrics.track_table_size.Set(static_cast<double>(TrackCount()));
  }
  // Reuses = shards that contributed a tally this query without a
  // recompute (clean in pass 1, or freshly published by a concurrent
  // query in pass 2); aborted lanes count as neither.
  const int64_t published = std::count_if(
      snaps.begin(), snaps.end(),
      [](const ShardTallyPtr& tally) { return tally != nullptr; });
  metrics.shard_reuses.Add(published - recomputed);
  metrics.topk_dirty_ratio.Set(static_cast<double>(stale.size()) /
                               static_cast<double>(n));
  // Pass 3 (serial ordered reduce): merge the immutable shard tallies in
  // ascending object-id order — the one global accumulation order every
  // shard count shares, so the summed flows are bit-identical across
  // configurations.
  std::vector<double> flows(pois_.size(), 0.0);
  std::vector<size_t> cursor(n, 0);
  for (;;) {
    if (control != nullptr && control->ShouldAbort()) break;
    const TrackContribution* next = nullptr;
    size_t next_shard = 0;
    for (size_t s = 0; s < n; ++s) {
      if (snaps[s] == nullptr) continue;
      const std::vector<TrackContribution>& contribs = snaps[s]->contribs;
      if (cursor[s] >= contribs.size()) continue;
      const TrackContribution& candidate = contribs[cursor[s]];
      if (next == nullptr || candidate.object < next->object) {
        next = &candidate;
        next_shard = s;
      }
    }
    if (next == nullptr) break;
    ++cursor[next_shard];
    for (size_t c = 0; c < next->pois.size(); ++c) {
      flows[static_cast<size_t>(next->pois[c])] += next->presences[c];
    }
  }
  std::vector<PoiFlow> all;
  all.reserve(pois_.size());
  for (size_t i = 0; i < pois_.size(); ++i) {
    all.push_back(PoiFlow{static_cast<PoiId>(i), flows[i]});
  }
  return TopK(std::move(all), k);
}

std::vector<FlowEstimate> StreamingMonitor::CurrentTopKEstimate(
    Timestamp t, int k, const ApproxConfig& approx,
    const QueryControl* control) const {
  // Exact mode never samples, so it needs no population pass.
  if (approx.mode == ApproxMode::kExact) {
    return ExactEstimates(CurrentTopK(t, k, control));
  }
  // Pass A (serial, one shard lock at a time): evict and enumerate the
  // live track population. Ids are unique across shards, so the sorted
  // (object, shard) list is the same canonical ascending-id order the
  // exact path's merge uses.
  struct TrackRef {
    ObjectId object;
    uint32_t shard;
  };
  std::vector<TrackRef> refs;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    EvictExpiredLocked(shard, now());
    for (const auto& [object, track] : shard.tracks) {
      refs.push_back(TrackRef{object, static_cast<uint32_t>(s)});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const TrackRef& a, const TrackRef& b) {
              return a.object < b.object;
            });
  const size_t population = refs.size();
  if (!ShouldSample(approx, population)) {
    return ExactEstimates(CurrentTopK(t, k, control));
  }

  StreamingMetrics& metrics = GetStreamingMetrics();
  ScopedTimer timer(&metrics.topk_latency_us);
  const std::vector<size_t> picks =
      SampleIndices(population, static_cast<size_t>(approx.sample_budget),
                    MixSampleSeed(approx.seed, t, t));
  // Group the sampled tracks per shard so each shard locks once; the
  // per-pick slots keep the global ascending-id order for the serial
  // accumulation below, regardless of shard iteration order.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t p = 0; p < picks.size(); ++p) {
    by_shard[refs[picks[p]].shard].push_back(p);
  }
  std::vector<TrackContribution> contribs(picks.size());
  // Picks that vanish between the enumeration and evaluation passes (a
  // concurrent eviction sweep) are not zero-presence observations: they
  // must leave both the sample and the population, or the estimator and
  // its variance would be biased downward every time a query races an
  // eviction. An empty contribution from a *found* track is a real zero.
  std::vector<uint8_t> found(picks.size(), 0);
  bool aborted = false;
  for (size_t s = 0; s < shards_.size() && !aborted; ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    for (size_t p : by_shard[s]) {
      // Same cooperative abandonment as the exact path: the caller
      // discards the partial result once control->Aborted() reports it.
      if (control != nullptr && control->ShouldAbort()) {
        aborted = true;
        break;
      }
      const auto it = shard.tracks.find(refs[picks[p]].object);
      if (it == shard.tracks.end()) continue;  // raced an eviction sweep
      found[p] = 1;
      TrackPresences(it->first, it->second, t, &contribs[p]);
    }
  }
  // Serial accumulation in ascending object-id order (pick order), mirroring
  // the exact path's merge discipline so repeated runs are bit-identical.
  std::unordered_map<PoiId, double> sums;
  std::unordered_map<PoiId, double> sums_sq;
  for (const TrackContribution& contrib : contribs) {
    for (size_t c = 0; c < contrib.pois.size(); ++c) {
      const PoiId poi = contrib.pois[c];
      const double presence = contrib.presences[c];
      sums[poi] += presence;
      sums_sq[poi] += presence * presence;
    }
  }
  std::vector<PoiId> all_ids;
  all_ids.reserve(pois_.size());
  for (size_t i = 0; i < pois_.size(); ++i) {
    all_ids.push_back(static_cast<PoiId>(i));
  }
  // Evaluated = picks actually found; vanished picks shrink the
  // population the same way (the track no longer exists), so the
  // remaining sample stays a uniform draw from the remaining tracks.
  // Under abort the unvisited picks land here too, but the caller
  // discards the partial result by contract.
  const size_t evaluated = static_cast<size_t>(
      std::count(found.begin(), found.end(), uint8_t{1}));
  const size_t vanished = picks.size() - evaluated;
  std::vector<FlowEstimate> estimates = EstimateFlows(
      all_ids, sums, sums_sq, population - vanished, evaluated);
  metrics.sampled_queries.Add(1);
  metrics.sampled_tracks.Add(static_cast<int64_t>(evaluated));
  return TopKEstimates(std::move(estimates), k);
}

}  // namespace indoorflow
