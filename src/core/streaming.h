// Live monitoring over a raw reading stream (an indoorflow extension —
// the paper's queries are strictly historical).
//
// StreamingMonitor ingests (object, device, t) readings in time order,
// maintains each object's open/last detection online (the merger's logic,
// incrementally), and answers "top-k POIs right now". The uncertainty of a
// currently-undetected object differs from the historical case: rd_suc does
// not exist yet, so the region is Ring(rd_pre, Vmax·(now − rd_pre.te))
// alone (optionally topology-checked) — it grows until the object is seen
// again. Objects unseen for longer than `expiry_seconds` are presumed to
// have left the space and stop contributing; their table entries are
// evicted lazily (see "Eviction" below).
//
// One further live-vs-historical difference: within the merge gap after an
// object's last reading (merger.max_gap_factor * sampling_period) the
// monitor keeps the open record extended — the object is "probably still
// in range", and the next reading usually confirms it — whereas a merger
// over the stream truncated at `now` would have closed the record at the
// last reading. Live regions in that window are the detection disk, not
// the ring (tests/streaming_property_test.cc pins down both semantics).
//
// Sharding and incremental top-k. The track table is split across N
// lock-ranked shards keyed by object id, so ingest of one object only
// contends with queries touching that object's shard. Each shard also
// owns a published flow tally: the per-object candidate-POI/presence
// contributions derived at some timestamp, immutable behind a shared_ptr.
// Ingest marks only the touched shard dirty; CurrentTopK re-derives
// contributions for dirty (or wrong-timestamp) shards only — fanned
// across the shared executor — and reuses every clean shard's published
// tally. The final flow accumulation is a serial merge across shard
// tallies in ascending object-id order, so the summed per-POI flows are
// bit-identical for every shard count (the same map/ordered-reduce
// discipline as the historical engine's per-object kernel in
// src/core/query_pipeline.cc; pinned by tests/streaming_shard_test.cc).
//
// Eviction: tracks whose open record ended more than the eviction lag
// before the stream clock are dropped during tally recomputes and during
// periodic per-shard sweeps on the ingest path. The lag is
// max(expiry_seconds, deployment reach / vmax): past `expiry_seconds` the
// track already contributes nothing, and past `reach / vmax` even a future
// re-detection's hand-off ring Ring(last, vmax·gap) would cover every
// detection disk in the deployment — intersecting with it is a geometric
// no-op — so forgetting the track's `last` record is bit-invisible to
// every later region. Eviction never changes results for queries at
// t >= now() − the documented domain − but the monitor forgets evicted
// objects entirely, so a query at a timestamp far in the past may see an
// empty region where a pre-eviction query saw one.
//
// Limitation: with *overlapping* detection ranges, simultaneous readings
// from two radios ping-pong the open record between devices; feed such
// streams through CleanseReadings/MergeReadings and the historical engine
// instead (the monitor targets the paper's disjoint-range deployments).
//
// Thread safety: the monitor is internally synchronized — any number of
// ingest and query threads may run concurrently (the deployment shape the
// ROADMAP targets: continuous ingest plus live dashboards). Each shard's
// table and tally are guarded by that shard's `mu` (rank kStreamShard; the
// shards are same-ranked and never nested — every path locks exactly one
// shard at a time). The stream clock and track count are lock-free
// atomics: the clock is a cross-shard monotonic max maintained by a CAS
// loop, polled by query threads without touching any shard lock
// (allowlisted in tools/indoorflow_lint.py and raced deliberately by
// tests/streaming_shard_test.cc under the TSan CI job). The invariants
// are enforced at compile time by Clang's thread-safety analysis and
// validated dynamically by the TSan CI job. Note the per-object
// time-order requirement on Ingest still holds: *concurrent* ingest of
// the same object's readings from two threads has no defined arrival
// order, so keep ingest single-threaded per object.

#ifndef INDOORFLOW_CORE_STREAMING_H_
#define INDOORFLOW_CORE_STREAMING_H_

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/approx.h"
#include "src/core/flow.h"
#include "src/core/topology_check.h"
#include "src/core/ur_cache.h"
#include "src/tracking/deployment.h"
#include "src/tracking/merger.h"

namespace indoorflow {

class Span;  // src/common/trace.h

struct StreamingOptions {
  /// Reading merge behavior (sampling period, gap tolerance).
  MergerOptions merger;
  double vmax = 1.1;
  /// Objects unseen for this long no longer contribute to flows (and are
  /// eventually evicted from the track table).
  double expiry_seconds = 600.0;
  /// Track-table shards (rounded up to a power of two, minimum 1).
  /// Objects map to shards by id, so sequential id spaces spread
  /// round-robin. One shard reproduces the pre-sharding single-mutex
  /// monitor's locking behavior exactly.
  int shards = 8;
  FlowConfig flow;
  /// Live uncertainty-region memoization (src/core/ur_cache.h). Off by
  /// default. Each Ingest bumps the object's epoch, so cached live regions
  /// go stale the moment new evidence arrives; repeated CurrentTopK /
  /// LiveRegion polls at an unchanged timestamp hit the cache instead of
  /// re-deriving every track.
  UrCacheConfig ur_cache;
};

class StreamingMonitor {
 public:
  /// `deployment` must be indexed and outlive the monitor; `topology` is
  /// optional (applies ReachableFrom pruning to undetected objects) and
  /// must outlive the monitor when given. `pois` must be id-dense.
  StreamingMonitor(const Deployment& deployment, const PoiSet& pois,
                   StreamingOptions options,
                   const TopologyChecker* topology = nullptr);

  /// Ingests one reading. Readings of one object must arrive in
  /// nondecreasing time order; cross-object interleaving is free. When
  /// `span` is non-null (a sampled request trace, src/common/trace.h) the
  /// ingest work is recorded as an "ingest" child span.
  Status Ingest(const RawReading& reading, const Span* span = nullptr);

  /// Ingests a batch of readings, locking each touched shard once instead
  /// of once per reading. Relative order within the batch is preserved, so
  /// the result is identical to ingesting the readings one by one. Invalid
  /// readings (unknown device, per-object time regression) are rejected
  /// individually — the rest of the batch still applies — and the first
  /// rejection's status is returned (OK when everything applied).
  Status IngestBatch(const std::vector<RawReading>& readings,
                     const Span* span = nullptr);

  /// Largest reading time seen so far (the stream clock).
  Timestamp now() const {
    return now_.load(std::memory_order_relaxed);
  }

  /// Objects currently contributing (seen within expiry_seconds of `t`).
  size_t ActiveObjects(Timestamp t) const;

  /// Objects resident in the track table (after lazy eviction; counts
  /// expired entries that have not been swept yet).
  size_t TrackCount() const {
    return static_cast<size_t>(track_count_.load(std::memory_order_relaxed));
  }

  size_t shard_count() const { return shards_.size(); }

  /// Exact top-k POIs by live flow at time `t` (>= now(); typically
  /// "now"). Reuses each clean shard's cached tally and recomputes only
  /// dirty shards, fanned across the shared executor. When `control` is
  /// non-null it is polled per object; once it trips, the (partial)
  /// result must be discarded by the caller — `control->Aborted()` reports
  /// the fact — and no half-computed tally is published.
  std::vector<PoiFlow> CurrentTopK(Timestamp t, int k,
                                   const QueryControl* control = nullptr)
      const;

  /// CurrentTopK under the per-call evaluation mode `approx`
  /// (src/core/approx.h, docs/APPROXIMATION.md): when it calls for
  /// sampling over the live track population (see ShouldSample),
  /// evaluates a deterministic uniform subsample of the tracks and returns
  /// Horvitz–Thompson top-k estimates with error bounds; otherwise runs
  /// CurrentTopK and wraps its result as exact rows. The sampled path
  /// derives regions fresh per call (it neither consults nor publishes the
  /// per-shard tallies — a sampled tally would poison exact reuse), so its
  /// win is evaluating budget-many tracks instead of all of them. Same
  /// abandonment contract as CurrentTopK.
  std::vector<FlowEstimate> CurrentTopKEstimate(
      Timestamp t, int k, const ApproxConfig& approx,
      const QueryControl* control = nullptr) const;

  /// The live uncertainty region of one object at `t` (empty when unknown,
  /// expired, before the object's first reading, or when `control` has
  /// already tripped).
  Region LiveRegion(ObjectId object, Timestamp t,
                    const QueryControl* control = nullptr) const;

 private:
  struct ObjectTrack {
    /// The record currently being extended (object in range), if any.
    std::optional<TrackingRecord> open;
    /// The most recent record before `open` (or before the gap).
    std::optional<TrackingRecord> last;
  };

  /// One object's share of a shard tally: its candidate POIs (bounds
  /// intersection order, as the seed monitor visited them) and the
  /// matching presence integrals.
  struct TrackContribution {
    ObjectId object = 0;
    std::vector<int32_t> pois;
    std::vector<double> presences;  // aligned with pois
  };

  /// A shard's published flow tally: per-object contributions at `t`, in
  /// ascending object-id order. Immutable once published — CurrentTopK
  /// snapshots the shared_ptr under the shard lock and merges outside it.
  struct ShardTally {
    Timestamp t = 0.0;
    std::vector<TrackContribution> contribs;
  };
  using ShardTallyPtr = std::shared_ptr<const ShardTally>;

  struct Shard {
    /// Same-ranked across shards; never nested (one shard per path).
    mutable Mutex mu
        INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceProfileRecorder)
            INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceStreamShard) =
                Mutex(LockRank::kStreamShard);
    std::unordered_map<ObjectId, ObjectTrack> tracks
        INDOORFLOW_GUARDED_BY(mu);
    /// Tracks changed since `tally` was published.
    bool dirty INDOORFLOW_GUARDED_BY(mu) = false;
    /// Null until the first recompute.
    ShardTallyPtr tally INDOORFLOW_GUARDED_BY(mu);
    /// Stream time of the last ingest-path eviction sweep.
    Timestamp last_sweep INDOORFLOW_GUARDED_BY(mu) = 0.0;
  };

  Shard& ShardFor(ObjectId object) const {
    return *shards_[static_cast<uint32_t>(object) & shard_mask_];
  }

  /// Merge-or-open one reading into its track; marks the shard dirty,
  /// advances the stream clock, and bumps the object's cache epoch.
  Status ApplyReadingLocked(Shard& shard, const RawReading& reading)
      INDOORFLOW_REQUIRES(shard.mu);

  /// Drops tracks whose open record ended more than eviction_lag_seconds_
  /// before `horizon`; returns the number evicted. Const because the query
  /// path evicts too (the table is reached through the shard, and the
  /// eviction count lives in the mutable atomic).
  size_t EvictExpiredLocked(Shard& shard, Timestamp horizon) const
      INDOORFLOW_REQUIRES(shard.mu);

  /// Rebuilds and publishes `shard.tally` for time `t` (evicting expired
  /// tracks on the way). Returns false — publishing nothing, leaving the
  /// shard dirty — when `control` trips mid-walk.
  bool RecomputeShardTallyLocked(Shard& shard, Timestamp t,
                                 const QueryControl* control) const
      INDOORFLOW_REQUIRES(shard.mu);

  /// Reads a track owned by a shard's table, so that shard's lock must be
  /// held (not expressible to the static analysis across N shards; the
  /// dynamic rank validator still sees it). `object` keys the optional
  /// live-region cache; lock order is always shard -> cache shard (the
  /// cache never calls back out).
  Region TrackRegion(ObjectId object, const ObjectTrack& track,
                     Timestamp t) const;

  /// The one per-track step both live top-k paths share (region -> POI
  /// scan -> presences): fills `contrib` with `object` and, unless its
  /// live region at `t` is empty, every POI whose bounds that region's
  /// bounds touch, with the presence in each. Same lock rule as
  /// TrackRegion.
  void TrackPresences(ObjectId object, const ObjectTrack& track, Timestamp t,
                      TrackContribution* contrib) const;

  const Deployment& deployment_;
  const PoiSet& pois_;
  StreamingOptions options_;
  const TopologyChecker* topology_;
  std::vector<Region> poi_regions_;   // immutable after construction
  std::vector<double> poi_areas_;     // immutable after construction
  /// Internally synchronized; null when options_.ur_cache.enabled is false.
  std::unique_ptr<UrCache> ur_cache_;
  /// Immutable after construction (the unique_ptrs pin each Shard's
  /// address; Mutex is not movable).
  std::vector<std::unique_ptr<Shard>> shards_;
  uint32_t shard_mask_ = 0;
  /// Age past which a track may be forgotten without changing any future
  /// region: max(expiry_seconds, deployment reach / vmax), where reach is
  /// the deployment bounding-box diagonal plus twice the largest detection
  /// radius. Once a gap exceeds reach / vmax, a re-detection's hand-off
  /// ring covers every possible detection disk (classifying every
  /// integrator cell kInside), so dropping the `last` record it would have
  /// constrained is bit-invisible (tests/streaming_shard_test.cc).
  double eviction_lag_seconds_ = 0.0;
  /// Cross-shard monotonic max of reading times (CAS loop in the ingest
  /// path); lock-free so query threads read the clock without touching a
  /// shard.
  std::atomic<Timestamp> now_{0.0};
  /// Resident tracks across all shards (insertions minus evictions).
  mutable std::atomic<int64_t> track_count_{0};
};

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_STREAMING_H_
