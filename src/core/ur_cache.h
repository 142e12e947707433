// Cross-query memoization of derived uncertainty regions.
//
// Deriving UR(o, t) (paper Section 3) repeats the same Ring / extended-
// ellipse construction whenever consecutive queries hit the same
// (object, time) pair — dashboards polling a fixed timestamp, the workers
// inside QueryEngine::SnapshotTopKBatch, or a StreamingMonitor answering
// CurrentTopK between ingests. UrCache memoizes those derivations
// process-wide: a sharded map from (object, kind, ts, te) to the derived
// Region. Regions are cheap to copy (one shared immutable CSG program), so
// a hit hands back the exact same program the miss path would have built —
// cached and uncached query results are bit-identical
// (tests/differential_test.cc proves this across the full query matrix).
//
// Each entry also carries a presence memo: the per-POI presence integrals
// already computed over the cached region (Definition 1). Region
// construction is cheap next to the adaptive area integration behind
// Presence(), so the memo is where repeated-timestamp workloads actually
// win. The integrator is deterministic, so a memoized value is exactly the
// double a re-integration over the identical immutable region would
// produce — bit-identity of cached results extends to the memo. Memos only
// make sense while the POI set and FlowConfig are fixed, which holds
// because every cache is owned by one engine / monitor.
//
// Eviction is LRU per shard under a configurable byte budget, with entry
// sizes approximated by Region::ApproxBytes(). Invalidation is epoch-based:
// writers that change an object's tracking state (StreamingMonitor::Ingest)
// call BumpEpoch(object); entries carry the epoch current at insert time
// and die lazily on their next lookup — no global flush, no writer stalls.
// Historical engines over immutable tracking tables never bump, so their
// entries live until evicted.
//
// Thread safety: fully internally synchronized — any number of threads may
// call Lookup / Insert / BumpEpoch concurrently. Each shard (and each epoch
// shard) has its own annotated Mutex; no operation holds more than one lock
// at a time, and the cache never calls back into callers, so it composes
// with any caller-side locking (the streaming monitor calls it under its
// table lock).

#ifndef INDOORFLOW_CORE_UR_CACHE_H_
#define INDOORFLOW_CORE_UR_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/geometry/region.h"
#include "src/tracking/reading.h"

namespace indoorflow {

class Span;  // src/common/trace.h

struct UrCacheConfig {
  /// Off by default: enabling changes no query result (see the differential
  /// suite) but does change work counters (regions_derived) and warms
  /// repeated-timestamp workloads, so existing callers, tests, and the
  /// cold-path benchmarks opt in explicitly.
  bool enabled = false;
  /// Approximate total byte budget across all shards.
  size_t max_bytes = 64ull << 20;  // 64 MiB
  /// Number of independent LRU shards; rounded up to a power of two.
  /// More shards = less lock contention, coarser per-shard budgets.
  int shards = 8;
};

class UrCache {
 public:
  /// Namespaces the time key: snapshot URs are keyed (t, t), interval URs
  /// (ts, te), live (streaming) URs (t, t) in their own space — the live
  /// derivation differs from the historical snapshot one.
  enum class Kind : uint8_t { kSnapshot = 0, kInterval = 1, kLive = 2 };

  /// Monotonic operation totals, also mirrored into the process metrics
  /// registry (urcache.hits / misses / inserts / evictions / stale_drops).
  struct Counters {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    int64_t stale_drops = 0;
  };

  /// Per-entry memo of presence integrals over the cached region
  /// (poi id -> Presence(region, poi, ...)). Shares the entry's lifetime:
  /// eviction or a stale drop releases it, so epoch invalidation covers the
  /// memoized integrals exactly as it covers the region. Internally
  /// synchronized; racing writers store the value both computed from the
  /// same region, so last-writer-wins is benign. Memo bytes (at most
  /// poi-count map nodes per entry) are bounded by EntryCount() and are
  /// deliberately outside the shard byte budget.
  class PresenceMemo {
   public:
    /// Returns true and sets `*out` if `poi`'s integral was memoized.
    bool TryGet(int32_t poi, double* out) const;
    /// Memoizes the integral for `poi`.
    void Put(int32_t poi, double value);

   private:
    mutable Mutex mu_ INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceStreamShard)
        INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceUrCache) =
            Mutex(LockRank::kUrCache);
    std::unordered_map<int32_t, double> values_ INDOORFLOW_GUARDED_BY(mu_);
  };
  using PresenceMemoPtr = std::shared_ptr<PresenceMemo>;

  explicit UrCache(const UrCacheConfig& config);
  UrCache(const UrCache&) = delete;
  UrCache& operator=(const UrCache&) = delete;

  /// On a fresh hit, copies the cached region into `*out`, refreshes LRU
  /// position, and returns true. A stale entry (object epoch bumped since
  /// insert) is dropped and reported as a miss. When `memo` is non-null it
  /// receives the entry's presence memo on a hit (nullptr otherwise).
  /// When `span` is an active request span (src/common/trace.h) the
  /// outcome is recorded on it as a "urcache.hit" / "urcache.miss" event,
  /// outside the shard lock; null costs one pointer compare.
  bool Lookup(ObjectId object, Kind kind, Timestamp ts, Timestamp te,
              Region* out, PresenceMemoPtr* memo = nullptr,
              const Span* span = nullptr);

  /// Inserts or replaces the entry, stamped with the object's current
  /// epoch, then evicts LRU entries until the shard is back under budget.
  /// Regions larger than a whole shard's budget are not cached. When `memo`
  /// is non-null it receives the (fresh, empty) presence memo of the
  /// inserted entry, or nullptr if the region was too large to cache.
  void Insert(ObjectId object, Kind kind, Timestamp ts, Timestamp te,
              const Region& region, PresenceMemoPtr* memo = nullptr);

  /// Invalidates every cached region of `object` (lazily, on next lookup).
  /// Called by writers whenever the object's tracking state changes.
  void BumpEpoch(ObjectId object);

  /// The object's current epoch (0 until first bumped).
  uint64_t EpochOf(ObjectId object) const;

  /// Approximate bytes currently held across all shards.
  size_t ApproxBytes() const;
  /// Number of live entries across all shards (stale ones included until
  /// their lazy drop).
  size_t EntryCount() const;
  Counters TotalCounters() const;

  /// One shard's point-in-time occupancy and operation totals — the
  /// per-shard view behind ApproxBytes()/EntryCount()/TotalCounters(),
  /// for spotting skew (one hot object pinning a shard at budget while
  /// the others sit empty).
  struct ShardStats {
    size_t bytes = 0;
    size_t entries = 0;
    Counters counters;
  };

  /// Snapshot of shard `index` (< shard_count()).
  ShardStats ShardStatsAt(size_t index) const;

  size_t shard_count() const { return shards_.size(); }
  size_t shard_budget_bytes() const { return shard_budget_; }

 private:
  struct Key {
    ObjectId object = -1;
    uint8_t kind = 0;
    uint64_t ts_bits = 0;  // bit pattern of the Timestamp (exact match)
    uint64_t te_bits = 0;

    bool operator==(const Key& o) const {
      return object == o.object && kind == o.kind && ts_bits == o.ts_bits &&
             te_bits == o.te_bits;
    }
  };

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  struct Entry {
    Region region;
    PresenceMemoPtr memo;
    uint64_t epoch = 0;
    size_t bytes = 0;
  };

  // Front of `lru` is most recently used; `index` points into it.
  struct Shard {
    mutable Mutex mu INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceStreamShard)
        INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceUrCache) =
            Mutex(LockRank::kUrCache);
    std::list<std::pair<Key, Entry>> lru INDOORFLOW_GUARDED_BY(mu);
    std::unordered_map<Key, std::list<std::pair<Key, Entry>>::iterator,
                       KeyHash>
        index INDOORFLOW_GUARDED_BY(mu);
    size_t bytes INDOORFLOW_GUARDED_BY(mu) = 0;
    Counters counters INDOORFLOW_GUARDED_BY(mu);
  };

  struct EpochShard {
    mutable Mutex mu INDOORFLOW_ACQUIRED_AFTER(lock_order::kFenceStreamShard)
        INDOORFLOW_ACQUIRED_BEFORE(lock_order::kFenceUrCache) =
            Mutex(LockRank::kUrCache);
    std::unordered_map<ObjectId, uint64_t> epochs INDOORFLOW_GUARDED_BY(mu);
  };

  static Key MakeKey(ObjectId object, Kind kind, Timestamp ts, Timestamp te);
  Shard& ShardFor(const Key& key) const;
  EpochShard& EpochShardFor(ObjectId object) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<EpochShard>> epoch_shards_;
  size_t shard_budget_ = 0;  // max_bytes / shards
};

}  // namespace indoorflow

#endif  // INDOORFLOW_CORE_UR_CACHE_H_
