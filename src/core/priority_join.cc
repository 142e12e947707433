#include "src/core/priority_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "src/core/query_profile.h"

namespace indoorflow {

namespace {

// A reference to one entry (node, slot) of the aggregate object tree.
struct RIRef {
  RTree::NodeId node = -1;
  int slot = 0;
};

struct QueueEntry {
  double priority = 0.0;  // upper-bound flow, or exact flow when exact
  bool exact = false;
  PoiId exact_poi = -1;  // valid when exact

  RTree::NodeId p_node = -1;  // e_P location (valid when !exact)
  int p_slot = 0;
  std::vector<RIRef> list;  // join list (entries of one R_I level)
};

struct QueueCompare {
  // Max-heap "less-than": order by priority, then exact-before-bound, then
  // POI id (ascending) so that equal exact flows pop deterministically.
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.exact != b.exact) return b.exact;  // exact wins ties
    return a.exact_poi > b.exact_poi;
  }
};

// A max-heap over QueueEntry that supports moving elements out (which
// std::priority_queue's const top() forbids).
class EntryHeap {
 public:
  bool empty() const { return entries_.empty(); }

  void Push(QueueEntry entry) {
    entries_.push_back(std::move(entry));
    std::push_heap(entries_.begin(), entries_.end(), QueueCompare{});
  }

  QueueEntry Pop() {
    std::pop_heap(entries_.begin(), entries_.end(), QueueCompare{});
    QueueEntry top = std::move(entries_.back());
    entries_.pop_back();
    return top;
  }

 private:
  std::vector<QueueEntry> entries_;
};

// The best-first R_P x R_I traversal shared by the top-k and threshold
// queries. Emits POIs with positive exact flow in nonincreasing flow order;
// stops when `emit` returns false or when the best remaining upper bound
// falls below `min_priority` (at which point no unseen POI can reach it).
template <typename Emit>
void RunBestFirstJoin(const PriorityJoinSpec& spec, double min_priority,
                      const Emit& emit) {
  const RTree& poi_tree = *spec.poi_tree;
  const AggregateRTree& agg = *spec.objects;
  const RTree& obj_tree = agg.tree();
  if (poi_tree.empty() || obj_tree.empty()) return;
  QueryProfile* profile = spec.profile;

  // Admission of a POI box against an R_I entry. Leaf object entries check
  // their finer sub-MBRs when available (interval improvement, Fig. 9).
  const auto admits = [&](const RIRef& ref, const Box& box) {
    if (obj_tree.IsLeaf(ref.node)) {
      return agg.Admits(obj_tree.EntryItem(ref.node, ref.slot), box);
    }
    return obj_tree.EntryBox(ref.node, ref.slot).Intersects(box);
  };

  // Upper bound on the flow an R_I entry can contribute to any POI within
  // the given POI box whose area is at least `min_poi_area`. The paper uses
  // the object count (presence <= 1, Definition 1); with area_bounds the
  // per-object presence is additionally bounded by the box-overlap ratio.
  const auto flow_bound = [&](const RIRef& ref, const Box& poi_box,
                              double min_poi_area) {
    const double count =
        static_cast<double>(obj_tree.EntryCount(ref.node, ref.slot));
    if (!spec.area_bounds || min_poi_area <= 0.0) return count;
    double overlap = 0.0;
    if (obj_tree.IsLeaf(ref.node)) {
      const AggregateRTree::ObjectEntry& entry =
          agg.entry(obj_tree.EntryItem(ref.node, ref.slot));
      if (entry.sub_mbrs.empty()) {
        overlap = Intersection(entry.mbr, poi_box).Area();
      } else {
        // Sum over sub-MBRs bounds the union's overlap from above.
        for (const Box& sub : entry.sub_mbrs) {
          overlap += Intersection(sub, poi_box).Area();
        }
      }
    } else {
      overlap =
          Intersection(obj_tree.EntryBox(ref.node, ref.slot), poi_box)
              .Area();
    }
    const double factor = std::min(1.0, overlap / min_poi_area);
    return count * factor;
  };

  // Density mode divides a subtree's flow bound by its minimum POI area:
  // flow <= bound and area >= min_area give flow/area <= bound/min_area.
  // min_poi_area is +inf for all-degenerate subtrees — bound/inf == 0, the
  // defined density of a degenerate POI — and positive otherwise (see
  // min_area_of). A zero can only come from a POI tree built without the
  // load-time area demotion; it falls back to the never-prunes bound
  // instead of silently pruning every POI sharing the subtree. The clamp
  // keeps a tiny-but-positive divisor from emitting inf upward.
  const auto densify = [&](double bound, double min_poi_area) {
    if (!spec.density) return bound;
    if (!(min_poi_area > 0.0)) {
      return bound > 0.0 ? std::numeric_limits<double>::max() : 0.0;
    }
    const double density = bound / min_poi_area;
    return std::isfinite(density) ? density
                                  : std::numeric_limits<double>::max();
  };

  EntryHeap queue;

  // Joins `box` against the children of every entry in `list` (descending
  // the object tree one level) — the paper's expandList (Algorithm 3).
  const auto expand_list = [&](const Box& box, double min_poi_area,
                               const std::vector<RIRef>& list,
                               std::vector<RIRef>* out, double* ub) {
    out->clear();
    *ub = 0.0;
    for (const RIRef& ref : list) {
      const RTree::NodeId child = obj_tree.EntryChild(ref.node, ref.slot);
      const int n = obj_tree.NumEntries(child);
      for (int s = 0; s < n; ++s) {
        const RIRef sub{child, s};
        if (admits(sub, box)) {
          out->push_back(sub);
          *ub += flow_bound(sub, box, min_poi_area);
        }
      }
    }
    *ub = densify(*ub, min_poi_area);
  };

  // Minimum POI area below a POI-tree entry (exact for leaf entries).
  // Degenerate POIs carry area 0 (EffectivePoiArea demotion); their density
  // divisor convention is +inf so the min aggregate ignores them, matching
  // the tree's values (Engine::BuildPoiTree).
  const auto min_area_of = [&](RTree::NodeId node, int slot) {
    if (poi_tree.IsLeaf(node)) {
      const double area = (*spec.poi_areas)[static_cast<size_t>(
          poi_tree.EntryItem(node, slot))];
      return area > 0.0 ? area : std::numeric_limits<double>::infinity();
    }
    return poi_tree.EntryMinValue(node, slot);
  };

  // Whether the join list sits at the leaf level of R_I. Lists are always
  // level-homogeneous by construction.
  const auto list_is_leaf = [&](const std::vector<RIRef>& list) {
    return obj_tree.IsLeaf(list.front().node);
  };

  // Phase 2 (Algorithm 2 lines 12-18): join the two roots.
  {
    const RTree::NodeId p_root = poi_tree.root();
    const RTree::NodeId o_root = obj_tree.root();
    for (int ps = 0; ps < poi_tree.NumEntries(p_root); ++ps) {
      const Box& p_box = poi_tree.EntryBox(p_root, ps);
      const double min_area = min_area_of(p_root, ps);
      QueueEntry entry;
      entry.p_node = p_root;
      entry.p_slot = ps;
      for (int os = 0; os < obj_tree.NumEntries(o_root); ++os) {
        const RIRef ref{o_root, os};
        if (admits(ref, p_box)) {
          entry.list.push_back(ref);
          entry.priority += flow_bound(ref, p_box, min_area);
        }
      }
      entry.priority = densify(entry.priority, min_area);
      if (!entry.list.empty()) {
        if (profile != nullptr && poi_tree.IsLeaf(p_root)) {
          profile->ObserveBound(poi_tree.EntryItem(p_root, ps),
                                entry.priority);
        }
        queue.Push(std::move(entry));
      }
    }
  }

  // Scratch for the leaf hook, reused across leaf evaluations.
  std::vector<int32_t> leaf_slots;
  std::vector<double> leaf_presences;

  // Phase 3 (lines 19-48): best-first processing.
  while (!queue.empty()) {
    // Cooperative abandonment: one sticky deadline/cancel poll per round
    // (src/common/deadline.h); the caller discards the partial result.
    if (spec.control != nullptr && spec.control->ShouldAbort()) return;
    QueueEntry entry = queue.Pop();
    // Heap order guarantees every remaining entry — bound or exact — is at
    // most entry.priority, so nothing left can reach min_priority.
    if (entry.priority < min_priority) {
      if (profile != nullptr) {
        profile->AddJoinEvent("cutoff", entry.priority, entry.exact_poi,
                              static_cast<int32_t>(entry.list.size()));
      }
      return;
    }

    if (entry.exact) {
      if (profile != nullptr) {
        profile->AddJoinEvent("pop_exact", entry.priority, entry.exact_poi,
                              0);
      }
      // Its exact flow beats every remaining upper bound.
      if (!emit(PoiFlow{entry.exact_poi, entry.priority})) return;
      continue;
    }

    const bool p_is_leaf = poi_tree.IsLeaf(entry.p_node);
    const Box& p_box = poi_tree.EntryBox(entry.p_node, entry.p_slot);
    if (profile != nullptr) {
      profile->AddJoinEvent(
          p_is_leaf ? "pop_poi" : "pop_group", entry.priority,
          p_is_leaf ? poi_tree.EntryItem(entry.p_node, entry.p_slot) : -1,
          static_cast<int32_t>(entry.list.size()));
    }

    if (p_is_leaf) {
      const PoiId poi_id = poi_tree.EntryItem(entry.p_node, entry.p_slot);
      if (list_is_leaf(entry.list)) {
        // Compute the exact flow from the objects in the join list,
        // summed in list order.
        if (spec.stats != nullptr) ++spec.stats->pois_evaluated;
        leaf_slots.clear();
        for (const RIRef& ref : entry.list) {
          leaf_slots.push_back(obj_tree.EntryItem(ref.node, ref.slot));
        }
        spec.leaf_presences(leaf_slots, poi_id, &leaf_presences);
        double flow = 0.0;
        for (const double presence : leaf_presences) flow += presence;
        if (profile != nullptr) {
          // Raw flow, before the density divide: comparable across modes.
          profile->MarkEvaluated(poi_id, flow,
                                 static_cast<int64_t>(entry.list.size()));
        }
        // The exact entry's priority is the ranking value itself, not a
        // bound: a degenerate POI (area 0) has defined density 0, so it
        // joins the zero-flow padding in POI-id order exactly like the
        // iterative path ranks it, instead of going through densify's
        // bound-side fallback.
        const double poi_area =
            (*spec.poi_areas)[static_cast<size_t>(poi_id)];
        const double ranked =
            spec.density ? (poi_area > 0.0 ? flow / poi_area : 0.0) : flow;
        if (ranked > 0.0) {
          QueueEntry exact;
          exact.exact = true;
          exact.exact_poi = poi_id;
          exact.priority = ranked;
          queue.Push(std::move(exact));
        }
      } else {
        QueueEntry next;
        next.p_node = entry.p_node;
        next.p_slot = entry.p_slot;
        expand_list(p_box, min_area_of(entry.p_node, entry.p_slot),
                    entry.list, &next.list, &next.priority);
        if (!next.list.empty()) {
          if (profile != nullptr) {
            profile->ObserveBound(poi_id, next.priority);
          }
          queue.Push(std::move(next));
        }
      }
      continue;
    }

    // e_P is an internal entry: descend into its child node.
    const RTree::NodeId child = poi_tree.EntryChild(entry.p_node,
                                                    entry.p_slot);
    const int n = poi_tree.NumEntries(child);
    const bool child_is_leaf = poi_tree.IsLeaf(child);
    if (list_is_leaf(entry.list)) {
      // Join each sub-entry against the (leaf-level) list directly.
      for (int s = 0; s < n; ++s) {
        const Box& sub_box = poi_tree.EntryBox(child, s);
        const double min_area = min_area_of(child, s);
        QueueEntry next;
        next.p_node = child;
        next.p_slot = s;
        for (const RIRef& ref : entry.list) {
          if (admits(ref, sub_box)) {
            next.list.push_back(ref);
            next.priority += flow_bound(ref, sub_box, min_area);
          }
        }
        next.priority = densify(next.priority, min_area);
        if (!next.list.empty()) {
          if (profile != nullptr && child_is_leaf) {
            profile->ObserveBound(poi_tree.EntryItem(child, s),
                                  next.priority);
          }
          queue.Push(std::move(next));
        }
      }
    } else {
      for (int s = 0; s < n; ++s) {
        QueueEntry next;
        next.p_node = child;
        next.p_slot = s;
        expand_list(poi_tree.EntryBox(child, s), min_area_of(child, s),
                    entry.list, &next.list, &next.priority);
        if (!next.list.empty()) {
          if (profile != nullptr && child_is_leaf) {
            profile->ObserveBound(poi_tree.EntryItem(child, s),
                                  next.priority);
          }
          queue.Push(std::move(next));
        }
      }
    }
  }
}

}  // namespace

std::vector<PoiFlow> PriorityJoinTopK(const PriorityJoinSpec& spec, int k,
                                      const std::vector<PoiId>& subset_ids) {
  std::vector<PoiFlow> result;
  if (k <= 0) return result;

  // Priorities are never negative, so 0.0 disables the bound cutoff and the
  // traversal runs until emit stops it (or the queue drains).
  RunBestFirstJoin(spec, 0.0, [&](const PoiFlow& flow) {
    result.push_back(flow);
    return static_cast<int>(result.size()) < k;
  });

  // Pad with zero-flow POIs (in id order) when fewer than k POIs have
  // positive flow, so both algorithms return identically-shaped results.
  if (static_cast<int>(result.size()) < k) {
    std::unordered_set<PoiId> present;
    for (const PoiFlow& f : result) present.insert(f.poi);
    std::vector<PoiId> rest;
    for (PoiId id : subset_ids) {
      if (!present.contains(id)) rest.push_back(id);
    }
    std::sort(rest.begin(), rest.end());
    for (PoiId id : rest) {
      if (static_cast<int>(result.size()) >= k) break;
      result.push_back(PoiFlow{id, 0.0});
    }
  }
  return result;
}

std::vector<PoiFlow> PriorityJoinThreshold(const PriorityJoinSpec& spec,
                                           double tau) {
  std::vector<PoiFlow> result;
  RunBestFirstJoin(spec, tau, [&](const PoiFlow& flow) {
    result.push_back(flow);
    return true;
  });
  return result;
}

}  // namespace indoorflow
