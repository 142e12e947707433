#include "src/geometry/area_integrator.h"

#include <cstdint>
#include <vector>

#include "src/geometry/circle_area.h"

namespace indoorflow {

namespace {

// Exact fast paths for primitive pairs with closed-form intersection areas
// (circle/ring against an axis-aligned rectangle, rectangle pairs). Returns
// false when no fast path applies.
bool TryExactArea(const Region& a, const Region& b, AreaEstimate* out) {
  const auto pair_area = [](const Region& shape,
                            const Region& rect_side,
                            AreaEstimate* result) {
    const Box* rect = rect_side.AsBox();
    if (rect == nullptr) return false;
    if (const Circle* circle = shape.AsCircle()) {
      result->area = CircleBoxIntersectionArea(*circle, *rect);
      result->error_bound = 0.0;
      return true;
    }
    if (const Ring* ring = shape.AsRing()) {
      result->area = RingPolygonIntersectionArea(
          *ring, Polygon::FromBox(*rect));
      result->error_bound = 0.0;
      return true;
    }
    if (const Box* box = shape.AsBox()) {
      result->area = Intersection(*box, *rect).Area();
      result->error_bound = 0.0;
      return true;
    }
    return false;
  };
  return pair_area(a, b, out) || pair_area(b, a, out);
}

using region_internal::Program;
using region_internal::Step;

// A listing of one operand's program: the whole program, or what a
// quadtree cell kept of it. Empty means the operand covers the cell.
struct Listing {
  const Step* steps;
  uint32_t size;
};

// A boundary cell awaiting subdivision, with its two operand listings at
// [a, a + a_size) and [b, b + b_size) of its level's arena.
struct Cell {
  Box box;
  uint32_t a = 0;
  uint32_t a_size = 0;
  uint32_t b = 0;
  uint32_t b_size = 0;
};

// Per-thread scratch: this level's boundary cells and the arena their
// listings live in, the next level's, and one classification record per
// operand.
struct Scratch {
  std::vector<Cell> cells;
  std::vector<Cell> next_cells;
  std::vector<Step> arena;
  std::vector<Step> next_arena;
  std::vector<BoxClass> record_a;
  std::vector<BoxClass> record_b;
};

struct PairClassifier {
  const Program& pa;
  const Program& pb;
  Scratch* s;
  AreaWork* work;

  // Classifies `box` against the (implicit) intersection of the two
  // listings, recording each operand's per-step classes.
  BoxClass Classify(const Listing& la, const Listing& lb,
                    const Box& box) const {
    const BoxClass ca = Side(pa, la, box, s->record_a.data());
    if (ca == BoxClass::kOutside) return BoxClass::kOutside;
    const BoxClass cb = Side(pb, lb, box, s->record_b.data());
    if (cb == BoxClass::kOutside) return BoxClass::kOutside;
    if (ca == BoxClass::kInside && cb == BoxClass::kInside) {
      return BoxClass::kInside;
    }
    return BoxClass::kBoundary;
  }

  // The boundary cell `box` just classified, with the listings its
  // quadrants will classify against, appended to `arena`.
  Cell Keep(const Listing& la, const Listing& lb, const Box& box,
            std::vector<Step>* arena) const {
    Cell cell;
    cell.box = box;
    Narrow(pa, la, box, s->record_a.data(), arena, &cell.a, &cell.a_size);
    Narrow(pb, lb, box, s->record_b.data(), arena, &cell.b, &cell.b_size);
    return cell;
  }

 private:
  BoxClass Side(const Program& p, const Listing& l, const Box& box,
                BoxClass* record) const {
    if (l.size == 0) return BoxClass::kInside;
    return region_internal::ClassifyListing(p, l.steps, box, record,
                                            &work->leaf_tests);
  }

  // Appends what `l` keeps on the boundary cell `box` (classified last)
  // to `arena`. Every boundary cell prunes: copying 8-byte steps costs
  // less than the leaf tests it saves, even on a snapshot's few-step
  // programs.
  static void Narrow(const Program& p, const Listing& l, const Box& box,
                     const BoxClass* record, std::vector<Step>* arena,
                     uint32_t* at, uint32_t* size) {
    *at = static_cast<uint32_t>(arena->size());
    if (l.size != 0) {
      region_internal::PruneListing(p, l.steps, record, box, arena);
    }
    *size = static_cast<uint32_t>(arena->size()) - *at;
  }
};

}  // namespace

AreaEstimate AreaOfIntersection(const Region& a, const Region& b,
                                const AreaOptions& options) {
  AreaEstimate result;
  const Box root = Intersection(a.Bounds(), b.Bounds());
  if (root.Empty() || root.Area() <= 0.0) return result;
  if (TryExactArea(a, b, &result)) return result;

  // Per-thread scratch, reused across calls: executor lanes integrate at
  // once, so nothing here may be shared.
  thread_local Scratch s;
  const Program& pa = a.program();
  const Program& pb = b.program();
  s.record_a.resize(pa.steps.size());
  s.record_b.resize(pb.steps.size());
  s.cells.clear();
  s.arena.clear();

  const PairClassifier pair{pa, pb, &s, &result.work};
  result.work.cells_classified = 1;
  const Listing whole_a{pa.steps.data(),
                        static_cast<uint32_t>(pa.steps.size())};
  const Listing whole_b{pb.steps.data(),
                        static_cast<uint32_t>(pb.steps.size())};
  switch (pair.Classify(whole_a, whole_b, root)) {
    case BoxClass::kInside:
      result.area = root.Area();
      return result;
    case BoxClass::kOutside:
      return result;
    case BoxClass::kBoundary:
      s.cells.push_back(pair.Keep(whole_a, whole_b, root, &s.arena));
      break;
  }

  int64_t& cells = result.work.cells_classified;
  double boundary_area = root.Area();
  for (int depth = 0; depth < options.max_depth && !s.cells.empty();
       ++depth) {
    if (boundary_area * 0.5 <= options.abs_tolerance) break;
    if (cells >= options.max_cells) {
      result.work.cell_caps = 1;
      break;
    }
    s.next_cells.clear();
    s.next_cells.reserve(s.cells.size() * 2);
    s.next_arena.clear();
    boundary_area = 0.0;
    for (const Cell& cell : s.cells) {
      const Listing la{s.arena.data() + cell.a, cell.a_size};
      const Listing lb{s.arena.data() + cell.b, cell.b_size};
      for (const Box& q : Quadrants(cell.box)) {
        ++cells;
        switch (pair.Classify(la, lb, q)) {
          case BoxClass::kInside:
            result.area += q.Area();
            break;
          case BoxClass::kOutside:
            break;
          case BoxClass::kBoundary:
            s.next_cells.push_back(pair.Keep(la, lb, q, &s.next_arena));
            boundary_area += q.Area();
            break;
        }
      }
    }
    s.cells.swap(s.next_cells);
    s.arena.swap(s.next_arena);
  }

  // Remaining boundary cells: midpoint-free half-area rule, which makes the
  // half boundary area an exact error bound.
  result.area += boundary_area * 0.5;
  result.error_bound = boundary_area * 0.5;
  return result;
}

AreaEstimate Area(const Region& r, const AreaOptions& options) {
  // Integrate against an "everything" proxy: the region's own bounds.
  return AreaOfIntersection(r, Region::Make(r.Bounds()), options);
}

}  // namespace indoorflow
