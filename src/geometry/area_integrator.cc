#include "src/geometry/area_integrator.h"

#include <vector>

#include "src/geometry/circle_area.h"

namespace indoorflow {

namespace {

// Classifies `box` against the (implicit) intersection of a and b.
BoxClass ClassifyIntersection(const Region& a, const Region& b,
                              const Box& box) {
  const BoxClass ca = a.Classify(box);
  if (ca == BoxClass::kOutside) return BoxClass::kOutside;
  const BoxClass cb = b.Classify(box);
  if (cb == BoxClass::kOutside) return BoxClass::kOutside;
  if (ca == BoxClass::kInside && cb == BoxClass::kInside) {
    return BoxClass::kInside;
  }
  return BoxClass::kBoundary;
}

}  // namespace

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

}  // namespace

AreaEstimate AreaOfIntersection(const Region& a, const Region& b,
                                const AreaOptions& options) {
  AreaEstimate result;
  const Box root = Intersection(a.Bounds(), b.Bounds());
  if (root.Empty() || root.Area() <= 0.0) return result;
  if (TryExactArea(a, b, &result)) return result;

  // Two scratch buffers per call, swapped level by level: the boundary
  // cells being split and the next level's. Per call, not shared, since
  // several executor lanes integrate at once.
  std::vector<Box> boundary;
  std::vector<Box> next;
  switch (ClassifyIntersection(a, b, root)) {
    case BoxClass::kInside:
      result.area = root.Area();
      return result;
    case BoxClass::kOutside:
      return result;
    case BoxClass::kBoundary:
      boundary.push_back(root);
      break;
  }

  int cells = 1;
  double boundary_area = root.Area();
  for (int depth = 0; depth < options.max_depth && !boundary.empty();
       ++depth) {
    if (boundary_area * 0.5 <= options.abs_tolerance) break;
    if (cells >= options.max_cells) break;
    next.clear();
    next.reserve(boundary.size() * 2);
    boundary_area = 0.0;
    for (const Box& cell : boundary) {
      const Point c = cell.Center();
      const Box quads[4] = {
          Box{cell.min_x, cell.min_y, c.x, c.y},
          Box{c.x, cell.min_y, cell.max_x, c.y},
          Box{cell.min_x, c.y, c.x, cell.max_y},
          Box{c.x, c.y, cell.max_x, cell.max_y},
      };
      for (const Box& q : quads) {
        ++cells;
        switch (ClassifyIntersection(a, b, q)) {
          case BoxClass::kInside:
            result.area += q.Area();
            break;
          case BoxClass::kOutside:
            break;
          case BoxClass::kBoundary:
            next.push_back(q);
            boundary_area += q.Area();
            break;
        }
      }
    }
    boundary.swap(next);
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
