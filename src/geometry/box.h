// Axis-aligned bounding boxes (MBRs).

#ifndef INDOORFLOW_GEOMETRY_BOX_H_
#define INDOORFLOW_GEOMETRY_BOX_H_

#include <algorithm>
#include <array>
#include <limits>

#include "src/geometry/point.h"

namespace indoorflow {

/// An axis-aligned rectangle [min_x, max_x] x [min_y, max_y]. The default
/// constructed Box is *empty* (inverted bounds) so that ExpandToInclude can
/// be used to accumulate bounds.
struct Box {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  static Box Of(Point a, Point b) {
    return Box{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
               std::max(a.y, b.y)};
  }

  bool Empty() const { return min_x > max_x || min_y > max_y; }

  double Width() const { return Empty() ? 0.0 : max_x - min_x; }
  double Height() const { return Empty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }
  double Perimeter() const { return 2.0 * (Width() + Height()); }
  Point Center() const {
    return {(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  }

  bool Contains(Point p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  bool Contains(const Box& o) const {
    return !o.Empty() && o.min_x >= min_x && o.max_x <= max_x &&
           o.min_y >= min_y && o.max_y <= max_y;
  }

  bool Intersects(const Box& o) const {
    return !Empty() && !o.Empty() && min_x <= o.max_x && o.min_x <= max_x &&
           min_y <= o.max_y && o.min_y <= max_y;
  }

  void ExpandToInclude(Point p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }

  void ExpandToInclude(const Box& o) {
    if (o.Empty()) return;
    min_x = std::min(min_x, o.min_x);
    min_y = std::min(min_y, o.min_y);
    max_x = std::max(max_x, o.max_x);
    max_y = std::max(max_y, o.max_y);
  }

  /// Box grown by `margin` on every side.
  Box Expanded(double margin) const {
    if (Empty()) return *this;
    return Box{min_x - margin, min_y - margin, max_x + margin,
               max_y + margin};
  }

  friend bool operator==(const Box& a, const Box& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

/// Smallest box covering both inputs.
inline Box Union(const Box& a, const Box& b) {
  Box out = a;
  out.ExpandToInclude(b);
  return out;
}

/// Intersection of two boxes (empty Box if disjoint).
inline Box Intersection(const Box& a, const Box& b) {
  if (!a.Intersects(b)) return Box{};
  return Box{std::max(a.min_x, b.min_x), std::max(a.min_y, b.min_y),
             std::min(a.max_x, b.max_x), std::min(a.max_y, b.max_y)};
}

/// The four midpoint quadrants of `cell`, in the area integrator's order.
/// Each lies inside `cell`: the rounded midpoint stays between the ends.
inline std::array<Box, 4> Quadrants(const Box& cell) {
  const Point c = cell.Center();
  return {Box{cell.min_x, cell.min_y, c.x, c.y},
          Box{c.x, cell.min_y, cell.max_x, c.y},
          Box{cell.min_x, c.y, c.x, cell.max_y},
          Box{c.x, c.y, cell.max_x, cell.max_y}};
}

/// Minimum distance from `p` to any point of `b` (0 if inside).
inline double MinDistance(const Box& b, Point p) {
  const double dx = std::max({b.min_x - p.x, 0.0, p.x - b.max_x});
  const double dy = std::max({b.min_y - p.y, 0.0, p.y - b.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

/// Maximum distance from `p` to any point of `b`.
inline double MaxDistance(const Box& b, Point p) {
  const double dx = std::max(std::abs(p.x - b.min_x), std::abs(p.x - b.max_x));
  const double dy = std::max(std::abs(p.y - b.min_y), std::abs(p.y - b.max_y));
  return std::sqrt(dx * dx + dy * dy);
}

// Squared variants for comparisons against squared radii. Classification
// code must use these rather than MinDistance/MaxDistance so it compares in
// the same arithmetic as Circle::Contains / Ring::Contains: taking the
// square root first changes where underflow happens, and a conservative
// Classify that disagrees with Contains at extreme magnitudes violates its
// "kInside/kOutside only when certain" contract. They also skip the sqrt.

/// Squared minimum distance from `p` to any point of `b` (0 if inside).
inline double MinDistanceSquared(const Box& b, Point p) {
  const double dx = std::max({b.min_x - p.x, 0.0, p.x - b.max_x});
  const double dy = std::max({b.min_y - p.y, 0.0, p.y - b.max_y});
  return dx * dx + dy * dy;
}

/// Squared maximum distance from `p` to any point of `b`.
inline double MaxDistanceSquared(const Box& b, Point p) {
  const double dx = std::max(std::abs(p.x - b.min_x), std::abs(p.x - b.max_x));
  const double dy = std::max(std::abs(p.y - b.min_y), std::abs(p.y - b.max_y));
  return dx * dx + dy * dy;
}

}  // namespace indoorflow

#endif  // INDOORFLOW_GEOMETRY_BOX_H_
