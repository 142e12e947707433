// CSG regions: the representation of object uncertainty regions.
//
// An uncertainty region (paper Section 3) is built from circles, rings, and
// extended ellipses combined by intersection, union, and difference — e.g.
// "Ring(dev_pre, ...) ∩ dev_cov.range" for a snapshot in the active state, or
// a union of Θ-regions for an interval. Clipping such curved CSG shapes
// against POI polygons analytically is brittle; instead, Region exposes
//   * exact point containment,
//   * a conservative bounding box, and
//   * conservative box classification (inside / outside / boundary),
// which is exactly what the adaptive area integrator (area_integrator.h)
// needs to compute area(UR ∩ p) to a configurable error bound.
//
// Representation: one immutable, shared, flat program (region_node.h). The
// ops sit in a contiguous array in preorder: leaves (empty, circle, ring,
// Θ, box, polygon, custom node) and the composites Any (union), All
// (intersection) and Not; Subtract(a, b) is All(a, Not b). Make,
// Intersect, Union and Subtract build it bottom-up, merging nested Alls
// and nested Anys; every query walks the array without virtual calls,
// except for custom nodes.
//
// Pruning: the integrator classifies a quadtree cell and, when the cell is
// a boundary cell, keeps for its four quadrants only the part of the
// program still undecided on it (Any drops children outside, All drops
// children inside). That is exact because the built-in leaf classifiers
// (everything but polygons) are monotone under midpoint subdivision: they
// compare min/max distances built from the box coordinates with monotone
// floating-point operations, and a quadrant's coordinates lie inside its
// parent's, so a definite class on a cell is the class of each quadrant.
// Polygons and FromNode nodes carry no such guarantee; they stay in the
// program on every cell and are classified afresh, so a custom node only
// has to be conservative, not monotone.

#ifndef INDOORFLOW_GEOMETRY_REGION_H_
#define INDOORFLOW_GEOMETRY_REGION_H_

#include <memory>
#include <vector>

#include "src/geometry/box.h"
#include "src/geometry/circle.h"
#include "src/geometry/extended_ellipse.h"
#include "src/geometry/point.h"
#include "src/geometry/polygon.h"
#include "src/geometry/region_node.h"

namespace indoorflow {

/// An immutable 2-D point set built from geometric primitives and boolean
/// operations. Cheap to copy (one shared immutable program).
class Region {
 public:
  /// The empty region.
  Region();

  static Region Make(const Circle& c);
  static Region Make(const Ring& r);
  static Region Make(const ExtendedEllipse& e);
  static Region Make(const Polygon& p);
  static Region Make(const Box& b);

  /// Wraps a custom CSG node (see region_node.h). For library-internal
  /// extensions such as the indoor reachability predicate.
  static Region FromNode(std::shared_ptr<const region_internal::Node> node);

  static Region Intersect(Region a, Region b);
  static Region Union(Region a, Region b);
  static Region Union(std::vector<Region> parts);
  static Region Subtract(Region a, Region b);

  /// Structurally empty (no primitive, or known-empty bounds). A false
  /// return does not guarantee positive area.
  bool IsEmpty() const;

  bool Contains(Point p) const;
  Box Bounds() const;
  BoxClass Classify(const Box& box) const;

  /// Approximate heap footprint of the program in bytes. Used by the
  /// uncertainty-region cache for its byte budget; not an exact allocator
  /// measurement.
  size_t ApproxBytes() const;

  /// Shape introspection (non-null only for exactly-primitive regions);
  /// enables the integrator's exact-area fast paths.
  const Circle* AsCircle() const;
  const Ring* AsRing() const;
  const Box* AsBox() const;

  /// Structural validation of the program: finite primitive parameters,
  /// NaN-free bounds, consistent listing and composite bookkeeping. Debug
  /// tooling for the fuzz harnesses and property tests — not meant for hot
  /// paths.
  Status CheckInvariants() const;

  /// The flat program, for the area integrator's per-cell pruning.
  const region_internal::Program& program() const { return *program_; }

 private:
  explicit Region(std::shared_ptr<const region_internal::Program> program);

  std::shared_ptr<const region_internal::Program> program_;
};

}  // namespace indoorflow

#endif  // INDOORFLOW_GEOMETRY_REGION_H_
