// Adaptive quadtree area integration for CSG regions.
//
// Computes area(A ∩ B) for two Regions with a certified error bound: cells
// classified fully-inside contribute exactly, fully-outside cells contribute
// nothing, and the area of still-ambiguous boundary cells bounds the error.
// Boundary cells are subdivided breadth-first until the error bound drops
// below the requested tolerance (or a depth cap is hit). Every remaining
// boundary cell contributes half its area, so the reported error bound is
// half the total boundary-cell area.

#ifndef INDOORFLOW_GEOMETRY_AREA_INTEGRATOR_H_
#define INDOORFLOW_GEOMETRY_AREA_INTEGRATOR_H_

#include <cstdint>

#include "src/geometry/region.h"

namespace indoorflow {

struct AreaOptions {
  /// Stop refining once the error bound is below this many square meters.
  double abs_tolerance = 0.05;
  /// Hard cap on subdivision depth (cells shrink 2x per level).
  int max_depth = 14;
  /// Safety cap on the number of classified cells.
  int max_cells = 200000;
};

/// Machine-independent integrator work, summed over integrations.
struct AreaWork {
  /// Quadtree cells classified, the root box included; 0 when an exact
  /// fast path or an empty bounds intersection settles the pair.
  int64_t cells_classified = 0;
  /// Leaf-primitive classifications (circle, ring, Θ, box, polygon,
  /// custom node) those cells took.
  int64_t leaf_tests = 0;
  /// Integrations stopped by AreaOptions::max_cells before reaching the
  /// tolerance.
  int64_t cell_caps = 0;

  AreaWork& operator+=(const AreaWork& o) {
    cells_classified += o.cells_classified;
    leaf_tests += o.leaf_tests;
    cell_caps += o.cell_caps;
    return *this;
  }
};

struct AreaEstimate {
  double area = 0.0;
  /// |area - true area| <= error_bound.
  double error_bound = 0.0;
  AreaWork work;

  double LowerBound() const { return area - error_bound; }
  double UpperBound() const { return area + error_bound; }
};

/// Estimates area(a ∩ b).
AreaEstimate AreaOfIntersection(const Region& a, const Region& b,
                                const AreaOptions& options = {});

/// Estimates area(r).
AreaEstimate Area(const Region& r, const AreaOptions& options = {});

}  // namespace indoorflow

#endif  // INDOORFLOW_GEOMETRY_AREA_INTEGRATOR_H_
