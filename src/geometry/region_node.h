// Internal parts of Region: the custom-node extension point and the flat
// region program the area integrator evaluates and prunes per cell.
//
// Most users never touch this. `Node` lets higher layers contribute custom
// primitives to the CSG machinery (e.g. the indoor reachability predicate
// used by the topology check) without the geometry layer depending on
// them. `Program`, `Step` and the listing functions are the integrator's
// view of a region (see region.h for the representation).

#ifndef INDOORFLOW_GEOMETRY_REGION_NODE_H_
#define INDOORFLOW_GEOMETRY_REGION_NODE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/geometry/box.h"
#include "src/geometry/circle.h"
#include "src/geometry/extended_ellipse.h"
#include "src/geometry/point.h"
#include "src/geometry/polygon.h"

namespace indoorflow {

/// Conservative classification of a box against a region.
enum class BoxClass {
  kInside,    // every point of the box is in the region
  kOutside,   // no point of the box is in the region
  kBoundary,  // undetermined / mixed
};

namespace region_internal {

/// A custom primitive: an immutable point set with exact containment and
/// conservative box classification. Implementations must be thread-safe for
/// concurrent reads. A node becomes one opaque op of the region program; it
/// is classified through this interface on every integrator cell and never
/// pruned, so Classify need not be monotone under subdivision.
class Node {
 public:
  virtual ~Node() = default;
  virtual bool Contains(Point p) const = 0;
  /// Conservative bounding box (superset of the point set).
  virtual Box Bounds() const = 0;
  /// Conservative: kInside/kOutside only when certain.
  virtual BoxClass Classify(const Box& box) const = 0;

  /// Approximate heap footprint in bytes, for cache byte accounting
  /// (src/core/ur_cache.h). The default covers small fixed-size nodes.
  virtual size_t ApproxBytes() const { return 64; }

  /// Structural well-formedness, asserted by the fuzz harnesses and
  /// property tests (debug tooling, not a hot-path check). The default
  /// accepts any node whose bounds are NaN-free; infinite bounds are legal
  /// (unbounded custom predicates), empty bounds are legal (empty region).
  virtual Status CheckInvariants() const {
    const Box b = Bounds();
    if (std::isnan(b.min_x) || std::isnan(b.min_y) || std::isnan(b.max_x) ||
        std::isnan(b.max_y)) {
      return Status::Internal("region node with NaN bounds");
    }
    return Status::OK();
  }
};

enum class OpKind : uint8_t {
  // Leaves.
  kEmpty,
  kCircle,
  kRing,
  kTheta,
  kBox,  // the box is the op's bounds
  kPolygon,
  kNode,  // a custom Node
  // Composites; their children follow them in preorder.
  kAny,  // union; each child is culled by its own bounds first
  kAll,  // intersection
  kNot,  // complement of its one child (Subtract(a, b) = All(a, Not b))
};

struct Op {
  OpKind kind = OpKind::kEmpty;
  /// A definite class of this subtree on a box is the class of each of the
  /// box's midpoint quadrants: every leaf below is a built-in classifier
  /// comparing monotone functions of the box coordinates (everything but
  /// polygons and custom nodes). A cell may drop such a subtree once its
  /// class no longer matters to the parent.
  bool prunable = true;
  /// Index into the program's table for `kind` (circles, rings, thetas,
  /// polygons, nodes); unused by the other kinds.
  uint32_t shape = 0;
  /// Bounds of the subtree: Any culls children by it.
  Box bounds;
};

/// One entry of a preorder listing: an op and the number of listing
/// entries its subtree spans (itself included).
struct Step {
  uint32_t op = 0;
  uint32_t size = 1;
};

/// A region's immutable op array, the shapes its leaves refer to, and the
/// listing of the whole region (steps[i].op == i). Pruned listings refer to
/// the same ops.
struct Program {
  std::vector<Op> ops;
  std::vector<Step> steps;
  std::vector<Circle> circles;
  std::vector<Ring> rings;
  std::vector<ExtendedEllipse> thetas;
  std::vector<std::shared_ptr<const Polygon>> polygons;
  std::vector<std::shared_ptr<const Node>> nodes;
};

/// Classifies `box` against `listing` (a listing of `program`'s ops). With
/// `record` set, writes the class of every entry it evaluates to
/// record[entry] (entries it skips keep stale values). Adds one to
/// `*leaf_tests` per leaf op classified.
BoxClass ClassifyListing(const Program& program, const Step* listing,
                         const Box& box, BoxClass* record,
                         int64_t* leaf_tests);

/// Appends to `out` the part of `listing` still undecided on `box`, given
/// the `record` ClassifyListing wrote for that box, where the listing was
/// not kOutside. Any drops children culled by their bounds or prunable and
/// kOutside; All drops prunable kInside children; a prunable kInside
/// listing leaves nothing, which stands for kInside. Classifying any
/// sub-box of `box` against the result gives the class the whole listing
/// gives it.
void PruneListing(const Program& program, const Step* listing,
                  const BoxClass* record, const Box& box,
                  std::vector<Step>* out);

}  // namespace region_internal
}  // namespace indoorflow

#endif  // INDOORFLOW_GEOMETRY_REGION_NODE_H_
