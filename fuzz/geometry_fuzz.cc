// Fuzz harness for the geometry kernels that consume uncertainty-region
// inputs: polygon clipping (Sutherland–Hodgman), the extended-ellipse Θ
// primitive, and Region CSG booleans. Inputs are decoded into finite (but
// adversarial) coordinates; the harness asserts the kernels' contracts —
// finite outputs, CheckInvariants() on built regions, and agreement
// between exact Contains() and conservative Classify(), and monotonicity
// of the built-in classifiers under midpoint subdivision — rather than any
// particular geometric result.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fuzz/fuzz_input.h"
#include "src/geometry/clip.h"
#include "src/geometry/extended_ellipse.h"
#include "src/geometry/region.h"

namespace {

using indoorflow::Box;
using indoorflow::BoxClass;
using indoorflow::Circle;
using indoorflow::ClippedArea;
using indoorflow::ClipToConvex;
using indoorflow::ExtendedEllipse;
using indoorflow::Point;
using indoorflow::Polygon;
using indoorflow::Quadrants;
using indoorflow::Region;
using indoorflow::Ring;
using indoorflow_fuzz::FuzzInput;

void Require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "geometry_fuzz invariant violated: %s\n", what);
  std::abort();
}

/// Conservative Classify must agree with exact Contains on a degenerate
/// (point-sized) probe box: kInside implies containment, kOutside implies
/// non-containment, kBoundary may be anything.
void CheckClassifyAgreesWithContains(const Region& region, Point p) {
  const Box probe{p.x, p.y, p.x, p.y};
  switch (region.Classify(probe)) {
    case BoxClass::kInside:
      Require(region.Contains(p), "Classify=kInside but Contains=false");
      break;
    case BoxClass::kOutside:
      Require(!region.Contains(p), "Classify=kOutside but Contains=true");
      break;
    case BoxClass::kBoundary:
      break;
  }
}

void FuzzClip(FuzzInput& input) {
  const size_t n = 3 + input.TakeByte() % 8;
  std::vector<Point> vertices;
  vertices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    vertices.push_back({input.TakeFiniteDouble(), input.TakeFiniteDouble()});
  }
  const Polygon subject(std::move(vertices));
  const double x = input.TakeFiniteDouble();
  const double y = input.TakeFiniteDouble();
  // The minimum window size must scale with the corner magnitude, or the
  // addition is absorbed (x + 1e-6 == x at 1e12) and the window degenerates
  // to a zero-area rectangle.
  const double pad = 1e-6 + 1e-9 * std::max(std::abs(x), std::abs(y));
  const double w = std::abs(input.TakeFiniteDouble()) + pad;
  const double h = std::abs(input.TakeFiniteDouble()) + pad;
  const Polygon window = Polygon::Rectangle(x, y, x + w, y + h);

  const double area = ClippedArea(subject, window);
  Require(std::isfinite(area), "clipped area not finite");
  Require(area >= -1e-9, "clipped area negative");
  if (auto clipped = ClipToConvex(subject, window)) {
    Require(std::isfinite(clipped->SignedArea()),
            "clipped polygon area not finite");
    // Intersection points carry rounding error proportional to the input
    // magnitude, compounded across the four successive edge passes, so the
    // containment tolerance must scale with the larger of the subject and
    // window coordinates (observed escapes reach ~1e-7 of that scale).
    const Box sb = subject.Bounds();
    const double scale = std::max(
        {1.0, std::abs(sb.min_x), std::abs(sb.min_y), std::abs(sb.max_x),
         std::abs(sb.max_y), std::abs(x), std::abs(y), std::abs(x + w),
         std::abs(y + h)});
    const double eps = 1e-5 * scale;
    const Box b = clipped->Bounds();
    Require(b.min_x >= x - eps && b.max_x <= x + w + eps &&
                b.min_y >= y - eps && b.max_y <= y + h + eps,
            "clipped polygon escapes the clip window");
  }
}

void FuzzExtendedEllipse(FuzzInput& input) {
  const Circle a{{input.TakeFiniteDouble(), input.TakeFiniteDouble()},
                 std::abs(input.TakeFiniteDouble()) + 1e-9};
  const Circle b{{input.TakeFiniteDouble(), input.TakeFiniteDouble()},
                 std::abs(input.TakeFiniteDouble()) + 1e-9};
  const double max_travel = std::abs(input.TakeFiniteDouble());
  const bool include_disks = (input.TakeByte() & 1) != 0;
  const ExtendedEllipse e(a, b, max_travel, include_disks);

  const Box bounds = e.Bounds();
  Require(!std::isnan(bounds.min_x) && !std::isnan(bounds.min_y) &&
              !std::isnan(bounds.max_x) && !std::isnan(bounds.max_y),
          "ellipse bounds contain NaN");
  const Region region = Region::Make(e);
  Require(region.CheckInvariants().ok(), "theta region breaks invariants");

  for (int i = 0; i < 4 && input.remaining() >= 2 * sizeof(double); ++i) {
    const Point p{input.TakeFiniteDouble(), input.TakeFiniteDouble()};
    const Box probe{p.x, p.y, p.x, p.y};
    Require(e.MinSumDistance(probe) <= e.MaxSumDistance(probe) + 1e-6,
            "min sum distance exceeds max sum distance");
    CheckClassifyAgreesWithContains(region, p);
  }
}

void FuzzRegionBooleans(FuzzInput& input) {
  const Circle c{{input.TakeFiniteDouble(), input.TakeFiniteDouble()},
                 std::abs(input.TakeFiniteDouble()) + 1e-9};
  const double inner = std::abs(input.TakeFiniteDouble());
  // The width pad scales with `inner` so the addition is never absorbed
  // (inner + 1e-9 == inner at 1e12), which would break inner < outer.
  const Ring r{{input.TakeFiniteDouble(), input.TakeFiniteDouble()},
               inner,
               inner + std::abs(input.TakeFiniteDouble()) + 1e-9 +
                   1e-9 * inner};
  const Region a = Region::Make(c);
  const Region b = Region::Make(r);

  const Region u = Region::Union(a, b);
  const Region i = Region::Intersect(a, b);
  const Region d = Region::Subtract(a, b);
  Require(u.CheckInvariants().ok(), "union breaks invariants");
  Require(i.CheckInvariants().ok(), "intersection breaks invariants");
  Require(d.CheckInvariants().ok(), "difference breaks invariants");

  while (input.remaining() >= 2 * sizeof(double)) {
    const Point p{input.TakeFiniteDouble(), input.TakeFiniteDouble()};
    const bool in_a = a.Contains(p);
    const bool in_b = b.Contains(p);
    Require(u.Contains(p) == (in_a || in_b), "union containment wrong");
    Require(i.Contains(p) == (in_a && in_b),
            "intersection containment wrong");
    Require(d.Contains(p) == (in_a && !in_b),
            "difference containment wrong");
    CheckClassifyAgreesWithContains(u, p);
    CheckClassifyAgreesWithContains(i, p);
    CheckClassifyAgreesWithContains(d, p);
  }
}

/// A definite class of a built-in (prunable) region on a box must be the
/// class of each of its midpoint quadrants, `levels` deep: the area
/// integrator's per-cell pruning rests on it (src/geometry/region.h).
void CheckMonotone(const Region& region, const Box& box, int levels) {
  const BoxClass cls = region.Classify(box);
  for (const Box& q : Quadrants(box)) {
    Require(cls == BoxClass::kBoundary || region.Classify(q) == cls,
            "definite class changed on a midpoint quadrant");
    if (levels > 0) CheckMonotone(region, q, levels - 1);
  }
}

Box TakeBox(FuzzInput& input) {
  const double x0 = input.TakeFiniteDouble();
  const double y0 = input.TakeFiniteDouble();
  const double x1 = input.TakeFiniteDouble();
  const double y1 = input.TakeFiniteDouble();
  return Box::Of({x0, y0}, {x1, y1});
}

/// Builds a CSG tree of built-in prunable leaves (circle, ring, Θ, box)
/// with a small stack machine — each byte pushes a leaf or combines the
/// top two by union, difference or intersection — then checks invariants,
/// Classify against Contains, and monotonicity of every leaf and of the
/// tree on a probe box.
void FuzzCsgTree(FuzzInput& input) {
  std::vector<Region> leaves;
  std::vector<Region> stack;
  for (int op = 0; op < 12 && input.remaining() > 4 * sizeof(double); ++op) {
    const uint8_t code = input.TakeByte();
    if (code % 7 >= 4 && stack.size() >= 2) {
      Region b = std::move(stack.back());
      stack.pop_back();
      Region a = std::move(stack.back());
      stack.pop_back();
      switch (code % 7) {
        case 4:
          stack.push_back(Region::Union(std::move(a), std::move(b)));
          break;
        case 5:
          stack.push_back(Region::Subtract(std::move(a), std::move(b)));
          break;
        default:
          stack.push_back(Region::Intersect(std::move(a), std::move(b)));
          break;
      }
      continue;
    }
    const Point c{input.TakeFiniteDouble(), input.TakeFiniteDouble()};
    const double r = std::abs(input.TakeFiniteDouble()) + 1e-9;
    Region leaf;
    switch (code % 4) {
      case 0:
        leaf = Region::Make(Circle{c, r});
        break;
      case 1:
        leaf = Region::Make(Ring{c, r, r + 1.0 + 1e-9 * r});
        break;
      case 2:
        leaf = Region::Make(ExtendedEllipse(
            Circle{c, r}, Circle{{c.x + r * 3.0, c.y - r}, r * 0.5},
            std::abs(input.TakeFiniteDouble()), (code & 0x10) != 0));
        break;
      default:
        leaf = Region::Make(Box{c.x, c.y, c.x + r, c.y + r});
        break;
    }
    leaves.push_back(leaf);
    stack.push_back(std::move(leaf));
  }
  if (stack.empty()) return;
  const Region tree = Region::Union(std::move(stack));
  Require(tree.CheckInvariants().ok(), "csg tree breaks invariants");
  const Box probe = TakeBox(input);
  for (const Region& leaf : leaves) CheckMonotone(leaf, probe, 3);
  CheckMonotone(tree, probe, 3);
  if (!tree.IsEmpty()) CheckMonotone(tree, tree.Bounds(), 3);
  CheckClassifyAgreesWithContains(tree, {probe.min_x, probe.min_y});
  CheckClassifyAgreesWithContains(tree, probe.Center());
}

// Mode byte 3 picks the CSG tree harness; every other value keeps its
// `% 3` meaning, so earlier corpus seeds replay unchanged.
constexpr uint8_t kCsgTreeMode = 3;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzInput input(data, size);
  const uint8_t mode = input.TakeByte();
  if (mode == kCsgTreeMode) {
    FuzzCsgTree(input);
    return 0;
  }
  switch (mode % 3) {
    case 0:
      FuzzClip(input);
      break;
    case 1:
      FuzzExtendedEllipse(input);
      break;
    default:
      FuzzRegionBooleans(input);
      break;
  }
  return 0;
}
