// Parameterized property tests for the geometry substrate: randomized CSG
// conservativeness, tessellation convergence, clipping algebra, integrator
// consistency against Monte-Carlo ground truth.

#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/geometry/area_integrator.h"
#include "src/geometry/clip.h"
#include "src/geometry/region.h"
#include "src/geometry/tessellate.h"

namespace indoorflow {
namespace {

// ---------------------------------------------------------------------------
// Tessellation convergence across radii and segment counts.

class TessellationSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(TessellationSweep, CircleAreaAndContainment) {
  const double radius = std::get<0>(GetParam());
  const int segments = std::get<1>(GetParam());
  const Circle c{{3.0, -2.0}, radius};
  const Polygon poly = TessellateCircle(c, segments);
  ASSERT_TRUE(poly.CheckInvariants().ok())
      << poly.CheckInvariants().message();
  // Inscribed n-gon area: n/2 * r^2 * sin(2π/n).
  const double expected =
      segments / 2.0 * radius * radius *
      std::sin(2.0 * std::numbers::pi / segments);
  EXPECT_NEAR(poly.Area(), expected, 1e-9 * expected + 1e-12);
  // All vertices on the circle boundary.
  for (const Point& v : poly.vertices()) {
    EXPECT_NEAR(Distance(v, c.center), radius, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndSegments, TessellationSweep,
    ::testing::Combine(::testing::Values(0.5, 1.5, 4.0, 20.0),
                       ::testing::Values(8, 32, 128, 512)));

// ---------------------------------------------------------------------------
// Extended ellipse symmetries.

class EllipseSymmetry : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EllipseSymmetry, SwapAndReflectInvariance) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const Circle a{{rng.Uniform(-10, 10), 0.0}, rng.Uniform(0.5, 2.5)};
    const Circle b{{rng.Uniform(-10, 10), 0.0}, rng.Uniform(0.5, 2.5)};
    const double travel = rng.Uniform(0.0, 40.0);
    const ExtendedEllipse forward(a, b, travel);
    const ExtendedEllipse backward(b, a, travel);
    EXPECT_EQ(forward.EmptyBridge(), backward.EmptyBridge());
    for (int i = 0; i < 50; ++i) {
      const Point p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      // Swapping the two disks never changes membership.
      EXPECT_EQ(forward.Contains(p), backward.Contains(p));
      // Both foci are on the x-axis, so the region is mirror-symmetric.
      EXPECT_EQ(forward.Contains(p), forward.Contains({p.x, -p.y}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EllipseSymmetry,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Randomized CSG: classification must be conservative w.r.t. containment,
// and bounds must cover all members.

Region RandomPrimitive(Rng& rng) {
  switch (rng.UniformInt(4ULL)) {
    case 0:
      return Region::Make(
          Circle{{rng.Uniform(-10, 10), rng.Uniform(-10, 10)},
                 rng.Uniform(0.5, 4.0)});
    case 1: {
      const double inner = rng.Uniform(0.3, 2.0);
      return Region::Make(Ring{{rng.Uniform(-10, 10), rng.Uniform(-10, 10)},
                               inner, inner + rng.Uniform(0.5, 4.0)});
    }
    case 2: {
      const Circle a{{rng.Uniform(-10, 0), rng.Uniform(-5, 5)},
                     rng.Uniform(0.5, 2.0)};
      const Circle b{{rng.Uniform(0, 10), rng.Uniform(-5, 5)},
                     rng.Uniform(0.5, 2.0)};
      return Region::Make(
          ExtendedEllipse(a, b, rng.Uniform(0.0, 25.0)));
    }
    default: {
      const double x = rng.Uniform(-10, 8);
      const double y = rng.Uniform(-10, 8);
      return Region::Make(Polygon::Rectangle(
          x, y, x + rng.Uniform(0.5, 6), y + rng.Uniform(0.5, 6)));
    }
  }
}

Region RandomCsg(Rng& rng, int depth) {
  if (depth == 0) return RandomPrimitive(rng);
  switch (rng.UniformInt(3ULL)) {
    case 0:
      return Region::Intersect(RandomCsg(rng, depth - 1),
                               RandomCsg(rng, depth - 1));
    case 1:
      return Region::Union(RandomCsg(rng, depth - 1),
                           RandomCsg(rng, depth - 1));
    default:
      return Region::Subtract(RandomCsg(rng, depth - 1),
                              RandomCsg(rng, depth - 1));
  }
}

class CsgFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsgFuzz, ClassificationConservativeAndBoundsCover) {
  Rng rng(GetParam());
  const Region region = RandomCsg(rng, 3);
  ASSERT_TRUE(region.CheckInvariants().ok())
      << region.CheckInvariants().message();
  const Box bounds = region.Bounds();
  const Box domain{-15, -15, 15, 15};
  for (int i = 0; i < 2000; ++i) {
    const Point p{rng.Uniform(domain.min_x, domain.max_x),
                  rng.Uniform(domain.min_y, domain.max_y)};
    if (region.Contains(p)) {
      EXPECT_TRUE(bounds.Contains(p))
          << "member outside Bounds() at (" << p.x << "," << p.y << ")";
    }
  }
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(domain.min_x, domain.max_x);
    const double y = rng.Uniform(domain.min_y, domain.max_y);
    const Box box{x, y, x + rng.Uniform(0.05, 5), y + rng.Uniform(0.05, 5)};
    const BoxClass cls = region.Classify(box);
    if (cls == BoxClass::kBoundary) continue;
    for (int j = 0; j < 20; ++j) {
      const Point p{rng.Uniform(box.min_x, box.max_x),
                    rng.Uniform(box.min_y, box.max_y)};
      EXPECT_EQ(region.Contains(p), cls == BoxClass::kInside)
          << "(" << p.x << "," << p.y << ")";
    }
  }
}

TEST_P(CsgFuzz, IntegratorMatchesMonteCarlo) {
  Rng rng(GetParam() ^ 0xfeedULL);
  const Region region = RandomCsg(rng, 2);
  const Box bounds = region.Bounds();
  if (bounds.Empty() || bounds.Area() <= 0.0) return;
  const AreaEstimate est = Area(region);
  // Monte-Carlo reference over the region bounds.
  const int n = 120000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    const Point p{rng.Uniform(bounds.min_x, bounds.max_x),
                  rng.Uniform(bounds.min_y, bounds.max_y)};
    hits += region.Contains(p) ? 1 : 0;
  }
  const double mc = bounds.Area() * hits / n;
  const double mc_sigma = bounds.Area() * std::sqrt(0.25 / n);
  EXPECT_NEAR(est.area, mc, est.error_bound + 5.0 * mc_sigma);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsgFuzz,
                         ::testing::Range<uint64_t>(100, 112));

// ---------------------------------------------------------------------------
// Monotonicity under midpoint subdivision: the property per-cell pruning
// in the area integrator rests on (region.h). For every leaf kind marked
// prunable, and every tree built only from them, a definite class on a box
// is the class of each of its quadrants.

// Every prunable leaf kind: circle, ring (also with a zero inner radius),
// Θ with and without its disks and with an empty bridge, box, empty.
Region RandomPrunableLeaf(Rng& rng) {
  const Point c{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
  switch (rng.UniformInt(7ULL)) {
    case 0:
      return Region::Make(Circle{c, rng.Uniform(0.1, 5.0)});
    case 1: {
      const double inner = rng.UniformInt(2ULL) == 0 ? 0.0
                                                      : rng.Uniform(0.1, 3.0);
      return Region::Make(Ring{c, inner, inner + rng.Uniform(0.1, 4.0)});
    }
    case 2:
    case 3: {
      const Circle a{c, rng.Uniform(0.3, 2.0)};
      const Circle b{{rng.Uniform(-10, 10), rng.Uniform(-10, 10)},
                     rng.Uniform(0.3, 2.0)};
      // Travel budgets from well below the gap (empty bridge) to above.
      const double travel =
          rng.Uniform(0.0, 1.5) * Distance(a.center, b.center);
      return Region::Make(ExtendedEllipse(a, b, travel,
                                          rng.UniformInt(2ULL) == 0));
    }
    case 4:
      return Region::Make(Box{c.x, c.y, c.x + rng.Uniform(0.1, 8.0),
                              c.y + rng.Uniform(0.1, 8.0)});
    case 5:
      return Region::Make(Polygon::Rectangle(c.x, c.y, c.x + 3.0, c.y + 1.0));
    default:
      return Region();
  }
}

// Checks the property on `box` and, `levels` deep, on its quadrants.
void ExpectMonotone(const Region& region, const Box& box, int levels) {
  const BoxClass cls = region.Classify(box);
  for (const Box& q : Quadrants(box)) {
    ASSERT_TRUE(box.Contains(q));
    if (cls != BoxClass::kBoundary) {
      ASSERT_EQ(region.Classify(q), cls)
          << "box [" << box.min_x << "," << box.min_y << "," << box.max_x
          << "," << box.max_y << "] quadrant [" << q.min_x << ","
          << q.min_y << "," << q.max_x << "," << q.max_y << "]";
    }
    if (levels > 0) ExpectMonotone(region, q, levels - 1);
  }
}

// Probe boxes of many sizes around a region, plus its own bounds (whose
// edges touch the shape exactly).
std::vector<Box> ProbeBoxes(const Region& region, Rng& rng) {
  std::vector<Box> boxes;
  if (!region.IsEmpty()) boxes.push_back(region.Bounds());
  for (int i = 0; i < 12; ++i) {
    const double x = rng.Uniform(-14, 14);
    const double y = rng.Uniform(-14, 14);
    const double size = std::pow(10.0, rng.Uniform(-3.0, 1.3));
    boxes.push_back(Box{x, y, x + size, y + size * rng.Uniform(0.2, 3.0)});
  }
  return boxes;
}

class Monotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Monotonicity, PrunableLeavesKeepTheirClassOnQuadrants) {
  Rng rng(GetParam());
  for (int i = 0; i < 25; ++i) {
    const Region leaf = RandomPrunableLeaf(rng);
    for (const Box& box : ProbeBoxes(leaf, rng)) {
      ExpectMonotone(leaf, box, 4);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(Monotonicity, PrunableTreesKeepTheirClassOnQuadrants) {
  Rng rng(GetParam() ^ 0x5eedULL);
  for (int i = 0; i < 6; ++i) {
    std::vector<Region> parts;
    for (int j = 0; j < 4; ++j) parts.push_back(RandomCsg(rng, 2));
    // Nested unions and differences, as uncertainty regions build them.
    const Region tree = Region::Subtract(
        Region::Union(std::move(parts)),
        Region::Union(RandomPrunableLeaf(rng), RandomPrunableLeaf(rng)));
    for (const Box& box : ProbeBoxes(tree, rng)) {
      ExpectMonotone(tree, box, 3);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Monotonicity,
                         ::testing::Range<uint64_t>(300, 308));

// ---------------------------------------------------------------------------
// Integrator algebra.

class IntegratorAlgebra : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntegratorAlgebra, IntersectionSymmetricAndMonotone) {
  Rng rng(GetParam());
  const Region a = RandomPrimitive(rng);
  const Region b = RandomPrimitive(rng);
  const AreaEstimate ab = AreaOfIntersection(a, b);
  const AreaEstimate ba = AreaOfIntersection(b, a);
  // Symmetry within the combined error bounds.
  EXPECT_NEAR(ab.area, ba.area, ab.error_bound + ba.error_bound + 1e-9);
  // area(a ∩ b) <= area(a) and <= area(b).
  const AreaEstimate aa = Area(a);
  const AreaEstimate bb = Area(b);
  EXPECT_LE(ab.LowerBound(), aa.UpperBound() + 1e-9);
  EXPECT_LE(ab.LowerBound(), bb.UpperBound() + 1e-9);
  // Union is superadditive: area(a ∪ b) >= max(area(a), area(b)).
  const AreaEstimate uu = Area(Region::Union(a, b));
  EXPECT_GE(uu.UpperBound() + 1e-9, aa.LowerBound());
  EXPECT_GE(uu.UpperBound() + 1e-9, bb.LowerBound());
  // Inclusion-exclusion: area(a) + area(b) = area(a ∪ b) + area(a ∩ b).
  EXPECT_NEAR(aa.area + bb.area, uu.area + ab.area,
              aa.error_bound + bb.error_bound + uu.error_bound +
                  ab.error_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegratorAlgebra,
                         ::testing::Range<uint64_t>(200, 215));

// ---------------------------------------------------------------------------
// Clipping algebra on random rectangles and convex polygons.

class ClipAlgebra : public ::testing::TestWithParam<uint64_t> {};

Polygon RandomRect(Rng& rng) {
  const double x = rng.Uniform(-8, 6);
  const double y = rng.Uniform(-8, 6);
  return Polygon::Rectangle(x, y, x + rng.Uniform(0.5, 6),
                            y + rng.Uniform(0.5, 6));
}

TEST_P(ClipAlgebra, RectPairProperties) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const Polygon a = RandomRect(rng);
    const Polygon b = RandomRect(rng);
    ASSERT_TRUE(a.CheckInvariants().ok()) << a.CheckInvariants().message();
    ASSERT_TRUE(b.CheckInvariants().ok()) << b.CheckInvariants().message();
    const double ab = ClippedArea(a, b);
    // Commutative for convex pairs.
    EXPECT_NEAR(ab, ClippedArea(b, a), 1e-9);
    // Bounded by both areas.
    EXPECT_LE(ab, a.Area() + 1e-9);
    EXPECT_LE(ab, b.Area() + 1e-9);
    // For axis-aligned rectangles the exact value is the box overlap.
    const Box overlap = Intersection(a.Bounds(), b.Bounds());
    EXPECT_NEAR(ab, overlap.Area(), 1e-9);
    // Self-clip is identity.
    EXPECT_NEAR(ClippedArea(a, a), a.Area(), 1e-9);
  }
}

TEST_P(ClipAlgebra, CircleApproximationClip) {
  Rng rng(GetParam() ^ 0xc0ffeeULL);
  const Circle c{{rng.Uniform(-3, 3), rng.Uniform(-3, 3)},
                 rng.Uniform(1.0, 4.0)};
  const Polygon circle_poly = TessellateCircle(c, 256);
  const Polygon window = RandomRect(rng);
  const double clipped = ClippedArea(circle_poly, window);
  // Compare against the integrator on the true circle.
  AreaOptions options;
  options.abs_tolerance = 0.01;
  options.max_depth = 16;
  const AreaEstimate est = AreaOfIntersection(
      Region::Make(c), Region::Make(window), options);
  // Tessellation underestimates the circle by < 0.1%.
  EXPECT_NEAR(clipped, est.area, est.error_bound + 0.002 * c.Area() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClipAlgebra,
                         ::testing::Range<uint64_t>(300, 310));

}  // namespace
}  // namespace indoorflow
