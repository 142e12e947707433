// Tests for the adaptive quadtree area integrator, cross-validated against
// closed-form areas and the exact convex polygon clipper.

#include <cmath>
#include <memory>
#include <numbers>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/geometry/area_integrator.h"
#include "src/geometry/circle_area.h"
#include "src/geometry/clip.h"
#include "src/geometry/region.h"
#include "src/geometry/tessellate.h"
#include "src/indoor/plan_builders.h"

namespace indoorflow {
namespace {

TEST(AreaIntegratorTest, CircleArea) {
  const Circle c{{0, 0}, 2.0};
  const AreaEstimate est = Area(Region::Make(c));
  EXPECT_NEAR(est.area, c.Area(), est.error_bound + 1e-9);
  EXPECT_LT(est.error_bound, 0.06);
}

TEST(AreaIntegratorTest, TighterToleranceTightensError) {
  const Circle c{{0, 0}, 2.0};
  AreaOptions loose;
  loose.abs_tolerance = 0.5;
  AreaOptions tight;
  tight.abs_tolerance = 0.005;
  tight.max_depth = 20;
  const AreaEstimate l = Area(Region::Make(c), loose);
  const AreaEstimate t = Area(Region::Make(c), tight);
  EXPECT_LE(t.error_bound, l.error_bound);
  EXPECT_NEAR(t.area, c.Area(), 0.01);
}

TEST(AreaIntegratorTest, RingArea) {
  const Ring ring{{1, 1}, 1.0, 3.0};
  const AreaEstimate est = Area(Region::Make(ring));
  EXPECT_NEAR(est.area, ring.Area(), est.error_bound + 1e-9);
}

TEST(AreaIntegratorTest, PolygonAreaExactOnBoxes) {
  // A rectangle polygon maps to the exact box node: kInside at the root.
  const Region r = Region::Make(Polygon::Rectangle(0, 0, 4, 2));
  const AreaEstimate est = Area(r);
  EXPECT_DOUBLE_EQ(est.area, 8.0);
  EXPECT_DOUBLE_EQ(est.error_bound, 0.0);
  // A rotated (non-axis-aligned) quadrilateral takes the generic path but
  // still converges within its certified bound.
  const Polygon diamond({{2, 0}, {4, 2}, {2, 4}, {0, 2}});
  const AreaEstimate d = Area(Region::Make(diamond));
  EXPECT_NEAR(d.area, 8.0, d.error_bound + 1e-9);
  EXPECT_LT(d.error_bound, 0.06);
}

TEST(AreaIntegratorTest, DisjointIntersectionIsZero) {
  const Region a = Region::Make(Circle{{0, 0}, 1.0});
  const Region b = Region::Make(Circle{{5, 0}, 1.0});
  const AreaEstimate est = AreaOfIntersection(a, b);
  EXPECT_DOUBLE_EQ(est.area, 0.0);
  EXPECT_DOUBLE_EQ(est.error_bound, 0.0);
}

TEST(AreaIntegratorTest, CirclePolygonIntersection) {
  // Circle centered on a rectangle corner: exactly a quarter disk inside.
  const Circle c{{0, 0}, 2.0};
  const Region circle = Region::Make(c);
  const Region rect = Region::Make(Polygon::Rectangle(0, 0, 10, 10));
  const AreaEstimate est = AreaOfIntersection(circle, rect);
  EXPECT_NEAR(est.area, c.Area() / 4.0, est.error_bound + 1e-9);
}

TEST(AreaIntegratorTest, LensAreaClosedForm) {
  // Two unit circles at distance 1: lens area = 2r^2 cos^-1(d/2r) -
  // d/2 * sqrt(4r^2 - d^2).
  const double d = 1.0;
  const double expected =
      2.0 * std::acos(d / 2.0) - d / 2.0 * std::sqrt(4.0 - d * d);
  const Region a = Region::Make(Circle{{0, 0}, 1.0});
  const Region b = Region::Make(Circle{{d, 0}, 1.0});
  AreaOptions options;
  options.abs_tolerance = 0.002;
  options.max_depth = 18;
  const AreaEstimate est = AreaOfIntersection(a, b, options);
  EXPECT_NEAR(est.area, expected, est.error_bound + 1e-9);
  EXPECT_LT(est.error_bound, 0.01);
}

TEST(AreaIntegratorTest, MatchesConvexClipperOnPolygonPairs) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const double x0 = rng.Uniform(-5, 5);
    const double y0 = rng.Uniform(-5, 5);
    const Polygon a = Polygon::Rectangle(x0, y0, x0 + rng.Uniform(1, 6),
                                         y0 + rng.Uniform(1, 6));
    const double x1 = rng.Uniform(-5, 5);
    const double y1 = rng.Uniform(-5, 5);
    const Polygon b = Polygon::Rectangle(x1, y1, x1 + rng.Uniform(1, 6),
                                         y1 + rng.Uniform(1, 6));
    const double exact = ClippedArea(a, b);
    const AreaEstimate est =
        AreaOfIntersection(Region::Make(a), Region::Make(b));
    EXPECT_NEAR(est.area, exact, est.error_bound + 1e-9)
        << "trial " << trial;
  }
}

TEST(AreaIntegratorTest, MatchesClipperOnTessellatedEllipse) {
  // Integrate Θ ∩ rectangle and compare against clipping a fine polygonal
  // approximation of Θ.
  const ExtendedEllipse theta(Circle{{0, 0}, 1.0}, Circle{{7, 0}, 1.0},
                              8.0);
  const Polygon approx = TessellateExtendedEllipse(theta, 512);
  const Polygon window = Polygon::Rectangle(2, -1, 9, 2);
  double expected = 0.0;
  {
    // approx may be non-convex in principle; the window is convex, so clip
    // approx against it.
    expected = ClippedArea(approx, window);
  }
  AreaOptions options;
  options.abs_tolerance = 0.01;
  options.max_depth = 16;
  const AreaEstimate est = AreaOfIntersection(
      Region::Make(theta), Region::Make(window), options);
  // The tessellation itself has ~0.1% area error; allow both tolerances.
  EXPECT_NEAR(est.area, expected, est.error_bound + 0.05);
}

TEST(AreaIntegratorTest, ErrorBoundIsSound) {
  // Monte-Carlo ground truth for a nontrivial CSG shape.
  const Region shape = Region::Subtract(
      Region::Intersect(Region::Make(Circle{{0, 0}, 3.0}),
                        Region::Make(Circle{{2, 0}, 3.0})),
      Region::Make(Circle{{1, 0}, 1.0}));
  const Box domain = shape.Bounds();
  Rng rng(7);
  const int n = 400000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    const Point p{rng.Uniform(domain.min_x, domain.max_x),
                  rng.Uniform(domain.min_y, domain.max_y)};
    hits += shape.Contains(p) ? 1 : 0;
  }
  const double mc_area = domain.Area() * hits / n;
  const AreaEstimate est = Area(shape);
  // Monte-Carlo standard error ~ area * sqrt(p(1-p)/n); 4 sigma margin.
  const double mc_sigma =
      domain.Area() * std::sqrt(0.25 / static_cast<double>(n));
  EXPECT_NEAR(est.area, mc_area, est.error_bound + 4.0 * mc_sigma);
}

TEST(AreaIntegratorTest, MaxCellsCapStillReturnsBound) {
  AreaOptions options;
  options.abs_tolerance = 1e-9;  // unreachable
  options.max_cells = 500;
  // A Θ-region has no exact fast path, so the adaptive loop must engage
  // and stop at the cell cap with a certified bound.
  const ExtendedEllipse theta(Circle{{0, 0}, 1.0}, Circle{{8, 0}, 1.0},
                              9.0);
  const AreaEstimate est = Area(Region::Make(theta), options);
  EXPECT_GT(est.error_bound, 0.0);
  // Reference value from a fully-converged run.
  AreaOptions tight;
  tight.abs_tolerance = 0.001;
  tight.max_depth = 20;
  tight.max_cells = 2000000;
  const AreaEstimate reference = Area(Region::Make(theta), tight);
  EXPECT_NEAR(est.area, reference.area,
              est.error_bound + reference.error_bound + 1e-9);
}

TEST(AreaIntegratorTest, ExactFastPathsAreExact) {
  // circle x rectangle
  const Circle c{{1, 1}, 2.0};
  const Region rect = Region::Make(Polygon::Rectangle(0, 0, 10, 10));
  const AreaEstimate circle_est =
      AreaOfIntersection(Region::Make(c), rect);
  EXPECT_DOUBLE_EQ(circle_est.error_bound, 0.0);
  EXPECT_NEAR(circle_est.area, CircleBoxIntersectionArea(c, Box{0, 0, 10, 10}),
              1e-12);
  // ring x rectangle
  const Ring ring{{1, 1}, 0.5, 2.0};
  const AreaEstimate ring_est =
      AreaOfIntersection(rect, Region::Make(ring));  // order-independent
  EXPECT_DOUBLE_EQ(ring_est.error_bound, 0.0);
  // rectangle x rectangle
  const AreaEstimate boxes = AreaOfIntersection(
      Region::Make(Box{0, 0, 4, 4}), Region::Make(Box{2, 2, 6, 6}));
  EXPECT_DOUBLE_EQ(boxes.area, 4.0);
  EXPECT_DOUBLE_EQ(boxes.error_bound, 0.0);
}

// ---------------------------------------------------------------------------
// Per-cell pruning against an unpruned reference.

// A disk behind the custom-node interface whose classifier is conservative
// but not monotone: it only commits on boxes wider than 1, so a cell it
// decides can have quadrants it does not. The integrator must classify it
// on every cell and never prune it.
class CoarseDiskNode final : public region_internal::Node {
 public:
  explicit CoarseDiskNode(Circle disk) : disk_(disk) {}
  bool Contains(Point p) const override { return disk_.Contains(p); }
  Box Bounds() const override { return disk_.Bounds(); }
  BoxClass Classify(const Box& box) const override {
    if (box.Width() <= 1.0) return BoxClass::kBoundary;
    const double r2 = disk_.radius * disk_.radius;
    if (MinDistanceSquared(box, disk_.center) > r2) return BoxClass::kOutside;
    if (MaxDistanceSquared(box, disk_.center) <= r2) return BoxClass::kInside;
    return BoxClass::kBoundary;
  }

 private:
  Circle disk_;
};

// The integrator's loop with every cell classified against both whole
// regions: no pruning. Pairs with a closed-form area take the integrator's
// own fast path, which is not what this reference checks.
AreaEstimate ReferenceAreaOfIntersection(const Region& a, const Region& b,
                                         const AreaOptions& options) {
  const auto closed_form = [](const Region& shape, const Region& rect) {
    return rect.AsBox() != nullptr &&
           (shape.AsCircle() != nullptr || shape.AsRing() != nullptr ||
            shape.AsBox() != nullptr);
  };
  if (closed_form(a, b) || closed_form(b, a)) {
    return AreaOfIntersection(a, b, options);
  }
  const auto classify = [&](const Box& box) {
    const BoxClass ca = a.Classify(box);
    if (ca == BoxClass::kOutside) return BoxClass::kOutside;
    const BoxClass cb = b.Classify(box);
    if (cb == BoxClass::kOutside) return BoxClass::kOutside;
    if (ca == BoxClass::kInside && cb == BoxClass::kInside) {
      return BoxClass::kInside;
    }
    return BoxClass::kBoundary;
  };
  AreaEstimate result;
  const Box root = Intersection(a.Bounds(), b.Bounds());
  if (root.Empty() || root.Area() <= 0.0) return result;
  result.work.cells_classified = 1;
  std::vector<Box> boundary;
  switch (classify(root)) {
    case BoxClass::kInside:
      result.area = root.Area();
      return result;
    case BoxClass::kOutside:
      return result;
    case BoxClass::kBoundary:
      boundary.push_back(root);
      break;
  }
  double boundary_area = root.Area();
  for (int depth = 0; depth < options.max_depth && !boundary.empty();
       ++depth) {
    if (boundary_area * 0.5 <= options.abs_tolerance) break;
    if (result.work.cells_classified >= options.max_cells) {
      result.work.cell_caps = 1;
      break;
    }
    std::vector<Box> next;
    boundary_area = 0.0;
    for (const Box& cell : boundary) {
      for (const Box& q : Quadrants(cell)) {
        ++result.work.cells_classified;
        switch (classify(q)) {
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
  result.area += boundary_area * 0.5;
  result.error_bound = boundary_area * 0.5;
  return result;
}

Point RandomPoint(Rng& rng) {
  return {rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
}

// Every leaf kind a region program has.
Region RandomLeaf(Rng& rng) {
  switch (rng.UniformInt(7ULL)) {
    case 0:
      return Region::Make(Circle{RandomPoint(rng), rng.Uniform(0.5, 5.0)});
    case 1: {
      const double inner = rng.Uniform(0.0, 3.0);
      return Region::Make(
          Ring{RandomPoint(rng), inner, inner + rng.Uniform(0.5, 4.0)});
    }
    case 2:
    case 3: {
      const Circle a{RandomPoint(rng), rng.Uniform(0.5, 2.0)};
      const Circle b{RandomPoint(rng), rng.Uniform(0.5, 2.0)};
      return Region::Make(ExtendedEllipse(
          a, b, rng.Uniform(0.0, 25.0),
          /*include_disks=*/rng.Uniform(0.0, 1.0) < 0.7));
    }
    case 4: {
      const Point p = RandomPoint(rng);
      return Region::Make(Box{p.x, p.y, p.x + rng.Uniform(0.5, 8.0),
                              p.y + rng.Uniform(0.5, 8.0)});
    }
    case 5: {
      const Point c = RandomPoint(rng);
      const double r = rng.Uniform(1.0, 6.0);
      return Region::Make(Polygon({{c.x, c.y - r},
                                   {c.x + r, c.y},
                                   {c.x + 0.3 * r, c.y + r},
                                   {c.x - r, c.y + 0.2 * r}}));
    }
    default:
      return Region::FromNode(std::make_shared<CoarseDiskNode>(
          Circle{RandomPoint(rng), rng.Uniform(1.0, 6.0)}));
  }
}

// Nested unions (of two and of several parts), intersections and
// differences over random leaves.
Region RandomTree(Rng& rng, int depth) {
  if (depth == 0) return RandomLeaf(rng);
  switch (rng.UniformInt(4ULL)) {
    case 0:
      return Region::Intersect(RandomTree(rng, depth - 1),
                               RandomTree(rng, depth - 1));
    case 1:
      return Region::Subtract(RandomTree(rng, depth - 1),
                              RandomTree(rng, depth - 1));
    case 2:
      return Region::Union(RandomTree(rng, depth - 1),
                           RandomTree(rng, depth - 1));
    default: {
      std::vector<Region> parts;
      const int n = 2 + static_cast<int>(rng.UniformInt(4ULL));
      for (int i = 0; i < n; ++i) parts.push_back(RandomTree(rng, depth - 1));
      return Region::Union(std::move(parts));
    }
  }
}

void ExpectMatchesReference(const Region& a, const Region& b,
                            const AreaOptions& options) {
  const AreaEstimate got = AreaOfIntersection(a, b, options);
  const AreaEstimate want = ReferenceAreaOfIntersection(a, b, options);
  // Bit for bit: the same cells decided the same way, summed in order.
  EXPECT_EQ(got.area, want.area);
  EXPECT_EQ(got.error_bound, want.error_bound);
  EXPECT_EQ(got.work.cells_classified, want.work.cells_classified);
  EXPECT_EQ(got.work.cell_caps, want.work.cell_caps);
}

TEST(AreaIntegratorPruningTest, MatchesUnprunedReferenceBitForBit) {
  Rng rng(2024);
  const double tolerances[] = {0.5, 0.1, 0.02};
  for (int trial = 0; trial < 150; ++trial) {
    const Region a = RandomTree(rng, 1 + static_cast<int>(trial % 3));
    const Region b = trial % 2 == 0 ? RandomLeaf(rng) : RandomTree(rng, 1);
    ASSERT_TRUE(a.CheckInvariants().ok()) << a.CheckInvariants().message();
    AreaOptions options;
    options.abs_tolerance = tolerances[trial % 3];
    options.max_cells = 40000;  // keeps sanitizer builds quick
    SCOPED_TRACE(trial);
    ExpectMatchesReference(a, b, options);
    ExpectMatchesReference(b, a, options);
  }
}

TEST(AreaIntegratorPruningTest, MatchesReferenceAtTheCellCap) {
  // A union of Θ pieces minus boxes, the shape of a topology-checked
  // interval region, refined well past a small cell cap.
  std::vector<Region> pieces;
  for (int i = 0; i < 6; ++i) {
    pieces.push_back(Region::Make(ExtendedEllipse(
        Circle{{3.0 * i, 0.5 * i}, 1.0}, Circle{{3.0 * i + 4.0, 1.0}, 1.5},
        6.0)));
  }
  const Region ur = Region::Subtract(
      Region::Union(std::move(pieces)),
      Region::Union(Region::Make(Box{2, -1, 4, 3}),
                    Region::Make(Box{9, 0, 11, 6})));
  const Region poi = Region::Make(Polygon({{0, -3}, {20, -2}, {15, 6}}));
  AreaOptions options;
  options.abs_tolerance = 1e-6;
  options.max_cells = 2000;
  const AreaEstimate got = AreaOfIntersection(ur, poi, options);
  EXPECT_EQ(got.work.cell_caps, 1);
  EXPECT_GE(got.work.cells_classified, options.max_cells);
  ExpectMatchesReference(ur, poi, options);
}

TEST(AreaIntegratorPruningTest, PruningSavesLeafTests) {
  // Once a cell lies inside the POI box, the box is no longer tested.
  const Region ur = Region::Union(
      Region::Make(ExtendedEllipse(Circle{{0, 0}, 1.0}, Circle{{6, 0}, 1.0},
                                   7.0)),
      Region::Make(Ring{{3, 3}, 1.0, 2.5}));
  const Region poi = Region::Make(Box{-2, -2, 8, 6});
  const AreaEstimate est = AreaOfIntersection(ur, poi);
  EXPECT_GT(est.work.cells_classified, 1);
  // Unpruned, every cell tests the box and at least one UR leaf.
  EXPECT_LT(est.work.leaf_tests, 2 * est.work.cells_classified);
}

// Several threads integrate one shared uncertainty region against every
// POI of a plan at once; each must get the serial result bit for bit (the
// per-cell programs live in per-thread scratch, the shared program is
// read-only).
TEST(AreaIntegratorConcurrencyTest, SharedRegionAgainstEveryPoi) {
  const BuiltPlan built = BuildOfficePlan();
  Rng rng(5);
  const PoiSet pois = GeneratePois(built, 40, rng);
  std::vector<Region> poi_regions;
  for (const Poi& poi : pois) poi_regions.push_back(Region::Make(poi.shape));
  const Box plan = built.plan.Bounds();
  std::vector<Region> pieces;
  for (int i = 0; i < 8; ++i) {
    const Point a{rng.Uniform(plan.min_x, plan.max_x),
                  rng.Uniform(plan.min_y, plan.max_y)};
    const Point b{rng.Uniform(plan.min_x, plan.max_x),
                  rng.Uniform(plan.min_y, plan.max_y)};
    pieces.push_back(Region::Make(ExtendedEllipse(
        Circle{a, 1.5}, Circle{b, 1.5}, Distance(a, b) + 10.0)));
  }
  const Region ur =
      Region::Subtract(Region::Union(std::move(pieces)),
                       Region::Make(Box{plan.min_x, plan.min_y,
                                        plan.min_x + 12.0, plan.max_y}));
  AreaOptions options;
  options.abs_tolerance = 0.05;
  std::vector<AreaEstimate> serial;
  int refined = 0;
  for (const Region& poi : poi_regions) {
    serial.push_back(AreaOfIntersection(ur, poi, options));
    if (serial.back().work.cells_classified > 1) ++refined;
  }
  ASSERT_GT(refined, 5);  // the pairs exercise the per-cell programs
  constexpr int kThreads = 4;
  std::vector<std::vector<AreaEstimate>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the POIs from its own offset, so different
      // pairs overlap in time.
      got[t].resize(poi_regions.size());
      for (size_t i = 0; i < poi_regions.size(); ++i) {
        const size_t poi = (i + static_cast<size_t>(t) * 7) %
                           poi_regions.size();
        got[t][poi] = AreaOfIntersection(ur, poi_regions[poi], options);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t poi = 0; poi < serial.size(); ++poi) {
      EXPECT_EQ(got[t][poi].area, serial[poi].area) << t << " " << poi;
      EXPECT_EQ(got[t][poi].error_bound, serial[poi].error_bound);
      EXPECT_EQ(got[t][poi].work.leaf_tests, serial[poi].work.leaf_tests);
    }
  }
}

}  // namespace
}  // namespace indoorflow
