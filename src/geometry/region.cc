#include "src/geometry/region.h"

#include "src/common/status.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace indoorflow {
namespace region_internal {
namespace {

bool FinitePoint(Point p) { return std::isfinite(p.x) && std::isfinite(p.y); }

bool NanBox(const Box& b) {
  return std::isnan(b.min_x) || std::isnan(b.min_y) || std::isnan(b.max_x) ||
         std::isnan(b.max_y);
}

bool IsLeaf(OpKind kind) { return kind < OpKind::kAny; }

// Whether ops of `kind` index a shape table.
bool HasShape(OpKind kind) {
  return kind == OpKind::kCircle || kind == OpKind::kRing ||
         kind == OpKind::kTheta || kind == OpKind::kPolygon ||
         kind == OpKind::kNode;
}

BoxClass Flip(BoxClass c) {
  switch (c) {
    case BoxClass::kInside:
      return BoxClass::kOutside;
    case BoxClass::kOutside:
      return BoxClass::kInside;
    case BoxClass::kBoundary:
      break;
  }
  return BoxClass::kBoundary;
}

BoxClass ClassifyDisk(const Circle& disk, const Box& box) {
  const double r2 = disk.radius * disk.radius;
  if (MinDistanceSquared(box, disk.center) > r2) return BoxClass::kOutside;
  if (MaxDistanceSquared(box, disk.center) <= r2) return BoxClass::kInside;
  return BoxClass::kBoundary;
}

BoxClass ClassifyRing(const Ring& ring, const Box& box) {
  const double inner2 = ring.inner_radius * ring.inner_radius;
  const double outer2 = ring.outer_radius * ring.outer_radius;
  const double min_d2 = MinDistanceSquared(box, ring.center);
  const double max_d2 = MaxDistanceSquared(box, ring.center);
  if (min_d2 > outer2 || max_d2 < inner2) return BoxClass::kOutside;
  if (min_d2 >= inner2 && max_d2 <= outer2) return BoxClass::kInside;
  return BoxClass::kBoundary;
}

// A complete extended-ellipse region Θ in one op: bridge ∪ disks (or
// bridge \ disks for the include_disks=false variant). Θ pieces dominate
// interval uncertainty regions.
BoxClass ClassifyTheta(const ExtendedEllipse& e, const Box& bounds,
                       const Box& box) {
  if (!bounds.Intersects(box)) return BoxClass::kOutside;
  const BoxClass in_a = ClassifyDisk(e.disk_a(), box);
  const BoxClass in_b = ClassifyDisk(e.disk_b(), box);
  BoxClass bridge = BoxClass::kOutside;
  if (!e.EmptyBridge()) {
    if (e.MaxSumDistance(box) <= e.max_travel()) {
      bridge = BoxClass::kInside;
    } else if (e.MinSumDistance(box) <= e.max_travel()) {
      bridge = BoxClass::kBoundary;
    }
  }
  if (e.include_disks() || e.EmptyBridge()) {
    // Union semantics: bridge ∪ disk_a ∪ disk_b.
    if (bridge == BoxClass::kInside || in_a == BoxClass::kInside ||
        in_b == BoxClass::kInside) {
      return BoxClass::kInside;
    }
    if (bridge == BoxClass::kOutside && in_a == BoxClass::kOutside &&
        in_b == BoxClass::kOutside) {
      return BoxClass::kOutside;
    }
    return BoxClass::kBoundary;
  }
  // Difference semantics: bridge \ (disk_a ∪ disk_b).
  if (bridge == BoxClass::kOutside || in_a == BoxClass::kInside ||
      in_b == BoxClass::kInside) {
    return BoxClass::kOutside;
  }
  if (bridge == BoxClass::kInside && in_a == BoxClass::kOutside &&
      in_b == BoxClass::kOutside) {
    return BoxClass::kInside;
  }
  return BoxClass::kBoundary;
}

BoxClass ClassifyPolygon(const Polygon& polygon, const Box& box) {
  if (!box.Intersects(polygon.Bounds())) return BoxClass::kOutside;
  // A box is fully inside/outside iff its corners all are and no polygon
  // edge crosses it.
  const Point corners[4] = {{box.min_x, box.min_y},
                            {box.max_x, box.min_y},
                            {box.max_x, box.max_y},
                            {box.min_x, box.max_y}};
  int inside_corners = 0;
  for (Point c : corners) inside_corners += polygon.Contains(c) ? 1 : 0;
  if (inside_corners != 0 && inside_corners != 4) return BoxClass::kBoundary;
  const Segment box_edges[4] = {{corners[0], corners[1]},
                                {corners[1], corners[2]},
                                {corners[2], corners[3]},
                                {corners[3], corners[0]}};
  for (const Segment& e : box_edges) {
    if (polygon.EdgeIntersects(e)) return BoxClass::kBoundary;
  }
  if (inside_corners == 4) return BoxClass::kInside;
  // All corners outside, no edge crossing: the polygon is either disjoint
  // from the box or entirely within it.
  if (box.Contains(polygon.Bounds())) return BoxClass::kBoundary;
  return BoxClass::kOutside;
}

BoxClass ClassifyLeaf(const Program& p, const Op& op, const Box& box) {
  switch (op.kind) {
    case OpKind::kCircle:
      return ClassifyDisk(p.circles[op.shape], box);
    case OpKind::kRing:
      return ClassifyRing(p.rings[op.shape], box);
    case OpKind::kTheta:
      return ClassifyTheta(p.thetas[op.shape], op.bounds, box);
    case OpKind::kBox:
      // Axis-aligned rectangles (rooms, rectangular POIs): exact O(1).
      if (!op.bounds.Intersects(box)) return BoxClass::kOutside;
      if (op.bounds.Contains(box)) return BoxClass::kInside;
      return BoxClass::kBoundary;
    case OpKind::kPolygon:
      return ClassifyPolygon(*p.polygons[op.shape], box);
    case OpKind::kNode:
      return p.nodes[op.shape]->Classify(box);
    default:
      return BoxClass::kOutside;  // kEmpty
  }
}

bool LeafContains(const Program& p, const Op& op, Point q) {
  switch (op.kind) {
    case OpKind::kCircle:
      return p.circles[op.shape].Contains(q);
    case OpKind::kRing:
      return p.rings[op.shape].Contains(q);
    case OpKind::kTheta:
      return p.thetas[op.shape].Contains(q);
    case OpKind::kBox:
      return op.bounds.Contains(q);
    case OpKind::kPolygon:
      return p.polygons[op.shape]->Contains(q);
    case OpKind::kNode:
      return p.nodes[op.shape]->Contains(q);
    default:
      return false;  // kEmpty
  }
}

// One recursive walk of a listing against a box.
class Classifier {
 public:
  Classifier(const Program& program, const Step* listing, BoxClass* record,
             int64_t* leaf_tests)
      : program_(program),
        listing_(listing),
        record_(record),
        leaf_tests_(leaf_tests) {}

  BoxClass Run(uint32_t at, const Box& box) {
    const Step step = listing_[at];
    const Op& op = program_.ops[step.op];
    BoxClass c;
    switch (op.kind) {
      case OpKind::kAny:
        c = BoxClass::kOutside;
        if (!op.bounds.Intersects(box)) break;
        // Uncertainty regions are unions of many *localized* pieces (one
        // per trajectory ellipse); each child's bounds skip the rest.
        for (uint32_t child = at + 1; child < at + step.size;
             child += listing_[child].size) {
          if (!program_.ops[listing_[child].op].bounds.Intersects(box)) {
            continue;
          }
          const BoxClass cc = Run(child, box);
          if (cc == BoxClass::kInside) {
            c = BoxClass::kInside;
            break;
          }
          if (cc == BoxClass::kBoundary) c = BoxClass::kBoundary;
        }
        break;
      case OpKind::kAll:
        c = BoxClass::kInside;
        for (uint32_t child = at + 1; child < at + step.size;
             child += listing_[child].size) {
          const BoxClass cc = Run(child, box);
          if (cc == BoxClass::kOutside) {
            c = BoxClass::kOutside;
            break;
          }
          if (cc == BoxClass::kBoundary) c = BoxClass::kBoundary;
        }
        break;
      case OpKind::kNot:
        c = Flip(Run(at + 1, box));
        break;
      default:
        ++*leaf_tests_;
        c = ClassifyLeaf(program_, op, box);
        break;
    }
    if (record_ != nullptr) record_[at] = c;
    return c;
  }

 private:
  const Program& program_;
  const Step* listing_;
  BoxClass* record_;
  int64_t* leaf_tests_;
};

// One recursive walk of a classified listing that copies what stays
// undecided.
class Pruner {
 public:
  Pruner(const Program& program, const Step* listing, const BoxClass* record,
         const Box& box, std::vector<Step>* out)
      : program_(program),
        listing_(listing),
        record_(record),
        box_(box),
        out_(out) {}

  // `collapsible`: the parent does not cull this entry by its bounds, so
  // an All left with one child may be replaced by that child.
  void Run(uint32_t at, bool collapsible) {
    const Step step = listing_[at];
    const OpKind kind = program_.ops[step.op].kind;
    if (record_[at] != BoxClass::kBoundary || IsLeaf(kind)) {
      // A leaf, or settled (its walk may have stopped early, leaving its
      // children's records stale): keep it whole.
      out_->insert(out_->end(), listing_ + at, listing_ + at + step.size);
      return;
    }
    if (kind == OpKind::kAll && collapsible) {
      uint32_t kept = 0;
      uint32_t only = 0;
      for (uint32_t child = at + 1; child < at + step.size;
           child += listing_[child].size) {
        if (!DropFromAll(child)) {
          ++kept;
          only = child;
        }
      }
      if (kept == 1) {
        Run(only, true);
        return;
      }
    }
    const size_t head = out_->size();
    out_->push_back(step);
    for (uint32_t child = at + 1; child < at + step.size;
         child += listing_[child].size) {
      if (kind == OpKind::kAny) {
        if (!DropFromAny(child)) Run(child, false);
      } else if (kind == OpKind::kAll) {
        if (!DropFromAll(child)) Run(child, true);
      } else {  // kNot
        Run(child, true);
      }
    }
    (*out_)[head].size = static_cast<uint32_t>(out_->size() - head);
  }

 private:
  bool Prunable(uint32_t at) const {
    return program_.ops[listing_[at].op].prunable;
  }
  // A union child outside its bounds stays culled on every sub-box,
  // whatever its kind; a monotone one classified outside stays outside.
  bool DropFromAny(uint32_t child) const {
    return !program_.ops[listing_[child].op].bounds.Intersects(box_) ||
           (Prunable(child) && record_[child] == BoxClass::kOutside);
  }
  bool DropFromAll(uint32_t child) const {
    return Prunable(child) && record_[child] == BoxClass::kInside;
  }

  const Program& program_;
  const Step* listing_;
  const BoxClass* record_;
  const Box& box_;
  std::vector<Step>* out_;
};

bool ProgramContains(const Program& p, uint32_t at, Point q) {
  const Step step = p.steps[at];
  const Op& op = p.ops[step.op];
  switch (op.kind) {
    case OpKind::kAny:
      if (!op.bounds.Contains(q)) return false;
      for (uint32_t child = at + 1; child < at + step.size;
           child += p.steps[child].size) {
        if (p.ops[p.steps[child].op].bounds.Contains(q) &&
            ProgramContains(p, child, q)) {
          return true;
        }
      }
      return false;
    case OpKind::kAll:
      for (uint32_t child = at + 1; child < at + step.size;
           child += p.steps[child].size) {
        if (!ProgramContains(p, child, q)) return false;
      }
      return true;
    case OpKind::kNot:
      return !ProgramContains(p, at + 1, q);
    default:
      return LeafContains(p, op, q);
  }
}

Status CheckLeaf(const Program& p, const Op& op) {
  switch (op.kind) {
    case OpKind::kCircle: {
      const Circle& c = p.circles[op.shape];
      if (!FinitePoint(c.center) || !std::isfinite(c.radius) ||
          c.radius <= 0.0) {
        return Status::Internal("circle op with bad center/radius");
      }
      return Status::OK();
    }
    case OpKind::kRing: {
      const Ring& r = p.rings[op.shape];
      if (!FinitePoint(r.center) || !std::isfinite(r.outer_radius) ||
          r.inner_radius < 0.0 || !(r.inner_radius < r.outer_radius)) {
        return Status::Internal("ring op with bad radii");
      }
      return Status::OK();
    }
    case OpKind::kTheta: {
      const ExtendedEllipse& e = p.thetas[op.shape];
      if (!FinitePoint(e.disk_a().center) ||
          !FinitePoint(e.disk_b().center) ||
          !std::isfinite(e.disk_a().radius) ||
          !std::isfinite(e.disk_b().radius) || e.disk_a().radius < 0.0 ||
          e.disk_b().radius < 0.0 || !std::isfinite(e.max_travel()) ||
          e.max_travel() < 0.0) {
        return Status::Internal("theta op with bad ellipse parameters");
      }
      // The min/max sum-distance pair must bracket for any probe box; the
      // classifier's correctness rests on it. Tolerance scales with the
      // magnitude so rounding at extreme coordinates cannot trip it.
      if (!op.bounds.Empty()) {
        const double min_sum = e.MinSumDistance(op.bounds);
        const double max_sum = e.MaxSumDistance(op.bounds);
        if (min_sum > max_sum + 1e-9 * std::max(1.0, std::abs(max_sum))) {
          return Status::Internal("theta op with inverted sum distances");
        }
      }
      return Status::OK();
    }
    case OpKind::kBox: {
      const Box& b = op.bounds;
      if (!b.Empty() && (!std::isfinite(b.min_x) || !std::isfinite(b.min_y) ||
                         !std::isfinite(b.max_x) || !std::isfinite(b.max_y))) {
        return Status::Internal("box op with infinite extent");
      }
      return Status::OK();
    }
    case OpKind::kPolygon:
      return p.polygons[op.shape]->CheckInvariants();
    case OpKind::kNode:
      return p.nodes[op.shape]->CheckInvariants();
    default:
      return Status::OK();
  }
}

// The size of the shape table ops of `kind` index; 1 for the kinds
// without one, whose `shape` stays 0.
size_t ShapeCount(const Program& p, OpKind kind) {
  switch (kind) {
    case OpKind::kCircle:
      return p.circles.size();
    case OpKind::kRing:
      return p.rings.size();
    case OpKind::kTheta:
      return p.thetas.size();
    case OpKind::kPolygon:
      return p.polygons.size();
    case OpKind::kNode:
      return p.nodes.size();
    default:
      return 1;
  }
}

// Builds a program bottom-up: composites are opened before and closed
// after their children, which are whole programs copied in.
class Builder {
 public:
  Builder() : p_(std::make_shared<Program>()) {}

  Program& program() { return *p_; }

  // Finishes a one-leaf program whose shape, if any, is already in its
  // table.
  std::shared_ptr<const Program> Leaf(OpKind kind, const Box& bounds) {
    const bool monotone = kind != OpKind::kPolygon && kind != OpKind::kNode;
    Push(Op{kind, monotone, 0, bounds});
    return std::move(p_);
  }

  uint32_t Open(OpKind kind, const Box& bounds) {
    Push(Op{kind, true, 0, bounds});
    return static_cast<uint32_t>(p_->steps.size() - 1);
  }

  void Close(uint32_t at) {
    Step& step = p_->steps[at];
    step.size = static_cast<uint32_t>(p_->steps.size() - at);
    Op& op = p_->ops[step.op];
    for (uint32_t child = at + 1; child < at + step.size;
         child += p_->steps[child].size) {
      op.prunable = op.prunable && p_->ops[child].prunable;
    }
  }

  // Appends `src` as one child of a `parent` op, or as its children when
  // its root is of the same kind: All under All and Any under Any denote
  // the same set (Not under Not does not).
  void Append(const Program& src, OpKind parent) {
    const OpKind root = src.ops[0].kind;
    const uint32_t first = root == parent && root != OpKind::kNot ? 1 : 0;
    const uint32_t shift = static_cast<uint32_t>(p_->ops.size()) - first;
    for (uint32_t i = first; i < src.ops.size(); ++i) {
      Op op = src.ops[i];
      if (HasShape(op.kind)) {
        op.shape += static_cast<uint32_t>(ShapeCount(*p_, op.kind));
      }
      p_->ops.push_back(op);
      p_->steps.push_back(Step{i + shift, src.steps[i].size});
    }
    Extend(&p_->circles, src.circles);
    Extend(&p_->rings, src.rings);
    Extend(&p_->thetas, src.thetas);
    Extend(&p_->polygons, src.polygons);
    Extend(&p_->nodes, src.nodes);
  }

  std::shared_ptr<const Program> Finish() { return std::move(p_); }

 private:
  template <typename T>
  static void Extend(std::vector<T>* to, const std::vector<T>& from) {
    to->insert(to->end(), from.begin(), from.end());
  }

  void Push(const Op& op) {
    p_->steps.push_back(Step{static_cast<uint32_t>(p_->ops.size()), 1});
    p_->ops.push_back(op);
  }

  std::shared_ptr<Program> p_;
};

}  // namespace

BoxClass ClassifyListing(const Program& program, const Step* listing,
                         const Box& box, BoxClass* record,
                         int64_t* leaf_tests) {
  return Classifier(program, listing, record, leaf_tests).Run(0, box);
}

void PruneListing(const Program& program, const Step* listing,
                  const BoxClass* record, const Box& box,
                  std::vector<Step>* out) {
  if (record[0] == BoxClass::kInside && program.ops[listing[0].op].prunable) {
    return;
  }
  Pruner(program, listing, record, box, out).Run(0, true);
}

}  // namespace region_internal

using region_internal::Builder;
using region_internal::OpKind;
using region_internal::Program;

namespace {

const std::shared_ptr<const Program>& EmptyProgram() {
  static const auto* kEmpty = new std::shared_ptr<const Program>(
      Builder().Leaf(OpKind::kEmpty, Box{}));
  return *kEmpty;
}

}  // namespace

Region::Region() : program_(EmptyProgram()) {}

Region::Region(std::shared_ptr<const Program> program)
    : program_(std::move(program)) {}

Region Region::Make(const Circle& c) {
  if (c.radius <= 0.0) return Region();
  Builder b;
  b.program().circles.push_back(c);
  return Region(b.Leaf(OpKind::kCircle, c.Bounds()));
}

Region Region::Make(const Ring& r) {
  if (r.outer_radius <= 0.0 || r.outer_radius < r.inner_radius) {
    return Region();
  }
  Builder b;
  b.program().rings.push_back(r);
  return Region(b.Leaf(OpKind::kRing, r.Bounds()));
}

Region Region::Make(const ExtendedEllipse& e) {
  if (e.Bounds().Empty()) return Region();
  Builder b;
  b.program().thetas.push_back(e);
  return Region(b.Leaf(OpKind::kTheta, e.Bounds()));
}

Region Region::Make(const Polygon& p) {
  if (p.IsAxisAlignedRectangle()) {
    return Region(Builder().Leaf(OpKind::kBox, p.Bounds()));
  }
  Builder b;
  b.program().polygons.push_back(std::make_shared<const Polygon>(p));
  return Region(b.Leaf(OpKind::kPolygon, p.Bounds()));
}

Region Region::Make(const Box& box) {
  if (box.Empty()) return Region();
  return Region(Builder().Leaf(OpKind::kBox, box));
}

Region Region::FromNode(std::shared_ptr<const region_internal::Node> node) {
  INDOORFLOW_CHECK(node != nullptr);
  const Box bounds = node->Bounds();
  Builder b;
  b.program().nodes.push_back(std::move(node));
  return Region(b.Leaf(OpKind::kNode, bounds));
}

Region Region::Intersect(Region a, Region b) {
  if (a.IsEmpty() || b.IsEmpty()) return Region();
  Builder builder;
  const uint32_t all = builder.Open(
      OpKind::kAll, indoorflow::Intersection(a.Bounds(), b.Bounds()));
  builder.Append(a.program(), OpKind::kAll);
  builder.Append(b.program(), OpKind::kAll);
  builder.Close(all);
  return Region(builder.Finish());
}

Region Region::Union(Region a, Region b) {
  std::vector<Region> parts;
  parts.push_back(std::move(a));
  parts.push_back(std::move(b));
  return Union(std::move(parts));
}

Region Region::Union(std::vector<Region> parts) {
  std::erase_if(parts, [](const Region& r) { return r.IsEmpty(); });
  if (parts.empty()) return Region();
  if (parts.size() == 1) return std::move(parts[0]);
  Box bounds;
  for (const Region& r : parts) bounds.ExpandToInclude(r.Bounds());
  Builder builder;
  const uint32_t any = builder.Open(OpKind::kAny, bounds);
  for (const Region& r : parts) builder.Append(r.program(), OpKind::kAny);
  builder.Close(any);
  return Region(builder.Finish());
}

Region Region::Subtract(Region a, Region b) {
  if (a.IsEmpty()) return Region();
  if (b.IsEmpty()) return a;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Builder builder;
  const uint32_t all = builder.Open(OpKind::kAll, a.Bounds());
  builder.Append(a.program(), OpKind::kAll);
  // The complement is unbounded. Not only ever sits under All (or, pruned,
  // under another Not or alone), none of which cull by bounds.
  const uint32_t negation =
      builder.Open(OpKind::kNot, Box{-kInf, -kInf, kInf, kInf});
  builder.Append(b.program(), OpKind::kNot);
  builder.Close(negation);
  builder.Close(all);
  return Region(builder.Finish());
}

bool Region::IsEmpty() const { return Bounds().Empty(); }

bool Region::Contains(Point p) const {
  return region_internal::ProgramContains(*program_, 0, p);
}

Box Region::Bounds() const { return program_->ops[0].bounds; }

BoxClass Region::Classify(const Box& box) const {
  int64_t leaf_tests = 0;
  return region_internal::ClassifyListing(*program_, program_->steps.data(),
                                          box, nullptr, &leaf_tests);
}

size_t Region::ApproxBytes() const {
  const Program& p = *program_;
  size_t bytes = sizeof(Program) + p.ops.capacity() * sizeof(p.ops[0]) +
                 p.steps.capacity() * sizeof(p.steps[0]) +
                 p.circles.capacity() * sizeof(Circle) +
                 p.rings.capacity() * sizeof(Ring) +
                 p.thetas.capacity() * sizeof(ExtendedEllipse);
  for (const auto& polygon : p.polygons) {
    bytes += sizeof(Polygon) + polygon->size() * sizeof(Point);
  }
  for (const auto& node : p.nodes) bytes += node->ApproxBytes();
  return bytes;
}

const Circle* Region::AsCircle() const {
  const region_internal::Op& root = program_->ops[0];
  return root.kind == OpKind::kCircle ? &program_->circles[root.shape]
                                      : nullptr;
}

const Ring* Region::AsRing() const {
  const region_internal::Op& root = program_->ops[0];
  return root.kind == OpKind::kRing ? &program_->rings[root.shape] : nullptr;
}

const Box* Region::AsBox() const {
  const region_internal::Op& root = program_->ops[0];
  return root.kind == OpKind::kBox ? &root.bounds : nullptr;
}

Status Region::CheckInvariants() const {
  if (program_ == nullptr) return Status::Internal("region with null program");
  const Program& p = *program_;
  if (p.ops.empty() || p.steps.size() != p.ops.size() ||
      p.steps[0].size != p.ops.size()) {
    return Status::Internal("region program with a bad listing");
  }
  for (uint32_t i = 0; i < p.ops.size(); ++i) {
    const region_internal::Step step = p.steps[i];
    const region_internal::Op& op = p.ops[i];
    if (step.op != i || step.size == 0 || step.size > p.ops.size() - i) {
      return Status::Internal("region program with a bad step");
    }
    if (region_internal::NanBox(op.bounds)) {
      return Status::Internal("region op with NaN bounds");
    }
    if (region_internal::IsLeaf(op.kind)) {
      if (step.size != 1 ||
          op.shape >= region_internal::ShapeCount(p, op.kind)) {
        return Status::Internal("region leaf op with a bad shape");
      }
      INDOORFLOW_RETURN_IF_ERROR(region_internal::CheckLeaf(p, op));
      continue;
    }
    // The children must tile the composite's span exactly.
    uint32_t children = 0;
    bool prunable = true;
    uint32_t child = i + 1;
    for (; child < i + step.size; child += p.steps[child].size) {
      ++children;
      const region_internal::Op& c = p.ops[child];
      prunable = prunable && c.prunable;
      // The union's bounds must cover every child's, or Contains() would
      // wrongly cull points of that child.
      if (op.kind == OpKind::kAny && !c.bounds.Empty() &&
          !op.bounds.Contains(c.bounds)) {
        return Status::Internal("union op bounds miss a child");
      }
    }
    if (child != i + step.size || children == 0 ||
        (op.kind == OpKind::kNot && children != 1)) {
      return Status::Internal("composite op with bad children");
    }
    if (op.prunable != prunable) {
      return Status::Internal("composite op with a wrong prunable flag");
    }
  }
  return Status::OK();
}

}  // namespace indoorflow
