#include "noc/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

// Circulant port numbering: 0 = local, then one port per signed step.
constexpr int kCircPlusS1 = 1;
constexpr int kCircMinusS1 = 2;
constexpr int kCircPlusS2 = 3;
constexpr int kCircMinusS2 = 4;

// CMesh port numbering: 4 local ports, then the compass in the same
// relative order the mesh uses (N, E, S, W).
constexpr int kCMeshLocalPorts = 4;
constexpr int kCMeshNorth = 4;
constexpr int kCMeshEast = 5;
constexpr int kCMeshSouth = 6;
constexpr int kCMeshWest = 7;

}  // namespace

const EnumRegistry<TopologyKind>& TopologyRegistry() {
  static const EnumRegistry<TopologyKind> kRegistry{
      "topology",
      {
          {"mesh", TopologyKind::kMesh},
          {"torus", TopologyKind::kTorus},
          {"cmesh", TopologyKind::kCMesh},
          {"concentrated", TopologyKind::kCMesh},
          {"concentrated-mesh", TopologyKind::kCMesh},
          {"circulant", TopologyKind::kCirculant},
          {"ring-circulant", TopologyKind::kCirculant},
      }};
  return kRegistry;
}

const char* TopologyName(TopologyKind k) { return TopologyRegistry().Name(k); }

TopologyKind ParseTopology(const std::string& name) {
  return TopologyRegistry().Parse(name);
}

void Topology::AllocateTable() {
  peer_.assign(static_cast<std::size_t>(num_routers_ * radix_), -1);
  peer_port_.assign(static_cast<std::size_t>(num_routers_ * radix_), -1);
}

void Topology::Connect(int router, int port, int peer, int peer_port) {
  peer_[Index(router, port)] = peer;
  peer_port_[Index(router, port)] = peer_port;
  // Port-pair symmetry: registering a->b also registers b->a.
  peer_[Index(peer, peer_port)] = router;
  peer_port_[Index(peer, peer_port)] = port;
}

Topology Topology::Mesh(int width, int height) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("mesh needs width, height >= 2");
  }
  Topology t;
  t.kind_ = TopologyKind::kMesh;
  t.width_ = width;
  t.height_ = height;
  t.num_routers_ = width * height;
  t.radix_ = kNumPorts;
  t.num_local_ports_ = 1;
  t.AllocateTable();
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int r = y * width + x;
      // East and South cover every undirected pair once; Connect fills in
      // the mirrored West/North entries.
      if (x + 1 < width) {
        t.Connect(r, PortIndex(Port::kEast), r + 1, PortIndex(Port::kWest));
      }
      if (y + 1 < height) {
        t.Connect(r, PortIndex(Port::kSouth), r + width,
                  PortIndex(Port::kNorth));
      }
    }
  }
  return t;
}

Topology Topology::Torus(int width, int height) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("torus needs width, height >= 2");
  }
  Topology t;
  t.kind_ = TopologyKind::kTorus;
  t.width_ = width;
  t.height_ = height;
  t.num_routers_ = width * height;
  t.radix_ = kNumPorts;
  t.num_local_ports_ = 1;
  t.AllocateTable();
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int r = y * width + x;
      const int east = y * width + (x + 1) % width;
      const int south = ((y + 1) % height) * width + x;
      t.Connect(r, PortIndex(Port::kEast), east, PortIndex(Port::kWest));
      t.Connect(r, PortIndex(Port::kSouth), south, PortIndex(Port::kNorth));
    }
  }
  return t;
}

Topology Topology::CMesh(int width, int height) {
  if (width < 2 || height < 2 || width % 2 != 0 || height % 2 != 0) {
    throw std::invalid_argument("cmesh needs even width, height >= 2");
  }
  Topology t;
  t.kind_ = TopologyKind::kCMesh;
  t.width_ = width;
  t.height_ = height;
  const int rw = width / 2;
  const int rh = height / 2;
  t.num_routers_ = rw * rh;
  t.radix_ = kCMeshLocalPorts + 4;
  t.num_local_ports_ = kCMeshLocalPorts;
  t.AllocateTable();
  for (int ry = 0; ry < rh; ++ry) {
    for (int rx = 0; rx < rw; ++rx) {
      const int r = ry * rw + rx;
      if (rx + 1 < rw) t.Connect(r, kCMeshEast, r + 1, kCMeshWest);
      if (ry + 1 < rh) t.Connect(r, kCMeshSouth, r + rw, kCMeshNorth);
    }
  }
  return t;
}

Topology Topology::Circulant(int num_tiles, int s1, int s2) {
  const int n = num_tiles;
  if (n < 3) throw std::invalid_argument("circulant needs >= 3 nodes");
  if (s2 == 0) {
    // Near-sqrt chord: the classic diameter-minimizing choice.
    s2 = std::max(2, static_cast<int>(std::lround(std::sqrt(
                         static_cast<double>(n)))));
    if (s2 <= s1) s2 = s1 + 1;
  }
  if (s1 < 1 || s1 >= s2 || s2 >= n) {
    throw std::invalid_argument(
        "circulant needs 1 <= s1 < s2 < N (got s1=" + std::to_string(s1) +
        ", s2=" + std::to_string(s2) + ", N=" + std::to_string(n) + ")");
  }
  Topology t;
  t.kind_ = TopologyKind::kCirculant;
  // Tiles keep their row-major w x h labels so TilePlan placements apply
  // unchanged; the ring order is the row-major node id.
  t.width_ = n;
  t.height_ = 1;
  t.num_routers_ = n;
  t.radix_ = 5;
  t.num_local_ports_ = 1;
  t.s1_ = s1;
  t.s2_ = s2;
  t.AllocateTable();
  for (int r = 0; r < n; ++r) {
    t.Connect(r, kCircPlusS1, (r + s1) % n, kCircMinusS1);
    t.Connect(r, kCircPlusS2, (r + s2) % n, kCircMinusS2);
  }
  t.BuildCirculantPlans();
  return t;
}

Topology Topology::Make(TopologyKind kind, int width, int height,
                        int circulant_s1, int circulant_s2) {
  switch (kind) {
    case TopologyKind::kMesh: return Mesh(width, height);
    case TopologyKind::kTorus: return Torus(width, height);
    case TopologyKind::kCMesh: return CMesh(width, height);
    case TopologyKind::kCirculant: {
      Topology t = Circulant(width * height, circulant_s1, circulant_s2);
      // Keep the caller's tile grid so placements and coordinates match
      // the other topologies at the same node count.
      t.width_ = width;
      t.height_ = height;
      return t;
    }
  }
  throw std::invalid_argument("unknown topology kind");
}

void Topology::BuildCirculantPlans() {
  const int n = num_routers_;
  // BFS over the ring-delta space: dist[d] is the exact graph distance a
  // packet with remaining delta d still has to cover.
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  dist[0] = 0;
  std::deque<int> queue{0};
  const int steps[4] = {s1_, -s1_, s2_, -s2_};
  while (!queue.empty()) {
    const int d = queue.front();
    queue.pop_front();
    for (const int s : steps) {
      // A step of s reduces the remaining delta by s.
      const int next = ((d + s) % n + n) % n;
      if (dist[static_cast<std::size_t>(next)] < 0) {
        dist[static_cast<std::size_t>(next)] =
            dist[static_cast<std::size_t>(d)] + 1;
        queue.push_back(next);
      }
    }
  }
  for (int d = 0; d < n; ++d) {
    if (dist[static_cast<std::size_t>(d)] < 0) {
      throw std::invalid_argument(
          "circulant C(" + std::to_string(n) + "; " + std::to_string(s1_) +
          ", " + std::to_string(s2_) + ") is not connected");
    }
  }
  // Greedy descent with a fixed per-dimension-order step priority. Every
  // router recomputes its step from the same table, so the table IS the
  // routing function; the signed per-dimension step counts (plan_a/plan_b)
  // fall out of the same recursion.
  for (int order = 0; order < 2; ++order) {
    auto& a = plan_a_[order];
    auto& b = plan_b_[order];
    a.assign(static_cast<std::size_t>(n), 0);
    b.assign(static_cast<std::size_t>(n), 0);
    // First-dimension steps first: s1 chords for kXFirst, s2 for kYFirst.
    const int prio[4] = {order == 0 ? s1_ : s2_, order == 0 ? -s1_ : -s2_,
                         order == 0 ? s2_ : s1_, order == 0 ? -s2_ : -s1_};
    // Process deltas by increasing distance so the chosen step's remainder
    // is already planned.
    std::vector<int> by_dist(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) by_dist[static_cast<std::size_t>(d)] = d;
    std::stable_sort(by_dist.begin(), by_dist.end(), [&](int x, int y) {
      return dist[static_cast<std::size_t>(x)] <
             dist[static_cast<std::size_t>(y)];
    });
    for (const int d : by_dist) {
      if (d == 0) continue;
      int chosen = 0;
      for (const int s : prio) {
        const int rest = ((d - s) % n + n) % n;
        if (dist[static_cast<std::size_t>(rest)] ==
            dist[static_cast<std::size_t>(d)] - 1) {
          chosen = s;
          a[static_cast<std::size_t>(d)] = static_cast<std::int16_t>(
              a[static_cast<std::size_t>(rest)] +
              (s == s1_ ? 1 : s == -s1_ ? -1 : 0));
          b[static_cast<std::size_t>(d)] = static_cast<std::int16_t>(
              b[static_cast<std::size_t>(rest)] +
              (s == s2_ ? 1 : s == -s2_ ? -1 : 0));
          break;
        }
      }
      assert(chosen != 0 && "BFS distance must admit a descending step");
      (void)chosen;
    }
    // Dateline precondition: the walk must exhaust one dimension before
    // the other, keep a constant sign per dimension, and wrap each
    // direction's ring at most once (total displacement < N). The greedy
    // priority guarantees this for sane (N, s1, s2); verify rather than
    // trust the proof, and reject the configuration otherwise.
    for (int d = 1; d < n; ++d) {
      const int sa = a[static_cast<std::size_t>(d)];
      const int sb = b[static_cast<std::size_t>(d)];
      const bool displacement_ok =
          std::abs(sa) * s1_ < n && std::abs(sb) * s2_ < n;
      // Walk one hop and compare the remainder's plan: the first
      // dimension (per `order`) must shrink towards zero before the other
      // moves, with no sign flips.
      const int first = order == 0 ? sa : sb;
      const int second = order == 0 ? sb : sa;
      const int step = first != 0 ? (order == 0 ? (sa > 0 ? s1_ : -s1_)
                                                : (sb > 0 ? s2_ : -s2_))
                                  : (order == 0 ? (sb > 0 ? s2_ : -s2_)
                                                : (sa > 0 ? s1_ : -s1_));
      const int rest = ((d - step) % n + n) % n;
      const int ra = a[static_cast<std::size_t>(rest)];
      const int rb = b[static_cast<std::size_t>(rest)];
      const bool consistent =
          first != 0
              ? (order == 0 ? (ra == sa - (sa > 0 ? 1 : -1) && rb == sb)
                            : (rb == sb - (sb > 0 ? 1 : -1) && ra == sa))
              : (order == 0 ? (ra == 0 && rb == sb - (sb > 0 ? 1 : -1))
                            : (rb == 0 && ra == sa - (sa > 0 ? 1 : -1)));
      (void)second;
      if (!displacement_ok || !consistent) {
        throw std::invalid_argument(
            "circulant C(" + std::to_string(n) + "; " + std::to_string(s1_) +
            ", " + std::to_string(s2_) +
            ") breaks the dateline routing preconditions; choose different "
            "steps (s2 near sqrt(N) works)");
      }
    }
  }
}

int Topology::RouterOf(NodeId tile) const {
  assert(tile >= 0 && tile < num_tiles());
  if (kind_ != TopologyKind::kCMesh) return tile;
  const int x = tile % width_;
  const int y = tile / width_;
  return (y / 2) * (width_ / 2) + (x / 2);
}

int Topology::LocalPortOf(NodeId tile) const {
  assert(tile >= 0 && tile < num_tiles());
  if (kind_ != TopologyKind::kCMesh) return 0;
  const int x = tile % width_;
  const int y = tile / width_;
  return (y % 2) * 2 + (x % 2);
}

NodeId Topology::TileAt(int router, int local_port) const {
  assert(router >= 0 && router < num_routers_);
  assert(local_port >= 0 && local_port < num_local_ports_);
  if (kind_ != TopologyKind::kCMesh) return router;
  const int rw = width_ / 2;
  const int x = (router % rw) * 2 + (local_port % 2);
  const int y = (router / rw) * 2 + (local_port / 2);
  return y * width_ + x;
}

Coord Topology::RouterCoord(int router) const {
  assert(router >= 0 && router < num_routers_);
  if (kind_ == TopologyKind::kCMesh) {
    const int rw = width_ / 2;
    return Coord{router % rw, router / rw};
  }
  return Coord{router % width_, router / width_};
}

std::string Topology::PortLabel(int port) const {
  assert(port >= 0 && port < radix_);
  switch (kind_) {
    case TopologyKind::kMesh:
    case TopologyKind::kTorus:
      return PortName(static_cast<Port>(port));
    case TopologyKind::kCMesh:
      if (port < kCMeshLocalPorts) {
        return "local" + std::to_string(port);
      }
      switch (port) {
        case kCMeshNorth: return "north";
        case kCMeshEast: return "east";
        case kCMeshSouth: return "south";
        default: return "west";
      }
    case TopologyKind::kCirculant:
      switch (port) {
        case 0: return "local";
        case kCircPlusS1: return "+s1";
        case kCircMinusS1: return "-s1";
        case kCircPlusS2: return "+s2";
        default: return "-s2";
      }
  }
  return "?";
}

namespace {

/// One ring dimension's DOR decision: direction (+1/-1), hops remaining,
/// and the dateline half for the next hop. `pos` and `dst` are positions
/// on a ring of size `k`.
struct RingLeg {
  int dir = 0;    // 0 = dimension done
  int hops = 0;
  std::int8_t vc_half = -1;
};

RingLeg RingRoute(int pos, int dst, int k) {
  RingLeg leg;
  const int fwd = ((dst - pos) % k + k) % k;
  if (fwd == 0) return leg;
  if (2 * fwd <= k) {  // ties go the + way
    leg.dir = 1;
    leg.hops = fwd;
    // Pre-wrap half while the remaining path still crosses the numeric
    // wrap; post-wrap half otherwise. VC-half 0 dependency chains end at
    // the wrap link and half 1 never uses it, so neither half can close a
    // cycle around the ring.
    leg.vc_half = pos + fwd >= k ? 0 : 1;
  } else {
    leg.dir = -1;
    leg.hops = k - fwd;
    leg.vc_half = pos - leg.hops < 0 ? 0 : 1;
  }
  return leg;
}

/// DistanceSplit's mesh and cmesh case: x and y hops on the router grid.
DistanceParts MeshDistanceSplit(Coord src, Coord dst) {
  DistanceParts parts;
  parts.d1 = std::abs(dst.x - src.x);
  parts.d2 = std::abs(dst.y - src.y);
  return parts;
}

}  // namespace

RouteStep Topology::CirculantStep(DimensionOrder order, int delta) const {
  const int idx = order == DimensionOrder::kXFirst ? 0 : 1;
  const int a = plan_a_[idx][static_cast<std::size_t>(delta)];
  const int b = plan_b_[idx][static_cast<std::size_t>(delta)];
  const int n = num_routers_;
  // Position of the packet on the numeric ring is delta away from dst;
  // wrap tests only need the remaining displacement, computed from dst
  // backwards: the remaining path from `here` crosses the wrap iff
  // here + remaining-displacement leaves [0, n). Here we only know delta,
  // so the caller passes the real router; see Route().
  (void)n;
  RouteStep step;
  const bool first_dim_s1 = order == DimensionOrder::kXFirst;
  const int use_a = first_dim_s1 ? a : b;  // steps of the active dimension
  if (use_a != 0) {
    step.port = first_dim_s1 ? (a > 0 ? kCircPlusS1 : kCircMinusS1)
                             : (b > 0 ? kCircPlusS2 : kCircMinusS2);
  } else {
    const int other = first_dim_s1 ? b : a;
    assert(other != 0);
    step.port = first_dim_s1 ? (b > 0 ? kCircPlusS2 : kCircMinusS2)
                             : (a > 0 ? kCircPlusS1 : kCircMinusS1);
    (void)other;
  }
  return step;
}

RouteStep Topology::Route(RoutingAlgorithm algo, TrafficClass cls, int router,
                          NodeId dst_tile) const {
  assert(router >= 0 && router < num_routers_);
  assert(dst_tile >= 0 && dst_tile < num_tiles());
  const DimensionOrder order = OrderFor(algo, cls);
  switch (kind_) {
    case TopologyKind::kMesh: {
      const Coord here = RouterCoord(router);
      const Coord dst{dst_tile % width_, dst_tile / width_};
      return RouteStep{PortIndex(ComputeOutputPort(algo, cls, here, dst)),
                       -1};
    }
    case TopologyKind::kTorus: {
      const Coord here = RouterCoord(router);
      const Coord dst{dst_tile % width_, dst_tile / width_};
      const RingLeg x = RingRoute(here.x, dst.x, width_);
      const RingLeg y = RingRoute(here.y, dst.y, height_);
      const bool go_x =
          x.dir != 0 && (order == DimensionOrder::kXFirst || y.dir == 0);
      if (go_x) {
        return RouteStep{PortIndex(x.dir > 0 ? Port::kEast : Port::kWest),
                         x.vc_half};
      }
      if (y.dir != 0) {
        return RouteStep{PortIndex(y.dir > 0 ? Port::kSouth : Port::kNorth),
                         y.vc_half};
      }
      return RouteStep{PortIndex(Port::kLocal), -1};
    }
    case TopologyKind::kCMesh: {
      const int dst_router = RouterOf(dst_tile);
      if (dst_router == router) {
        return RouteStep{LocalPortOf(dst_tile), -1};
      }
      const Coord here = RouterCoord(router);
      const Coord dst = RouterCoord(dst_router);
      const bool need_x = dst.x != here.x;
      const bool need_y = dst.y != here.y;
      const bool go_x =
          need_x && (order == DimensionOrder::kXFirst || !need_y);
      if (go_x) {
        return RouteStep{dst.x > here.x ? kCMeshEast : kCMeshWest, -1};
      }
      return RouteStep{dst.y > here.y ? kCMeshSouth : kCMeshNorth, -1};
    }
    case TopologyKind::kCirculant: {
      const int n = num_routers_;
      const int delta = ((dst_tile - router) % n + n) % n;
      if (delta == 0) return RouteStep{0, -1};
      RouteStep step = CirculantStep(order, delta);
      // Dateline half for the active dimension: does the remaining run of
      // same-direction steps from this router cross the numeric wrap?
      const int idx = order == DimensionOrder::kXFirst ? 0 : 1;
      const int a = plan_a_[idx][static_cast<std::size_t>(delta)];
      const int b = plan_b_[idx][static_cast<std::size_t>(delta)];
      int run = 0;      // signed steps remaining in the active dimension
      int stride = 0;   // step size of the active dimension
      if (step.port == kCircPlusS1 || step.port == kCircMinusS1) {
        run = a;
        stride = s1_;
      } else {
        run = b;
        stride = s2_;
      }
      const long long disp =
          static_cast<long long>(run) * static_cast<long long>(stride);
      const long long end = static_cast<long long>(router) + disp;
      step.vc_half = (end < 0 || end >= n) ? 0 : 1;
      return step;
    }
  }
  return RouteStep{0, -1};
}

std::vector<int> Topology::TraceRouters(RoutingAlgorithm algo,
                                        TrafficClass cls, NodeId src_tile,
                                        NodeId dst_tile) const {
  std::vector<int> out;
  int r = RouterOf(src_tile);
  out.push_back(r);
  const int dst_router = RouterOf(dst_tile);
  while (r != dst_router) {
    const RouteStep step = Route(algo, cls, r, dst_tile);
    assert(step.port >= num_local_ports_ && "route ejected short of dst");
    r = Peer(r, step.port);
    assert(r >= 0 && "route took an unwired port");
    out.push_back(r);
    assert(out.size() <= static_cast<std::size_t>(num_routers_ + 1) &&
           "routing loop");
  }
  return out;
}

DistanceParts Topology::DistanceSplit(NodeId src_tile, NodeId dst_tile) const {
  assert(src_tile >= 0 && src_tile < num_tiles());
  assert(dst_tile >= 0 && dst_tile < num_tiles());
  DistanceParts parts;
  switch (kind_) {
    case TopologyKind::kMesh:
      return MeshDistanceSplit(
          Coord{src_tile % width_, src_tile / width_},
          Coord{dst_tile % width_, dst_tile / width_});
    case TopologyKind::kTorus: {
      const Coord s{src_tile % width_, src_tile / width_};
      const Coord d{dst_tile % width_, dst_tile / width_};
      const int dx = std::abs(d.x - s.x);
      const int dy = std::abs(d.y - s.y);
      parts.d1 = std::min(dx, width_ - dx);
      parts.d2 = std::min(dy, height_ - dy);
      return parts;
    }
    case TopologyKind::kCMesh:
      return MeshDistanceSplit(RouterCoord(RouterOf(src_tile)),
                               RouterCoord(RouterOf(dst_tile)));
    case TopologyKind::kCirculant: {
      const int n = num_routers_;
      const int delta = ((dst_tile - src_tile) % n + n) % n;
      parts.d1 = std::abs(plan_a_[0][static_cast<std::size_t>(delta)]);
      parts.d2 = std::abs(plan_b_[0][static_cast<std::size_t>(delta)]);
      return parts;
    }
  }
  return parts;
}

}  // namespace gnoc
