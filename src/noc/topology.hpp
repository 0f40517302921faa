// Topology as a first-class connection graph (ROADMAP item 2).
//
// A Topology describes which router ports connect to which — a node/port
// port-pair table — plus the per-topology routing function and the exact
// graph distance. Four families are supported:
//
//   mesh        the paper's w x h 2D mesh: ports {local, N, E, S, W},
//               boundary ports unwired. Matches the original hard-wired
//               Network loops bit for bit.
//   torus       the same grid with wrap links in both dimensions.
//               Dimension-ordered routing picks the shorter way around
//               each ring; deadlock on the rings is broken with dateline
//               virtual channels (each class's VC range is split into a
//               pre-wrap and a post-wrap half, see RouteStep::vc_half).
//   cmesh       concentrated mesh: 4 tiles (SMs/MCs) share one router, so
//               a w x h tile grid becomes a (w/2) x (h/2) router grid with
//               ports {local0..local3, N, E, S, W}. XY/YX routing on the
//               router grid; no wrap links, so no datelines.
//   circulant   ring circulant C(N; s1, s2) (Romanov 2019): N routers in a
//               ring, each also linked to the routers ±s1 and ±s2 away.
//               Ports {local, +s1, -s1, +s2, -s2}. Routing decomposes the
//               ring delta into s1/s2 steps via a shortest-path table and
//               crosses each direction's numeric wrap at most once, so the
//               same dateline-VC scheme applies.
//
// The tile grid (placement.hpp's TilePlan) is always the full w x h
// node-id space: SMs/MCs/NICs are per tile on every topology, and the
// topology maps tiles onto routers (identity except for cmesh, which
// concentrates 2x2 tile blocks).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/routing.hpp"

namespace gnoc {

template <typename E>
class EnumRegistry;

/// The supported topology families.
enum class TopologyKind : std::uint8_t {
  kMesh = 0,
  kTorus = 1,
  kCMesh = 2,
  kCirculant = 3,
};

/// The name/alias table behind TopologyName and ParseTopology; flag
/// registration uses its canonical names directly.
const EnumRegistry<TopologyKind>& TopologyRegistry();

/// Human readable name ("mesh", "torus", "cmesh", "circulant").
const char* TopologyName(TopologyKind k);

/// Parses "mesh" / "torus" / "cmesh" / "circulant" (case-insensitive;
/// aliases like "concentrated" accepted). Throws std::invalid_argument
/// on unknown names.
TopologyKind ParseTopology(const std::string& name);

/// One routing decision: the output port to take at a router, and — on
/// topologies with wrap links — which dateline half of the class's VC
/// range the hop must allocate from (-1: unrestricted, the mesh/cmesh
/// value; 0: the pre-wrap half; 1: the post-wrap half). A port below
/// Topology::num_local_ports() means "eject here".
struct RouteStep {
  int port = 0;
  std::int8_t vc_half = -1;

  friend bool operator==(const RouteStep&, const RouteStep&) = default;
};

/// Exact graph distance split by dimension (mesh/torus: x and y hops;
/// circulant: s1 and s2 steps; cmesh: router-grid x and y hops).
struct DistanceParts {
  int d1 = 0;
  int d2 = 0;

  int total() const { return d1 + d2; }
};

/// An immutable router/port connection graph plus its routing function.
class Topology {
 public:
  /// The paper's w x h mesh (w, h >= 2).
  static Topology Mesh(int width, int height);
  /// w x h torus with wrap links (w, h >= 2). Needs dateline VCs: every
  /// traffic class must have >= 2 VCs available on every link.
  static Topology Torus(int width, int height);
  /// Concentrated mesh over a w x h tile grid; w and h must be even and
  /// >= 2.
  static Topology CMesh(int width, int height);
  /// Ring circulant C(N; s1, s2) over N = width * height tiles with
  /// 1 <= s1 < s2 < N. s2 == 0 picks a near-sqrt(N) chord. Throws when the
  /// steps do not connect the graph or a shortest path would cross a
  /// direction's wrap more than once (breaking the dateline scheme).
  static Topology Circulant(int num_tiles, int s1, int s2);

  /// Dispatches on `kind`. Circulant uses width * height tiles.
  static Topology Make(TopologyKind kind, int width, int height,
                       int circulant_s1 = 1, int circulant_s2 = 0);

  TopologyKind kind() const { return kind_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int num_tiles() const { return width_ * height_; }
  int num_routers() const { return num_routers_; }
  /// Ports per router, including the local (NIC) ports.
  int radix() const { return radix_; }
  /// Leading ports [0, num_local_ports) eject to NICs.
  int num_local_ports() const { return num_local_ports_; }
  int circulant_s1() const { return s1_; }
  int circulant_s2() const { return s2_; }
  /// True when routing uses dateline VC halves (torus, circulant): every
  /// class then needs >= 2 VCs on every link it can use.
  bool has_datelines() const {
    return kind_ == TopologyKind::kTorus || kind_ == TopologyKind::kCirculant;
  }

  // --- tile <-> router mapping ---

  int RouterOf(NodeId tile) const;
  /// The local port of `tile` at RouterOf(tile).
  int LocalPortOf(NodeId tile) const;
  /// The tile attached to `router`'s local port `local_port`.
  NodeId TileAt(int router, int local_port) const;
  /// The router's own grid coordinate (router grid for cmesh, tile grid
  /// otherwise; circulant routers use the row-major tile grid labels).
  Coord RouterCoord(int router) const;

  // --- connection graph (the port-pair table) ---

  /// Peer router reached through `port`, or -1 (unwired boundary ports and
  /// all local ports).
  int Peer(int router, int port) const {
    return peer_[Index(router, port)];
  }
  /// The peer's input port for the link leaving through `port` (-1 when
  /// unwired). Symmetric: Peer/PeerPort of the returned pair lead back.
  int PeerPort(int router, int port) const {
    return peer_port_[Index(router, port)];
  }
  bool IsWired(int router, int port) const { return Peer(router, port) >= 0; }

  /// Stable label for audit/telemetry entity names. Matches PortName on
  /// mesh/torus ("local", "north", ...); cmesh: "local0".."local3" +
  /// compass; circulant: "local", "+s1", "-s1", "+s2", "-s2".
  std::string PortLabel(int port) const;

  // --- routing & distance ---

  /// The routing decision for a packet of class `cls` at `router` headed
  /// for `dst_tile` under `algo` (dimension order applies per topology:
  /// torus rows/columns, cmesh router grid, circulant s1-then-s2 chords
  /// for kXFirst and s2-then-s1 for kYFirst).
  RouteStep Route(RoutingAlgorithm algo, TrafficClass cls, int router,
                  NodeId dst_tile) const;

  /// The routers a packet visits from src to dst tile, inclusive.
  std::vector<int> TraceRouters(RoutingAlgorithm algo, TrafficClass cls,
                                NodeId src_tile, NodeId dst_tile) const;

  /// Exact router-to-router graph distance between two tiles' routers,
  /// split by dimension. Routes under every RoutingAlgorithm are minimal,
  /// so TraceRouters' hop count equals DistanceSplit(...).total().
  DistanceParts DistanceSplit(NodeId src_tile, NodeId dst_tile) const;
  int Distance(NodeId src_tile, NodeId dst_tile) const {
    return DistanceSplit(src_tile, dst_tile).total();
  }

 private:
  Topology() = default;

  std::size_t Index(int router, int port) const {
    return static_cast<std::size_t>(router * radix_ + port);
  }
  void AllocateTable();
  void Connect(int router, int port, int peer, int peer_port);
  /// Shortest-path step tables for the circulant (one per dimension
  /// order); validates connectivity and the <= 1 wrap-per-direction
  /// dateline precondition.
  void BuildCirculantPlans();
  RouteStep CirculantStep(DimensionOrder order, int delta) const;

  TopologyKind kind_ = TopologyKind::kMesh;
  int width_ = 0;
  int height_ = 0;
  int num_routers_ = 0;
  int radix_ = 0;
  int num_local_ports_ = 1;
  int s1_ = 0;  ///< circulant steps (0 otherwise)
  int s2_ = 0;
  std::vector<int> peer_;       // [router * radix + port], -1 = unwired
  std::vector<int> peer_port_;  // matching input port at the peer
  /// Circulant: per ring delta, the signed number of s1/s2 steps a
  /// shortest path takes, for each dimension order. Built by BFS over the
  /// delta space, so the per-hop greedy walk is self-consistent.
  std::vector<std::int16_t> plan_a_[2];  // signed s1 steps, [order][delta]
  std::vector<std::int16_t> plan_b_[2];  // signed s2 steps
};

}  // namespace gnoc
