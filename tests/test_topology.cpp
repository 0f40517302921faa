// Tests of the topology graph (noc/topology.hpp): construction invariants
// (port-pair symmetry, tile/router maps), routing reachability and
// minimality on all four families, the mesh distance against Manhattan,
// and audit-clean simulation of the dateline topologies under hotspot
// traffic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace gnoc {
namespace {

std::vector<Topology> SampleTopologies() {
  std::vector<Topology> out;
  out.push_back(Topology::Mesh(4, 4));
  out.push_back(Topology::Mesh(5, 3));
  out.push_back(Topology::Torus(4, 4));
  out.push_back(Topology::Torus(5, 3));
  out.push_back(Topology::CMesh(4, 4));
  out.push_back(Topology::CMesh(8, 8));
  out.push_back(Topology::Circulant(16, 1, 4));
  out.push_back(Topology::Circulant(15, 1, 0));  // near-sqrt default chord
  return out;
}

// --- construction invariants -----------------------------------------------

TEST(TopologyTest, PortPairsAreSymmetric) {
  for (const Topology& topo : SampleTopologies()) {
    for (int r = 0; r < topo.num_routers(); ++r) {
      for (int p = 0; p < topo.radix(); ++p) {
        if (p < topo.num_local_ports()) {
          EXPECT_FALSE(topo.IsWired(r, p))
              << TopologyName(topo.kind()) << " local port wired";
          continue;
        }
        if (!topo.IsWired(r, p)) continue;
        const int peer = topo.Peer(r, p);
        const int peer_port = topo.PeerPort(r, p);
        ASSERT_GE(peer, 0);
        ASSERT_LT(peer, topo.num_routers());
        // a->b implies b->a through the matching port pair.
        EXPECT_EQ(topo.Peer(peer, peer_port), r)
            << TopologyName(topo.kind()) << " r" << r << " port " << p;
        EXPECT_EQ(topo.PeerPort(peer, peer_port), p)
            << TopologyName(topo.kind()) << " r" << r << " port " << p;
      }
    }
  }
}

TEST(TopologyTest, TileRouterMapsRoundTrip) {
  for (const Topology& topo : SampleTopologies()) {
    std::set<std::pair<int, int>> seen;
    for (NodeId tile = 0; tile < topo.num_tiles(); ++tile) {
      const int r = topo.RouterOf(tile);
      const int lp = topo.LocalPortOf(tile);
      ASSERT_GE(r, 0);
      ASSERT_LT(r, topo.num_routers());
      ASSERT_GE(lp, 0);
      ASSERT_LT(lp, topo.num_local_ports());
      EXPECT_EQ(topo.TileAt(r, lp), tile) << TopologyName(topo.kind());
      // Each (router, local port) hosts exactly one tile.
      EXPECT_TRUE(seen.emplace(r, lp).second) << TopologyName(topo.kind());
    }
    EXPECT_EQ(static_cast<int>(seen.size()), topo.num_tiles());
  }
}

TEST(TopologyTest, ExpectedDegrees) {
  // Mesh corners keep 2 unwired compass ports; every torus/circulant port
  // is wired; the 4x4 cmesh is a 2x2 router grid of 4-local routers.
  const Topology mesh = Topology::Mesh(4, 4);
  EXPECT_EQ(mesh.radix(), 5);
  EXPECT_EQ(mesh.num_local_ports(), 1);
  int wired = 0;
  for (int p = 0; p < mesh.radix(); ++p) wired += mesh.IsWired(0, p) ? 1 : 0;
  EXPECT_EQ(wired, 2);  // corner router: east + south only

  const Topology torus = Topology::Torus(4, 4);
  for (int r = 0; r < torus.num_routers(); ++r) {
    for (int p = 1; p < torus.radix(); ++p) {
      EXPECT_TRUE(torus.IsWired(r, p)) << "torus r" << r << " port " << p;
    }
  }

  const Topology cmesh = Topology::CMesh(4, 4);
  EXPECT_EQ(cmesh.num_routers(), 4);
  EXPECT_EQ(cmesh.num_local_ports(), 4);
  EXPECT_EQ(cmesh.radix(), 8);
  EXPECT_EQ(cmesh.num_tiles(), 16);

  const Topology circ = Topology::Circulant(16, 1, 4);
  EXPECT_EQ(circ.radix(), 5);
  for (int r = 0; r < circ.num_routers(); ++r) {
    for (int p = 1; p < circ.radix(); ++p) {
      EXPECT_TRUE(circ.IsWired(r, p)) << "circulant r" << r << " port " << p;
    }
  }
}

TEST(TopologyTest, CirculantRejectsBadSteps) {
  // s1 == s2 and disconnected step sets must throw at construction.
  EXPECT_THROW(Topology::Circulant(16, 4, 4), std::invalid_argument);
  EXPECT_THROW(Topology::Circulant(16, 2, 4), std::invalid_argument);
  EXPECT_THROW(Topology::Circulant(16, 0, 4), std::invalid_argument);
}

TEST(TopologyTest, ParseAndNameRoundTrip) {
  for (TopologyKind k :
       {TopologyKind::kMesh, TopologyKind::kTorus, TopologyKind::kCMesh,
        TopologyKind::kCirculant}) {
    EXPECT_EQ(ParseTopology(TopologyName(k)), k);
  }
  EXPECT_EQ(ParseTopology("TORUS"), TopologyKind::kTorus);
  EXPECT_THROW(ParseTopology("tors"), std::invalid_argument);
}

// --- routing ---------------------------------------------------------------

TEST(TopologyTest, EveryNodeReachableUnderEveryRouting) {
  // TraceRouters must terminate for every (src, dst, algo, class) and —
  // since all implemented routings are minimal — visit exactly
  // Distance(src, dst) + 1 routers.
  for (const Topology& topo : SampleTopologies()) {
    for (RoutingAlgorithm algo :
         {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
          RoutingAlgorithm::kXYYX}) {
      for (TrafficClass cls :
           {TrafficClass::kRequest, TrafficClass::kReply}) {
        for (NodeId src = 0; src < topo.num_tiles(); ++src) {
          for (NodeId dst = 0; dst < topo.num_tiles(); ++dst) {
            const std::vector<int> path =
                topo.TraceRouters(algo, cls, src, dst);
            ASSERT_FALSE(path.empty());
            EXPECT_EQ(path.front(), topo.RouterOf(src));
            EXPECT_EQ(path.back(), topo.RouterOf(dst));
            EXPECT_EQ(static_cast<int>(path.size()),
                      topo.Distance(src, dst) + 1)
                << TopologyName(topo.kind()) << " " << RoutingName(algo)
                << " " << src << "->" << dst;
          }
        }
      }
    }
  }
}

TEST(TopologyTest, MeshDistanceMatchesRouteLength) {
  // The mesh distance (behind the analytic hop model) is the plain
  // Manhattan formula, and a route walks exactly that many hops.
  const Topology mesh = Topology::Mesh(5, 3);
  const auto xy = RoutingAlgorithm::kXY;
  const auto req = TrafficClass::kRequest;
  for (NodeId src = 0; src < mesh.num_tiles(); ++src) {
    for (NodeId dst = 0; dst < mesh.num_tiles(); ++dst) {
      const Coord s{src % 5, src / 5};
      const Coord d{dst % 5, dst / 5};
      const int manhattan =
          std::abs(s.x - d.x) + std::abs(s.y - d.y);
      const std::vector<int> route = mesh.TraceRouters(xy, req, src, dst);
      EXPECT_EQ(mesh.Distance(src, dst), manhattan);
      EXPECT_EQ(static_cast<int>(route.size()) - 1, manhattan);
    }
  }
}

TEST(TopologyTest, TorusUsesWrapLinks) {
  // Opposite edge neighbours are one hop apart on the torus.
  const Topology torus = Topology::Torus(8, 8);
  EXPECT_EQ(torus.Distance(0, 7), 1);       // (0,0) -> (7,0) wraps west
  EXPECT_EQ(torus.Distance(0, 56), 1);      // (0,0) -> (0,7) wraps north
  EXPECT_EQ(torus.Distance(0, 63), 2);      // corner to corner
  EXPECT_EQ(torus.Distance(0, 36), 8);      // (0,0) -> (4,4): 4 + 4
}

TEST(TopologyTest, DatelineHalvesAreConsistent) {
  // On dateline topologies every inter-router hop carries a VC half, and a
  // packet's half never goes from post-wrap (1) back to pre-wrap (0)
  // within one dimension leg (the acyclicity argument).
  for (const Topology& topo :
       {Topology::Torus(5, 4), Topology::Circulant(16, 1, 4)}) {
    for (NodeId src = 0; src < topo.num_tiles(); ++src) {
      for (NodeId dst = 0; dst < topo.num_tiles(); ++dst) {
        int router = topo.RouterOf(src);
        const int dst_router = topo.RouterOf(dst);
        int prev_port = -1;
        int prev_half = -1;
        while (router != dst_router) {
          const RouteStep step =
              topo.Route(RoutingAlgorithm::kXY, TrafficClass::kRequest,
                         router, dst);
          ASSERT_GE(step.port, topo.num_local_ports());
          ASSERT_GE(step.vc_half, 0) << TopologyName(topo.kind());
          ASSERT_LE(step.vc_half, 1);
          if (step.port == prev_port) {
            // Same direction leg: halves may only move 0 -> 1 at the wrap.
            EXPECT_GE(step.vc_half, prev_half)
                << TopologyName(topo.kind()) << " " << src << "->" << dst;
          }
          prev_port = step.port;
          prev_half = step.vc_half;
          router = topo.Peer(router, step.port);
        }
      }
    }
  }

  // The routers allocate from those halves. On a 4x4 torus with 4 VCs the
  // request class owns VCs 0-1: a request from (3,0) to (1,0) crosses the
  // wrap link into router 0 on the pre-wrap VC 0, then reaches router 1 on
  // the post-wrap VC 1.
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kTorus;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  Network net(cfg);
  Packet p;
  p.type = PacketType::kReadRequest;
  p.src = 3;
  p.dst = 1;
  p.num_flits = 1;
  ASSERT_TRUE(net.Inject(p));
  VcId wrap_vc = kInvalidVc;
  VcId post_wrap_vc = kInvalidVc;
  for (int c = 0; c < 20; ++c) {
    net.Tick();
    for (VcId v = 0; v < cfg.num_vcs; ++v) {
      if (net.router(0).VcOccupancy(Port::kWest, v) > 0) wrap_vc = v;
      if (net.router(1).VcOccupancy(Port::kWest, v) > 0) post_wrap_vc = v;
    }
  }
  EXPECT_EQ(wrap_vc, 0);
  EXPECT_EQ(post_wrap_vc, 1);
}

// --- simulation: dateline topologies run audit-clean -----------------------

NetworkConfig AuditedConfig(TopologyKind kind, int width, int height) {
  NetworkConfig cfg;
  cfg.topology = kind;
  cfg.width = width;
  cfg.height = height;
  cfg.num_vcs = 4;  // datelines need >= 2 VCs per class
  cfg.vc_depth = 4;
  cfg.audit = true;
  cfg.audit_interval = 1;
  return cfg;
}

void RunHotspotAudited(const NetworkConfig& cfg) {
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kHotspot;
  tcfg.hotspots = {0, static_cast<NodeId>(net.num_nodes() / 2)};
  tcfg.hotspot_fraction = 0.5;
  tcfg.injection_rate = 0.1;
  tcfg.packet_size = 3;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 2000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(20000)) << "network failed to drain (deadlock?)";
  const AuditReport r = net.AuditResults();
  EXPECT_TRUE(r.enabled);
  EXPECT_TRUE(r.clean())
      << (r.samples.empty() ? std::string() : r.samples[0].detail);
  EXPECT_GT(r.flits_injected, 0u);
  EXPECT_EQ(r.flits_injected, r.flits_ejected);
}

TEST(TopologySimTest, TorusHotspotRunsAuditClean) {
  RunHotspotAudited(AuditedConfig(TopologyKind::kTorus, 4, 4));
}

TEST(TopologySimTest, OddTorusHotspotRunsAuditClean) {
  RunHotspotAudited(AuditedConfig(TopologyKind::kTorus, 5, 3));
}

TEST(TopologySimTest, CirculantHotspotRunsAuditClean) {
  NetworkConfig cfg = AuditedConfig(TopologyKind::kCirculant, 4, 4);
  cfg.circulant_s1 = 1;
  cfg.circulant_s2 = 4;
  RunHotspotAudited(cfg);
}

TEST(TopologySimTest, CMeshHotspotRunsAuditClean) {
  NetworkConfig cfg = AuditedConfig(TopologyKind::kCMesh, 4, 4);
  cfg.num_vcs = 2;  // no datelines on the cmesh
  RunHotspotAudited(cfg);
}

TEST(TopologySimTest, TorusRejectsSingleVcPerClass) {
  // Dateline VC validation: split 2 VCs leaves one per class — unsafe.
  NetworkConfig cfg = AuditedConfig(TopologyKind::kTorus, 4, 4);
  cfg.num_vcs = 2;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
}

TEST(TopologySimTest, TorusRejectsDynamicPolicy) {
  NetworkConfig cfg = AuditedConfig(TopologyKind::kTorus, 4, 4);
  cfg.vc_policy = VcPolicyKind::kDynamic;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace gnoc
