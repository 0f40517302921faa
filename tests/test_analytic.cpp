// Tests for the analytical models: Eq. 1 (traffic ratio), Eq. 2 (link
// coefficients) and Eq. 3 / Table 1 (hop counts). Closed forms are
// cross-validated against exact enumeration.
#include <gtest/gtest.h>

#include "analytic/hop_count.hpp"
#include "analytic/link_coefficients.hpp"
#include "analytic/traffic_model.hpp"
#include "noc/deadlock.hpp"

namespace gnoc {
namespace {

// ---------------------------------------------------------------------------
// Eq. 1 — request/reply traffic volumes
// ---------------------------------------------------------------------------

TEST(TrafficModelTest, AllReadsGiveFiveToOneFlitRatio) {
  TrafficModelInput in;
  in.read_fraction = 1.0;  // only read requests (1 flit) / read replies (5)
  const auto out = EvaluateTrafficModel(in);
  EXPECT_DOUBLE_EQ(out.request_flits, 1.0);
  EXPECT_DOUBLE_EQ(out.reply_flits, 5.0);
  EXPECT_DOUBLE_EQ(out.ratio, 5.0);
}

TEST(TrafficModelTest, AllWritesInvertTheRatio) {
  TrafficModelInput in;
  in.read_fraction = 0.0;  // write requests (5 flits) / write replies (1)
  const auto out = EvaluateTrafficModel(in);
  EXPECT_DOUBLE_EQ(out.request_flits, 5.0);
  EXPECT_DOUBLE_EQ(out.reply_flits, 1.0);
  EXPECT_DOUBLE_EQ(out.ratio, 0.2);
}

TEST(TrafficModelTest, PaperRatioOfTwoIsReachable) {
  // The paper observes R ~ 2 (Fig. 2). With Ls=1, Ll=5 this needs a
  // read-heavy mix; verify forward and inverse models agree.
  PacketSizes sizes;
  const double r = ReadFractionForRatio(2.0, sizes);
  EXPECT_GT(r, 0.5);
  EXPECT_LT(r, 1.0);
  TrafficModelInput in;
  in.read_fraction = r;
  EXPECT_NEAR(EvaluateTrafficModel(in).ratio, 2.0, 1e-9);
}

TEST(TrafficModelTest, LambdaScalesBothSidesEqually) {
  TrafficModelInput a;
  a.lambda = 1.0;
  a.read_fraction = 0.7;
  TrafficModelInput b = a;
  b.lambda = 3.0;
  const auto ra = EvaluateTrafficModel(a);
  const auto rb = EvaluateTrafficModel(b);
  EXPECT_NEAR(rb.request_flits, 3.0 * ra.request_flits, 1e-12);
  EXPECT_NEAR(rb.reply_flits, 3.0 * ra.reply_flits, 1e-12);
  EXPECT_NEAR(rb.ratio, ra.ratio, 1e-12);
}

TEST(TrafficModelTest, FractionsSumToOne) {
  TrafficModelInput in;
  in.read_fraction = 0.8;
  const auto out = EvaluateTrafficModel(in);
  double packet_sum = 0.0;
  double flit_sum = 0.0;
  for (int t = 0; t < kNumPacketTypes; ++t) {
    packet_sum += out.packet_fraction[t];
    flit_sum += out.flit_fraction[t];
  }
  EXPECT_NEAR(packet_sum, 1.0, 1e-12);
  EXPECT_NEAR(flit_sum, 1.0, 1e-12);
}

TEST(TrafficModelTest, ReadRepliesDominatePacketsAtPaperMix) {
  // Fig. 3: ~63% of reply-network packets are read replies; in packet terms
  // read replies are r/2 of all packets.
  TrafficModelInput in;
  in.read_fraction = 0.85;
  const auto out = EvaluateTrafficModel(in);
  const double read_reply =
      out.packet_fraction[static_cast<int>(PacketType::kReadReply)];
  EXPECT_NEAR(read_reply, 0.425, 1e-12);
  // Read replies carry the majority of flits.
  EXPECT_GT(out.flit_fraction[static_cast<int>(PacketType::kReadReply)], 0.5);
}

// ---------------------------------------------------------------------------
// Eq. 2 — link coefficients
// ---------------------------------------------------------------------------

TEST(LinkCoefficientTest, Eq2MatchesEnumerationForBottomXyRequests) {
  // The paper's closed forms assume idealized cores on every tile.
  constexpr int kN = 4;
  TilePlan plan(kN, kN, kN, McPlacement::kBottom);
  const Topology mesh = Topology::Mesh(kN, kN);
  const auto map =
      AnalyzeLinkUsage(mesh, plan, RoutingAlgorithm::kXY, /*idealized=*/true);
  const auto req = TrafficClass::kRequest;
  for (int y = 0; y < kN; ++y) {
    const int i = y + 1;  // paper rows are 1-based
    for (int x = 0; x < kN; ++x) {
      const int j = x + 1;  // paper columns are 1-based
      const NodeId r = plan.NodeAt({x, y});
      // South coefficients apply to rows above the MC row.
      if (y < kN - 1) {
        EXPECT_EQ(map.Count(r, Port::kSouth, req), Eq2CoefficientSouth(kN, i))
            << "south @(" << x << "," << y << ")";
      }
      EXPECT_EQ(map.Count(r, Port::kNorth, req), 0) << "requests never north";
      if (x < kN - 1) {
        EXPECT_EQ(map.Count(r, Port::kEast, req), Eq2CoefficientEast(kN, j))
            << "east @(" << x << "," << y << ")";
      }
      if (x > 0) {
        EXPECT_EQ(map.Count(r, Port::kWest, req), Eq2CoefficientWest(kN, j))
            << "west @(" << x << "," << y << ")";
      }
    }
  }
}

TEST(LinkCoefficientTest, Eq2ReplyMirrorsRequestUnderXy) {
  // Fig. 4b: XY replies northbound mirror the request south coefficients.
  constexpr int kN = 4;
  TilePlan plan(kN, kN, kN, McPlacement::kBottom);
  const Topology mesh = Topology::Mesh(kN, kN);
  const auto map =
      AnalyzeLinkUsage(mesh, plan, RoutingAlgorithm::kXY, /*idealized=*/true);
  const auto req = TrafficClass::kRequest;
  const auto rep = TrafficClass::kReply;
  for (int y = 0; y < kN; ++y) {
    EXPECT_EQ(map.Count(plan.NodeAt({1, y}), Port::kSouth, rep), 0)
        << "replies never south";
  }
  // Reply traffic northward out of row y reaches all idealized cores in
  // rows 0..y-1... cross-check a couple of spot values against enumeration
  // symmetry: north count at row y equals south count at mirrored row.
  for (int x = 0; x < kN; ++x) {
    for (int y = 1; y < kN; ++y) {
      EXPECT_EQ(map.Count(plan.NodeAt({x, y}), Port::kNorth, rep),
                map.Count(plan.NodeAt({x, y - 1}), Port::kSouth, req))
          << "XY reply north must mirror request south shifted one row";
    }
  }
}

TEST(LinkCoefficientTest, RequestAndReplyDisjointUnderBottomXy) {
  // The central monopolizing argument: no directed link carries both.
  TilePlan plan(8, 8, 8, McPlacement::kBottom);
  const auto map =
      AnalyzeLinkUsage(Topology::Mesh(8, 8), plan, RoutingAlgorithm::kXY);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const NodeId r = plan.NodeAt({x, y});
      for (Port p : {Port::kNorth, Port::kEast, Port::kSouth, Port::kWest}) {
        EXPECT_FALSE(map.Count(r, p, TrafficClass::kRequest) > 0 &&
                     map.Count(r, p, TrafficClass::kReply) > 0)
            << "mixed link at (" << x << "," << y << ") " << PortName(p);
      }
    }
  }
}

TEST(LinkCoefficientTest, XyYxRepliesAvoidMcRowLinks) {
  // Sec. 3.2.2: XY-YX eliminates reply traffic on the horizontal links
  // between MCs (the bottom row) because replies leave northwards first.
  TilePlan plan(8, 8, 8, McPlacement::kBottom);
  const Topology mesh = Topology::Mesh(8, 8);
  const auto rep = TrafficClass::kReply;
  const auto xyyx = AnalyzeLinkUsage(mesh, plan, RoutingAlgorithm::kXYYX);
  for (int x = 0; x < 8; ++x) {
    EXPECT_EQ(xyyx.Count(plan.NodeAt({x, 7}), Port::kEast, rep), 0);
    EXPECT_EQ(xyyx.Count(plan.NodeAt({x, 7}), Port::kWest, rep), 0);
  }
  // Under plain XY, replies do congest the MC row.
  const auto xy = AnalyzeLinkUsage(mesh, plan, RoutingAlgorithm::kXY);
  long long mc_row_total = 0;
  for (int x = 0; x < 8; ++x) {
    mc_row_total += xy.Count(plan.NodeAt({x, 7}), Port::kEast, rep);
    mc_row_total += xy.Count(plan.NodeAt({x, 7}), Port::kWest, rep);
  }
  EXPECT_GT(mc_row_total, 0);
}

TEST(LinkCoefficientTest, TotalEqualsHopSum) {
  // Sum of all coefficients == total hops over all pairs (Eq. 3 numerator),
  // because each pair contributes one crossing per hop.
  TilePlan plan(8, 8, 8, McPlacement::kDiamond);
  const Topology mesh = Topology::Mesh(8, 8);
  const auto map = AnalyzeLinkUsage(mesh, plan, RoutingAlgorithm::kXY);
  const auto hops = EnumerateHopCounts(mesh, plan);
  const long long total = map.Total(TrafficClass::kRequest);
  EXPECT_EQ(static_cast<double>(total), hops.total());
}

TEST(LinkCoefficientTest, RenderGridHasOneRowPerMeshRow) {
  TilePlan plan(4, 4, 4, McPlacement::kBottom);
  const auto map =
      AnalyzeLinkUsage(Topology::Mesh(4, 4), plan, RoutingAlgorithm::kXY);
  const std::string grid = map.RenderGrid(Port::kSouth, TrafficClass::kRequest);
  EXPECT_EQ(std::count(grid.begin(), grid.end(), '\n'), 4);
}

// ---------------------------------------------------------------------------
// Eq. 3 / Table 1 — hop counts
// ---------------------------------------------------------------------------

TEST(HopCountTest, BottomClosedFormIsExact) {
  for (int n : {4, 6, 8}) {
    TilePlan plan(n, n, n, McPlacement::kBottom);
    const auto enumerated = EnumerateHopCounts(Topology::Mesh(n, n), plan);
    const auto closed = ClosedFormHopCounts(McPlacement::kBottom, n);
    EXPECT_TRUE(closed.vertical_exact);
    EXPECT_TRUE(closed.horizontal_exact);
    EXPECT_DOUBLE_EQ(enumerated.vertical, closed.vertical) << "N=" << n;
    EXPECT_DOUBLE_EQ(enumerated.horizontal, closed.horizontal) << "N=" << n;
  }
}

TEST(HopCountTest, TopBottomVerticalClosedFormIsExact) {
  for (int n : {4, 8}) {
    TilePlan plan(n, n, n, McPlacement::kTopBottom);
    const auto enumerated = EnumerateHopCounts(Topology::Mesh(n, n), plan);
    const auto closed = ClosedFormHopCounts(McPlacement::kTopBottom, n);
    EXPECT_TRUE(closed.vertical_exact);
    EXPECT_DOUBLE_EQ(enumerated.vertical, closed.vertical) << "N=" << n;
  }
}

TEST(HopCountTest, EdgeHorizontalClosedFormIsExact) {
  for (int n : {4, 8}) {
    TilePlan plan(n, n, n, McPlacement::kEdge);
    const auto enumerated = EnumerateHopCounts(Topology::Mesh(n, n), plan);
    const auto closed = ClosedFormHopCounts(McPlacement::kEdge, n);
    EXPECT_TRUE(closed.horizontal_exact);
    EXPECT_DOUBLE_EQ(enumerated.horizontal, closed.horizontal) << "N=" << n;
  }
}

TEST(HopCountTest, ApproximateClosedFormsAreClose) {
  constexpr int kN = 8;
  for (McPlacement p : kAllPlacements) {
    TilePlan plan(kN, kN, kN, p);
    const auto enumerated = EnumerateHopCounts(Topology::Mesh(kN, kN), plan);
    const auto closed = ClosedFormHopCounts(p, kN);
    EXPECT_NEAR(closed.total() / enumerated.total(), 1.0, 0.25)
        << McPlacementName(p);
  }
}

TEST(HopCountTest, PaperPlacementOrderingHolds) {
  // Table 1 discussion: decreasing average hops order is
  // bottom > edge > top-bottom > diamond.
  constexpr int kN = 8;
  const Topology mesh = Topology::Mesh(kN, kN);
  const auto average = [&mesh](McPlacement p) {
    return EnumerateHopCounts(mesh, TilePlan(kN, kN, kN, p)).average();
  };
  const double bottom = average(McPlacement::kBottom);
  const double edge = average(McPlacement::kEdge);
  const double top_bottom = average(McPlacement::kTopBottom);
  const double diamond = average(McPlacement::kDiamond);
  EXPECT_GT(bottom, edge);
  EXPECT_GT(edge, top_bottom);
  EXPECT_GT(top_bottom, diamond);
}

TEST(HopCountTest, PairsCountMatchesEq3Denominator) {
  constexpr int kN = 8;
  TilePlan plan(kN, kN, kN, McPlacement::kBottom);
  const auto hops = EnumerateHopCounts(Topology::Mesh(kN, kN), plan);
  // Eq. 3 denominator: N^2 (N - 1) = (N^2 - N) cores x N MCs.
  EXPECT_EQ(hops.num_pairs, static_cast<long long>(kN) * kN * (kN - 1));
}

TEST(HopCountTest, AverageIsPositiveAndBounded) {
  for (McPlacement p : kAllPlacements) {
    TilePlan plan(8, 8, 8, p);
    const double avg = EnumerateHopCounts(Topology::Mesh(8, 8), plan).average();
    EXPECT_GT(avg, 0.0) << McPlacementName(p);
    EXPECT_LT(avg, 14.0) << McPlacementName(p);  // mesh diameter
  }
}

// ---------------------------------------------------------------------------
// Topology generalizations: closed forms vs brute-force graph distance
// ---------------------------------------------------------------------------

/// Ground truth for IdealizedAverageDistance: all ordered router pairs via
/// the graph's own Distance, weighted uniformly per tile pair.
double BruteForceAverageDistance(const Topology& topo) {
  long long sum = 0;
  for (NodeId a = 0; a < topo.num_tiles(); ++a) {
    for (NodeId b = 0; b < topo.num_tiles(); ++b) {
      sum += topo.Distance(a, b);
    }
  }
  return static_cast<double>(sum) /
         (static_cast<double>(topo.num_tiles()) *
          static_cast<double>(topo.num_tiles()));
}

TEST(TopologyHopCountTest, IdealizedClosedFormsMatchBruteForce) {
  // Acceptance criterion: analytic average distances are exact against
  // enumeration on all four topologies at 8x8 and 16x16 tile grids.
  for (int n : {8, 16}) {
    const Topology topos[] = {
        Topology::Mesh(n, n),
        Topology::Torus(n, n),
        Topology::CMesh(n, n),
        Topology::Circulant(n * n, 1, 0),
    };
    for (const Topology& topo : topos) {
      EXPECT_DOUBLE_EQ(IdealizedAverageDistance(topo),
                       BruteForceAverageDistance(topo))
          << TopologyName(topo.kind()) << " " << n << "x" << n;
    }
  }
  // Odd ring lengths exercise the (k^2-1)/(4k) torus branch.
  EXPECT_DOUBLE_EQ(IdealizedAverageDistance(Topology::Torus(5, 3)),
                   BruteForceAverageDistance(Topology::Torus(5, 3)));
}

TEST(TopologyHopCountTest, TorusEnumerationUsesWrapDistances) {
  // Bottom-row MCs are close to the top row on a torus: total hops must
  // drop strictly below the mesh's.
  TilePlan plan(8, 8, 8, McPlacement::kBottom);
  const auto mesh = EnumerateHopCounts(Topology::Mesh(8, 8), plan);
  const auto torus = EnumerateHopCounts(Topology::Torus(8, 8), plan);
  EXPECT_LT(torus.total(), mesh.total());
  EXPECT_EQ(torus.num_pairs, mesh.num_pairs);
}

TEST(TopologyLinkCoefficientTest, TotalEqualsGraphHopSum) {
  // On every topology, summed coefficients == summed core->MC distances
  // (routes are minimal, one crossing per hop).
  TilePlan plan(8, 8, 8, McPlacement::kBottom);
  for (const Topology& topo :
       {Topology::Mesh(8, 8), Topology::Torus(8, 8), Topology::CMesh(8, 8),
        Topology::Circulant(64, 1, 8)}) {
    const auto map = AnalyzeLinkUsage(topo, plan, RoutingAlgorithm::kXY);
    const auto hops = EnumerateHopCounts(topo, plan);
    const long long total = map.Total(TrafficClass::kRequest);
    EXPECT_EQ(static_cast<double>(total), hops.total())
        << TopologyName(topo.kind());
  }
}

}  // namespace
}  // namespace gnoc
