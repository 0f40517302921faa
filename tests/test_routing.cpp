// Unit and property tests for dimension-ordered routing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace gnoc {
namespace {

/// The router-grid coordinates a packet visits from `src` to `dst` on
/// `mesh`, inclusive of both ends.
std::vector<Coord> TraceMesh(const Topology& mesh, RoutingAlgorithm algo,
                             TrafficClass cls, Coord src, Coord dst) {
  const NodeId from = src.y * mesh.width() + src.x;
  const NodeId to = dst.y * mesh.width() + dst.x;
  std::vector<Coord> path;
  for (int r : mesh.TraceRouters(algo, cls, from, to)) {
    path.push_back(mesh.RouterCoord(r));
  }
  return path;
}

TEST(RoutingTest, EjectAtDestination) {
  for (auto algo : {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
                    RoutingAlgorithm::kXYYX}) {
    for (auto cls : {TrafficClass::kRequest, TrafficClass::kReply}) {
      EXPECT_EQ(ComputeOutputPort(algo, cls, {3, 3}, {3, 3}), Port::kLocal);
    }
  }
}

TEST(RoutingTest, XyGoesXFirst) {
  const auto algo = RoutingAlgorithm::kXY;
  const auto cls = TrafficClass::kRequest;
  EXPECT_EQ(ComputeOutputPort(algo, cls, {0, 0}, {3, 3}), Port::kEast);
  EXPECT_EQ(ComputeOutputPort(algo, cls, {3, 0}, {0, 3}), Port::kWest);
  // X aligned: go vertical.
  EXPECT_EQ(ComputeOutputPort(algo, cls, {3, 0}, {3, 3}), Port::kSouth);
  EXPECT_EQ(ComputeOutputPort(algo, cls, {3, 3}, {3, 0}), Port::kNorth);
}

TEST(RoutingTest, YxGoesYFirst) {
  const auto algo = RoutingAlgorithm::kYX;
  const auto cls = TrafficClass::kReply;
  EXPECT_EQ(ComputeOutputPort(algo, cls, {0, 0}, {3, 3}), Port::kSouth);
  EXPECT_EQ(ComputeOutputPort(algo, cls, {0, 3}, {3, 0}), Port::kNorth);
  // Y aligned: go horizontal.
  EXPECT_EQ(ComputeOutputPort(algo, cls, {0, 3}, {3, 3}), Port::kEast);
}

TEST(RoutingTest, XyYxSplitsByClass) {
  const auto algo = RoutingAlgorithm::kXYYX;
  EXPECT_EQ(ComputeOutputPort(algo, TrafficClass::kRequest, {0, 0}, {3, 3}),
            Port::kEast);
  EXPECT_EQ(ComputeOutputPort(algo, TrafficClass::kReply, {0, 0}, {3, 3}),
            Port::kSouth);
  EXPECT_EQ(OrderFor(RoutingAlgorithm::kXYYX, TrafficClass::kRequest),
            DimensionOrder::kXFirst);
  EXPECT_EQ(OrderFor(RoutingAlgorithm::kXYYX, TrafficClass::kReply),
            DimensionOrder::kYFirst);
}

TEST(RoutingTest, TraceRouteXyShape) {
  const auto path = TraceMesh(Topology::Mesh(3, 3), RoutingAlgorithm::kXY,
                              TrafficClass::kRequest, {0, 0}, {2, 2});
  const std::vector<Coord> expected{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}};
  EXPECT_EQ(path, expected);
}

TEST(RoutingTest, TraceRouteYxShape) {
  const auto path = TraceMesh(Topology::Mesh(3, 3), RoutingAlgorithm::kYX,
                              TrafficClass::kReply, {0, 0}, {2, 2});
  const std::vector<Coord> expected{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}};
  EXPECT_EQ(path, expected);
}

TEST(RoutingTest, ParseNames) {
  EXPECT_EQ(ParseRouting("xy"), RoutingAlgorithm::kXY);
  EXPECT_EQ(ParseRouting("YX"), RoutingAlgorithm::kYX);
  EXPECT_EQ(ParseRouting("XY-YX"), RoutingAlgorithm::kXYYX);
  EXPECT_EQ(ParseRouting("xyyx"), RoutingAlgorithm::kXYYX);
  EXPECT_THROW(ParseRouting("west-first"), std::invalid_argument);
  EXPECT_STREQ(RoutingName(RoutingAlgorithm::kXYYX), "XY-YX");
}

// Property: every route is minimal (length == Manhattan distance), stays in
// the mesh, takes at most one turn, and ends at the destination.
class RoutingPropertyTest
    : public ::testing::TestWithParam<RoutingAlgorithm> {};

TEST_P(RoutingPropertyTest, RoutesAreMinimalSingleTurnAndComplete) {
  const RoutingAlgorithm algo = GetParam();
  constexpr int kN = 8;
  const Topology mesh = Topology::Mesh(kN, kN);
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const Coord src{static_cast<int>(rng.NextBounded(kN)),
                    static_cast<int>(rng.NextBounded(kN))};
    const Coord dst{static_cast<int>(rng.NextBounded(kN)),
                    static_cast<int>(rng.NextBounded(kN))};
    const auto cls = rng.Bernoulli(0.5) ? TrafficClass::kRequest
                                        : TrafficClass::kReply;
    const auto path = TraceMesh(mesh, algo, cls, src, dst);
    ASSERT_EQ(static_cast<int>(path.size()) - 1,
              std::abs(src.x - dst.x) + std::abs(src.y - dst.y));
    ASSERT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst);
    int turns = 0;
    for (std::size_t i = 2; i < path.size(); ++i) {
      const bool prev_horizontal = path[i - 1].y == path[i - 2].y &&
                                   path[i - 1].x != path[i - 2].x;
      const bool cur_horizontal =
          path[i].y == path[i - 1].y && path[i].x != path[i - 1].x;
      if (prev_horizontal != cur_horizontal) ++turns;
    }
    ASSERT_LE(turns, 1) << "DOR must turn at most once";
    for (const Coord& c : path) {
      ASSERT_GE(c.x, 0);
      ASSERT_LT(c.x, kN);
      ASSERT_GE(c.y, 0);
      ASSERT_LT(c.y, kN);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RoutingPropertyTest,
                         ::testing::Values(RoutingAlgorithm::kXY,
                                           RoutingAlgorithm::kYX,
                                           RoutingAlgorithm::kXYYX),
                         [](const auto& info) {
                           std::string n = RoutingName(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace gnoc
