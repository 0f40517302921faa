// Tests for synthetic traffic generators (open loop and request/reply echo).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "noc/traffic.hpp"

namespace gnoc {
namespace {

NetworkConfig Cfg(int w = 4, int h = 4) {
  NetworkConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  return cfg;
}

TEST(OpenLoopTest, UniformRandomDeliversAtLowLoad) {
  Network net(Cfg());
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = 0.05;
  tcfg.packet_size = 5;
  OpenLoopTraffic traffic(net, tcfg);

  for (int c = 0; c < 3000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(10000));
  const auto s = net.Summarize();
  const auto total_ejected = s.packets_ejected[0] + s.packets_ejected[1];
  EXPECT_GT(traffic.generated(), 100u);
  EXPECT_EQ(total_ejected + traffic.dropped(), traffic.generated());
  EXPECT_FALSE(net.Deadlocked());
}

TEST(OpenLoopTest, TransposeTargetsMirrorNode) {
  Network net(Cfg());
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kTranspose;
  tcfg.injection_rate = 0.1;
  tcfg.packet_size = 1;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 500; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(5000));
  // Latency stats exist => packets were delivered; self-addressed (diagonal)
  // packets are also fine.
  const auto s = net.Summarize();
  EXPECT_GT(s.packets_ejected[0] + s.packets_ejected[1], 0u);
}

TEST(OpenLoopTest, HotspotConcentratesTraffic) {
  Network net(Cfg());
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kHotspot;
  tcfg.injection_rate = 0.08;
  tcfg.packet_size = 1;
  tcfg.hotspots = {0};
  tcfg.hotspot_fraction = 0.8;
  OpenLoopTraffic traffic(net, tcfg);

  for (int c = 0; c < 2000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  net.Drain(20000);
  // The hotspot NIC must have received far more packets than an average
  // node.
  const auto& hotspot_stats = net.nic(0).stats();
  const auto& other_stats = net.nic(5).stats();
  const auto hot = hotspot_stats.packets_ejected[0] +
                   hotspot_stats.packets_ejected[1];
  const auto other =
      other_stats.packets_ejected[0] + other_stats.packets_ejected[1];
  EXPECT_GT(hot, 4 * std::max<std::uint64_t>(other, 1));
}

TEST(OpenLoopTest, BitReverseIsAPermutationTarget) {
  Network net(Cfg(4, 4));
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kBitReverse;
  tcfg.injection_rate = 0.1;
  tcfg.packet_size = 1;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 500; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(5000));
  EXPECT_FALSE(net.Deadlocked());
}

TEST(EchoTest, EveryRequestGetsAReply) {
  NetworkConfig cfg = Cfg(4, 4);
  Network net(cfg);
  TilePlan plan(4, 4, 4, McPlacement::kBottom);
  EchoConfig ecfg;
  ecfg.request_rate = 0.02;
  ecfg.service_latency = 10;
  RequestReplyEcho echo(net, plan, ecfg);

  for (int c = 0; c < 4000; ++c) {
    echo.Tick();
    net.Tick();
  }
  // Let outstanding transactions finish (no new requests).
  echo.StopGeneration();
  for (int c = 0; c < 5000 && echo.replies_received() < echo.requests_sent();
       ++c) {
    echo.Tick();  // only services MC queues now
    net.Tick();
  }
  EXPECT_GT(echo.requests_sent(), 50u);
  EXPECT_EQ(echo.replies_received(), echo.requests_sent());
  EXPECT_GT(echo.round_trip().mean(), 0.0);
  EXPECT_FALSE(net.Deadlocked());
}

TEST(EchoTest, RoundTripLatencyIncludesServiceTime) {
  NetworkConfig cfg = Cfg(4, 4);
  Network net(cfg);
  TilePlan plan(4, 4, 4, McPlacement::kBottom);
  EchoConfig ecfg;
  ecfg.request_rate = 0.005;  // nearly unloaded
  ecfg.service_latency = 50;
  RequestReplyEcho echo(net, plan, ecfg);
  for (int c = 0; c < 6000; ++c) {
    echo.Tick();
    net.Tick();
  }
  ASSERT_GT(echo.replies_received(), 10u);
  // Unloaded round trip >= service latency + a few hops each way.
  EXPECT_GT(echo.round_trip().mean(), 50.0);
  EXPECT_LT(echo.round_trip().mean(), 200.0);
}

TEST(TrafficPatternTest, Names) {
  EXPECT_STREQ(TrafficPatternName(TrafficPattern::kUniformRandom),
               "uniform-random");
  EXPECT_STREQ(TrafficPatternName(TrafficPattern::kHotspot), "hotspot");
  EXPECT_STREQ(TrafficPatternName(TrafficPattern::kTornado), "tornado");
  EXPECT_STREQ(TrafficPatternName(TrafficPattern::kNeighbor), "neighbor");
  EXPECT_STREQ(TrafficPatternName(TrafficPattern::kShuffle), "shuffle");
}

TEST(TrafficPatternTest, ParseNames) {
  EXPECT_EQ(ParseTrafficPattern("uniform"), TrafficPattern::kUniformRandom);
  EXPECT_EQ(ParseTrafficPattern("transpose"), TrafficPattern::kTranspose);
  EXPECT_EQ(ParseTrafficPattern("bitrev"), TrafficPattern::kBitReverse);
  EXPECT_EQ(ParseTrafficPattern("hotspot"), TrafficPattern::kHotspot);
  EXPECT_EQ(ParseTrafficPattern("tornado"), TrafficPattern::kTornado);
  EXPECT_EQ(ParseTrafficPattern("neighbor"), TrafficPattern::kNeighbor);
  EXPECT_EQ(ParseTrafficPattern("shuffle"), TrafficPattern::kShuffle);
  // Like every other enum's names, pattern names ignore case.
  EXPECT_EQ(ParseTrafficPattern("Bit-Reverse"), TrafficPattern::kBitReverse);
  EXPECT_EQ(ParseTrafficPattern("NEIGHBOUR"), TrafficPattern::kNeighbor);
  EXPECT_THROW(ParseTrafficPattern("nope"), std::invalid_argument);
}

// Deterministic pattern targets and delivery, for each new pattern.
class PatternSweepTest : public ::testing::TestWithParam<TrafficPattern> {};

TEST_P(PatternSweepTest, DeliversAtLowLoadWithoutDeadlock) {
  Network net(Cfg(4, 4));
  OpenLoopConfig tcfg;
  tcfg.pattern = GetParam();
  tcfg.injection_rate = 0.05;
  tcfg.packet_size = 2;
  if (tcfg.pattern == TrafficPattern::kHotspot) tcfg.hotspots = {5};
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1500; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(10000));
  EXPECT_FALSE(net.Deadlocked());
  const auto s = net.Summarize();
  EXPECT_EQ(s.packets_ejected[0] + s.packets_ejected[1] + traffic.dropped(),
            traffic.generated());
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternSweepTest,
    ::testing::Values(TrafficPattern::kUniformRandom,
                      TrafficPattern::kTranspose, TrafficPattern::kBitReverse,
                      TrafficPattern::kHotspot, TrafficPattern::kTornado,
                      TrafficPattern::kNeighbor, TrafficPattern::kShuffle),
    [](const auto& info) {
      std::string n = TrafficPatternName(info.param);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// --- DeterministicDestination (regression: bit-reverse and shuffle used a
// "% n" fold on non-power-of-two meshes, double-hitting low node ids and
// sometimes returning dst == src) --------------------------------------

TEST(DeterministicDestinationTest, AlwaysInRangeAndNeverSelf) {
  const TrafficPattern patterns[] = {
      TrafficPattern::kTranspose, TrafficPattern::kBitReverse,
      TrafficPattern::kTornado, TrafficPattern::kNeighbor,
      TrafficPattern::kShuffle};
  const std::pair<int, int> meshes[] = {{4, 4}, {3, 4}, {5, 3}, {2, 2},
                                        {8, 8}, {1, 6}, {6, 1}};
  for (const auto& [w, h] : meshes) {
    for (TrafficPattern p : patterns) {
      for (NodeId src = 0; src < w * h; ++src) {
        const NodeId dst = DeterministicDestination(p, src, w, h);
        ASSERT_GE(dst, 0) << TrafficPatternName(p) << " " << w << "x" << h;
        ASSERT_LT(dst, w * h) << TrafficPatternName(p) << " " << w << "x" << h;
        ASSERT_NE(dst, src) << TrafficPatternName(p) << " " << w << "x" << h
                            << " src=" << src;
      }
    }
  }
}

TEST(DeterministicDestinationTest, BitReverseKeepsClassicFormOnPow2) {
  // 4x4 = 16 nodes, 4 bits: 0001 <-> 1000, 0010 <-> 0100.
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kBitReverse, 1, 4, 4), 8);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kBitReverse, 8, 4, 4), 1);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kBitReverse, 2, 4, 4), 4);
  // Palindromic ids (0110) are fixed points; they step to the next node.
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kBitReverse, 6, 4, 4), 7);
}

TEST(DeterministicDestinationTest, ShuffleKeepsClassicFormOnPow2) {
  // Rotate left by one over 4 bits: 0001 -> 0010, 1000 -> 0001.
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, 1, 4, 4), 2);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, 8, 4, 4), 1);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, 5, 4, 4), 10);
}

TEST(DeterministicDestinationTest, NonPow2FallbacksAreFair) {
  // Non-power-of-two node counts — even (3x4, 2x5), odd (5x3), prime ring
  // circulant-style (13x1): the old "% n" fold sent two sources to several
  // low ids and none to the high ones, and the old shuffle fallback
  // substituted a half-rotation. Shuffle is now fixed-point-free on any
  // count (endpoints rerouted through each other), so it must be a perfect
  // bijection; so must the mirror bit-reverse on even counts.
  const std::pair<int, int> grids[] = {{3, 4}, {5, 3}, {13, 1}, {2, 5}};
  for (const auto& [w, h] : grids) {
    const int n = w * h;
    for (TrafficPattern p :
         {TrafficPattern::kBitReverse, TrafficPattern::kShuffle}) {
      if (p == TrafficPattern::kBitReverse && n % 2 == 1) {
        continue;  // odd-count mirror has a centre fixed point
      }
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      for (NodeId src = 0; src < n; ++src) {
        ++hits[static_cast<std::size_t>(
            DeterministicDestination(p, src, w, h))];
      }
      for (int hit : hits) {
        EXPECT_EQ(hit, 1) << TrafficPatternName(p) << " " << w << "x" << h;
      }
    }
  }
}

TEST(DeterministicDestinationTest, PatternsWithFixedPointsStayNearBijective) {
  // Patterns with inherent fixed points (the transpose diagonal, the odd
  // mirror centre) reroute self-sends to the next node, costing at most one
  // extra hit per fixed point. Unbiasedness bound: no destination is hit
  // more than twice, and the number of silent destinations never exceeds
  // the pattern's fixed-point count (2 for transpose off the diagonal-rich
  // square case, 1 for the odd mirror).
  const struct {
    TrafficPattern pattern;
    int w, h;
    int max_silent;
  } cases[] = {
      {TrafficPattern::kTranspose, 3, 4, 2},   // fixed: (0,0), (2,3)
      {TrafficPattern::kTranspose, 5, 3, 3},   // 3x=2y solutions
      {TrafficPattern::kBitReverse, 5, 3, 1},  // odd mirror centre
  };
  for (const auto& c : cases) {
    const int n = c.w * c.h;
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    for (NodeId src = 0; src < n; ++src) {
      ++hits[static_cast<std::size_t>(
          DeterministicDestination(c.pattern, src, c.w, c.h))];
    }
    int silent = 0;
    for (int hit : hits) {
      EXPECT_LE(hit, 2) << TrafficPatternName(c.pattern) << " " << c.w << "x"
                        << c.h;
      if (hit == 0) ++silent;
    }
    EXPECT_LE(silent, c.max_silent)
        << TrafficPatternName(c.pattern) << " " << c.w << "x" << c.h;
  }
}

TEST(DeterministicDestinationTest, TransposeSwapsCoordinatesOnSquare) {
  // 4x4, row-major: (1,0) id 1 -> (0,1) id 4; diagonal steps off itself.
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kTranspose, 1, 4, 4), 4);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kTranspose, 5, 4, 4), 6);
}

TEST(DeterministicDestinationTest, TransposeIsTheMatrixTransposeOnRect) {
  // Regression: rectangular grids used to degrade to the mirror
  // permutation. 4x2, row-major: tile (x,y) must go to x*height + y, the
  // same tile in the transposed (2x4) grid.
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kTranspose, 1, 4, 2), 2);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kTranspose, 3, 4, 2), 6);
  // (x,y) = (2,1), id 6 -> 2*2 + 1 = 5 (not mirror id 1).
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kTranspose, 6, 4, 2), 5);
}

TEST(DeterministicDestinationTest, ShuffleHasNoFixedPointsOffPow2) {
  // The doubling riffle pins 0 (and n-1 for even n); the fallback reroutes
  // the endpoints through each other instead of leaning on the generic
  // self-send step, which would double-hit a destination.
  for (int n : {6, 12, 15, 21}) {
    EXPECT_NE(DeterministicDestination(TrafficPattern::kShuffle, 0, n, 1), 0);
    EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, n - 1, n, 1),
              0);
  }
  // Interior sources follow the plain doubling map.
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, 4, 12, 1), 8);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, 7, 12, 1), 3);
  EXPECT_EQ(DeterministicDestination(TrafficPattern::kShuffle, 8, 15, 1), 1);
}

TEST(DeterministicDestinationTest, RandomizedPatternsThrow) {
  EXPECT_THROW(DeterministicDestination(TrafficPattern::kUniformRandom, 0, 4,
                                        4),
               std::invalid_argument);
  EXPECT_THROW(DeterministicDestination(TrafficPattern::kHotspot, 0, 4, 4),
               std::invalid_argument);
  EXPECT_THROW(DeterministicDestination(TrafficPattern::kNeighbor, 99, 4, 4),
               std::invalid_argument);
  EXPECT_THROW(DeterministicDestination(TrafficPattern::kNeighbor, 0, 0, 4),
               std::invalid_argument);
}

TEST(OpenLoopTest, BitReverseOnNonPow2MeshDeliversEverywhere) {
  Network net(Cfg(3, 4));
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kBitReverse;
  tcfg.injection_rate = 0.1;
  tcfg.packet_size = 1;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 2000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(5000));
  const auto s = net.Summarize();
  EXPECT_EQ(s.packets_ejected[0] + s.packets_ejected[1] + traffic.dropped(),
            traffic.generated());
}

TEST(TrafficPatternTest, NeighborAndTornadoTargets) {
  Network net(Cfg(4, 4));
  // Tornado on width 4: shift = 1 -> (x+1) mod 4 on the same row; neighbor
  // likewise shifts by exactly one column. Verify via delivered traffic:
  // every packet travels within its row.
  for (auto pattern : {TrafficPattern::kTornado, TrafficPattern::kNeighbor}) {
    Network fresh(Cfg(4, 4));
    OpenLoopConfig tcfg;
    tcfg.pattern = pattern;
    tcfg.injection_rate = 0.2;
    tcfg.packet_size = 1;
    OpenLoopTraffic traffic(fresh, tcfg);
    for (int c = 0; c < 300; ++c) {
      traffic.Tick();
      fresh.Tick();
    }
    fresh.Drain(5000);
    // No vertical links used: row-local pattern.
    for (NodeId n = 0; n < fresh.num_nodes(); ++n) {
      for (auto cls : {TrafficClass::kRequest, TrafficClass::kReply}) {
        EXPECT_EQ(fresh.LinkFlits(n, Port::kNorth, cls), 0u)
            << TrafficPatternName(pattern);
        EXPECT_EQ(fresh.LinkFlits(n, Port::kSouth, cls), 0u)
            << TrafficPatternName(pattern);
      }
    }
  }
}

}  // namespace
}  // namespace gnoc
