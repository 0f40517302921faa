// Integration tests of the assembled mesh network: delivery, ordering,
// latency, credits, and multi-packet stress across routings and policies.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/deadlock.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"

namespace gnoc {
namespace {

/// Collects every delivered packet.
class CollectSink : public PacketSink {
 public:
  bool Accept(const Packet& packet, Cycle now) override {
    packets.push_back(packet);
    last_delivery = now;
    return true;
  }
  std::vector<Packet> packets;
  Cycle last_delivery = 0;
};

NetworkConfig SmallConfig() {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  return cfg;
}

TEST(NetworkTest, SinglePacketIsDelivered) {
  Network net(SmallConfig());
  CollectSink sink;
  net.SetSink(15, &sink);

  Packet p;
  p.type = PacketType::kReadRequest;
  p.src = 0;
  p.dst = 15;
  p.num_flits = 1;
  ASSERT_TRUE(net.Inject(p));

  ASSERT_TRUE(net.Drain(1000));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].src, 0);
  EXPECT_EQ(sink.packets[0].dst, 15);
  EXPECT_EQ(sink.packets[0].num_flits, 1);
}

TEST(NetworkTest, MultiFlitPacketArrivesIntact) {
  Network net(SmallConfig());
  CollectSink sink;
  net.SetSink(12, &sink);

  Packet p;
  p.type = PacketType::kReadReply;
  p.src = 3;
  p.dst = 12;
  p.num_flits = 5;
  ASSERT_TRUE(net.Inject(p));

  ASSERT_TRUE(net.Drain(1000));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].num_flits, 5);
  EXPECT_EQ(sink.packets[0].type, PacketType::kReadReply);
}

TEST(NetworkTest, SelfAddressedPacketIsDelivered) {
  Network net(SmallConfig());
  CollectSink sink;
  net.SetSink(5, &sink);

  Packet p;
  p.type = PacketType::kWriteReply;
  p.src = 5;
  p.dst = 5;
  p.num_flits = 1;
  ASSERT_TRUE(net.Inject(p));

  ASSERT_TRUE(net.Drain(1000));
  ASSERT_EQ(sink.packets.size(), 1u);
}

TEST(NetworkTest, LatencyScalesWithDistance) {
  Network near_net(SmallConfig());
  // While the far packet crosses the mesh no NIC injects or delivers, for
  // longer than this threshold: switch traversals alone must keep the
  // deadlock watchdog fed.
  NetworkConfig far_cfg = SmallConfig();
  far_cfg.deadlock_threshold = 4;
  Network far_net(far_cfg);
  CollectSink near_sink;
  CollectSink far_sink;
  near_net.SetSink(1, &near_sink);
  far_net.SetSink(15, &far_sink);

  Packet near_p;
  near_p.type = PacketType::kReadRequest;
  near_p.src = 0;
  near_p.dst = 1;
  near_p.num_flits = 1;
  ASSERT_TRUE(near_net.Inject(near_p));
  ASSERT_TRUE(near_net.Drain(1000));

  Packet far_p = near_p;
  far_p.dst = 15;
  ASSERT_TRUE(far_net.Inject(far_p));
  ASSERT_TRUE(far_net.Drain(1000));

  const Cycle near_latency = near_sink.packets.at(0).ejected -
                             near_sink.packets.at(0).created;
  const Cycle far_latency =
      far_sink.packets.at(0).ejected - far_sink.packets.at(0).created;
  EXPECT_LT(near_latency, far_latency);
  EXPECT_GT(far_latency, 2 * far_cfg.deadlock_threshold);
  EXPECT_FALSE(far_net.Deadlocked());
}

TEST(NetworkTest, PacketsBetweenSamePairStayOrdered) {
  // Same (src,dst,class) packets must be delivered in injection order:
  // deterministic routing plus FIFO VCs guarantee it.
  Network net(SmallConfig());
  CollectSink sink;
  net.SetSink(10, &sink);

  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.type = PacketType::kReadRequest;
    p.src = 2;
    p.dst = 10;
    p.num_flits = 1;
    p.payload = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(net.Inject(p));
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(2000));
  ASSERT_EQ(sink.packets.size(), 20u);
  for (std::size_t i = 0; i < sink.packets.size(); ++i) {
    EXPECT_EQ(sink.packets[i].payload, i) << "reordered at position " << i;
  }
}

TEST(NetworkTest, AllToOneDeliversEverything) {
  NetworkConfig cfg = SmallConfig();
  cfg.eject_capacity = 16;
  Network net(cfg);
  CollectSink sink;
  net.SetSink(0, &sink);

  int sent = 0;
  for (NodeId src = 1; src < net.num_nodes(); ++src) {
    for (int k = 0; k < 4; ++k) {
      Packet p;
      p.type = PacketType::kReadReply;
      p.src = src;
      p.dst = 0;
      p.num_flits = 5;
      ASSERT_TRUE(net.Inject(p));
      ++sent;
    }
  }
  ASSERT_TRUE(net.Drain(20000));
  EXPECT_EQ(static_cast<int>(sink.packets.size()), sent);
  EXPECT_FALSE(net.Deadlocked());
}

TEST(NetworkTest, SummaryCountsMatchSink) {
  Network net(SmallConfig());
  CollectSink sink;
  net.SetSink(9, &sink);

  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.type = PacketType::kWriteRequest;
    p.src = 4;
    p.dst = 9;
    p.num_flits = 5;
    ASSERT_TRUE(net.Inject(p));
  }
  ASSERT_TRUE(net.Drain(5000));

  const NetworkSummary s = net.Summarize();
  const auto req = static_cast<std::size_t>(ClassIndex(TrafficClass::kRequest));
  EXPECT_EQ(s.packets_injected[req], 10u);
  EXPECT_EQ(s.packets_ejected[req], 10u);
  EXPECT_EQ(s.flits_injected[req], 50u);
  EXPECT_EQ(s.flits_ejected[req], 50u);
  EXPECT_EQ(sink.packets.size(), 10u);
  EXPECT_GT(s.packet_latency[req].mean(), 0.0);
}

TEST(NetworkTest, BackpressureStallsButDoesNotDrop) {
  // A sink that refuses everything for a while: flits must pile up without
  // loss, then drain once the sink opens.
  class GatedSink : public PacketSink {
   public:
    bool Accept(const Packet& p, Cycle) override {
      if (!open) return false;
      packets.push_back(p);
      return true;
    }
    bool open = false;
    std::vector<Packet> packets;
  };

  NetworkConfig cfg = SmallConfig();
  cfg.deadlock_threshold = 100000;  // the stall is intentional
  Network net(cfg);
  GatedSink sink;
  net.SetSink(15, &sink);

  for (int i = 0; i < 8; ++i) {
    Packet p;
    p.type = PacketType::kReadRequest;
    p.src = 0;
    p.dst = 15;
    p.num_flits = 1;
    ASSERT_TRUE(net.Inject(p));
  }
  for (int c = 0; c < 500; ++c) net.Tick();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_GT(net.FlitsInFlight(), 0u);

  sink.open = true;
  ASSERT_TRUE(net.Drain(5000));
  EXPECT_EQ(sink.packets.size(), 8u);
}

TEST(NetworkTest, CreditConservationAfterDrain) {
  // Property: once the network drains, every credit has returned — all
  // output VCs hold full depth and all NIC injection VCs are replenished.
  // Full scheduling ticks every router, so every drained output VC is also
  // recycled; soa defers an idle router's recycle (DESIGN.md §9).
  NetworkConfig cfg = SmallConfig();
  cfg.scheduling = SchedulingMode::kFull;
  Network net(cfg);
  CollectSink sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);

  Rng rng(55);
  for (int cycle = 0; cycle < 300; ++cycle) {
    if (rng.Bernoulli(0.5)) {
      Packet p;
      p.type = static_cast<PacketType>(rng.NextBounded(kNumPacketTypes));
      p.src = static_cast<NodeId>(rng.NextBounded(16));
      p.dst = static_cast<NodeId>(rng.NextBounded(16));
      p.num_flits = PacketSizes{}.SizeOf(p.type);
      if (net.CanInject(p.src, p.cls())) {
        ASSERT_TRUE(net.Inject(p));
      }
    }
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(20000));
  // A few extra ticks so in-flight credits land.
  for (int i = 0; i < 5; ++i) net.Tick();

  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const Coord c = net.CoordOf(n);
    for (Port p : {Port::kNorth, Port::kEast, Port::kSouth, Port::kWest}) {
      // Skip boundary ports (no channel -> credits unused).
      const Coord nb{c.x + (p == Port::kEast) - (p == Port::kWest),
                     c.y + (p == Port::kSouth) - (p == Port::kNorth)};
      if (nb.x < 0 || nb.x >= 4 || nb.y < 0 || nb.y >= 4) continue;
      for (VcId v = 0; v < cfg.num_vcs; ++v) {
        EXPECT_EQ(net.router(n).OutputCredits(p, v), cfg.vc_depth)
            << "router " << n << " port " << PortName(p) << " vc " << v;
        EXPECT_FALSE(net.router(n).OutputVcAllocated(p, v));
      }
    }
    for (VcId v = 0; v < cfg.num_vcs; ++v) {
      EXPECT_EQ(net.nic(n).InjectionCredits(v), cfg.vc_depth)
          << "nic " << n << " vc " << v;
    }
  }
}

TEST(NetworkTest, RectangularMeshesWork) {
  for (auto [w, h] : {std::pair{8, 4}, std::pair{4, 8}, std::pair{2, 6}}) {
    NetworkConfig cfg;
    cfg.width = w;
    cfg.height = h;
    Network net(cfg);
    CollectSink sink;
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
    int sent = 0;
    for (NodeId src = 0; src < net.num_nodes(); src += 3) {
      Packet p;
      p.type = PacketType::kReadReply;
      p.src = src;
      p.dst = net.num_nodes() - 1 - src;
      if (p.src == p.dst) continue;
      p.num_flits = 5;
      ASSERT_TRUE(net.Inject(p));
      ++sent;
    }
    ASSERT_TRUE(net.Drain(10000)) << w << "x" << h;
    EXPECT_EQ(static_cast<int>(sink.packets.size()), sent) << w << "x" << h;
    sink.packets.clear();
  }
}

// Each output port's VA arbiter takes one request bit per input VC of the
// router, radix x num_vcs of them, and a request mask holds 64. Wider
// configs are refused with the numbers that broke the bound; exactly 64
// (cmesh, radix 8, with 8 VCs) is accepted.
TEST(NetworkTest, RefusesConfigsWiderThanOneRequestMask) {
  struct Case {
    TopologyKind topology;
    int num_vcs;
    const char* radix;
  };
  for (const Case& c : {Case{TopologyKind::kMesh, 13, "radix 5"},
                        Case{TopologyKind::kCMesh, 9, "radix 8"}}) {
    NetworkConfig cfg = SmallConfig();
    cfg.topology = c.topology;
    cfg.num_vcs = c.num_vcs;
    try {
      Network net(cfg);
      ADD_FAILURE() << TopologyName(c.topology) << " accepted num_vcs="
                    << c.num_vcs;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(TopologyName(c.topology)), std::string::npos)
          << what;
      EXPECT_NE(what.find(c.radix), std::string::npos) << what;
      EXPECT_NE(what.find("num_vcs=" + std::to_string(c.num_vcs)),
                std::string::npos)
          << what;
    }
  }
  NetworkConfig widest = SmallConfig();
  widest.topology = TopologyKind::kCMesh;
  widest.num_vcs = 8;
  EXPECT_NO_THROW(Network net(widest));
}

// Router and Nic only assert num_vcs/vc_depth >= 1; a release build would
// otherwise simulate a network nothing can inject into.
TEST(NetworkTest, RefusesZeroVcsOrZeroDepth) {
  NetworkConfig no_vcs = SmallConfig();
  no_vcs.num_vcs = 0;
  EXPECT_THROW(Network net(no_vcs), std::invalid_argument);
  NetworkConfig no_depth = SmallConfig();
  no_depth.vc_depth = 0;
  EXPECT_THROW(Network net(no_depth), std::invalid_argument);
}

// Network::Load refuses a flit on a link whose VC the receiving router
// does not have. The clean snapshot holds one single-flit packet on its
// injection link; the flit is found in the payload by its payload and addr
// fields (the last 16 of its 75 bytes), which its i32 vc precedes by 5.
TEST(NetworkTest, LoadRefusesLinkFlitOnAVcOutOfRange) {
  const NetworkConfig cfg = SmallConfig();
  Network net(cfg);
  Packet p;
  p.type = PacketType::kReadRequest;
  p.src = 0;
  p.dst = 15;
  p.num_flits = 1;
  p.payload = 0x1122334455667788;
  p.addr = 0x99AABBCCDDEEFF00;
  ASSERT_TRUE(net.Inject(p));
  net.Tick();  // the NIC sends the flit onto its link
  Serializer s;
  net.Save(s);
  const std::string clean = s.bytes();
  Serializer tail;
  tail.U64(p.payload);
  tail.U64(p.addr);
  const std::size_t at = clean.find(tail.bytes());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(clean.rfind(tail.bytes()), at) << "the flit should be unique";
  const std::size_t vc_at = at - 5;

  // The error message of loading `bytes` into a fresh network, "" if none.
  const auto load_error = [&](const std::string& bytes) -> std::string {
    Network fresh(cfg);
    Deserializer d(bytes);
    try {
      fresh.Load(d);
      d.Finish();
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  const auto with_vc = [&](VcId vc) {
    std::string bytes = clean;
    for (int i = 0; i < 4; ++i) {
      bytes[vc_at + static_cast<std::size_t>(i)] = static_cast<char>(
          (static_cast<std::uint32_t>(vc) >> (8 * i)) & 0xFF);
    }
    return bytes;
  };
  EXPECT_EQ(load_error(clean), "");
  EXPECT_EQ(load_error(with_vc(cfg.num_vcs - 1)), "");
  EXPECT_NE(load_error(with_vc(cfg.num_vcs)).find("flit on VC 2 of 2"),
            std::string::npos);
  EXPECT_NE(load_error(with_vc(-1)).find("flit on VC -1"), std::string::npos);
}

// Network::Load refuses an in-flight credit on a VC the receiving NIC or
// router does not have (both index their credit counters by it). A
// single-flit packet from tile 0 leaves router 0 at cycle 2, which sends a
// credit back to NIC 0, and router 1 at cycle 4, which sends one back to
// router 0; each is the only credit in flight one cycle later. A credit
// line holding one credit saves as its count, the credit's due cycle (now)
// and its i32 vc.
TEST(NetworkTest, LoadRefusesCreditOnAVcOutOfRange) {
  const NetworkConfig cfg = SmallConfig();
  const auto load_error = [&](const std::string& bytes) -> std::string {
    Network fresh(cfg);
    Deserializer d(bytes);
    try {
      fresh.Load(d);
      d.Finish();
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  for (const int ticks : {3, 5}) {  // NIC-bound, then router-bound
    SCOPED_TRACE(ticks);
    Network net(cfg);
    Packet p;
    p.type = PacketType::kReadRequest;
    p.src = 0;
    p.dst = 15;
    p.num_flits = 1;
    ASSERT_TRUE(net.Inject(p));
    for (int i = 0; i < ticks; ++i) net.Tick();
    Serializer s;
    net.Save(s);
    const std::string clean = s.bytes();
    Serializer line;
    line.U64(1);
    line.U64(net.now());
    Save(line, Credit{0});
    const std::size_t at = clean.find(line.bytes());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(clean.rfind(line.bytes()), at) << "the credit should be unique";
    const std::size_t vc_at = at + 16;
    const auto with_vc = [&](VcId vc) {
      std::string bytes = clean;
      for (int i = 0; i < 4; ++i) {
        bytes[vc_at + static_cast<std::size_t>(i)] = static_cast<char>(
            (static_cast<std::uint32_t>(vc) >> (8 * i)) & 0xFF);
      }
      return bytes;
    };
    EXPECT_EQ(load_error(clean), "");
    EXPECT_EQ(load_error(with_vc(cfg.num_vcs - 1)), "");
    EXPECT_NE(load_error(with_vc(99)).find("credit on VC 99 of 2"),
              std::string::npos);
    EXPECT_NE(load_error(with_vc(-1)).find("credit on VC -1"),
              std::string::npos);
  }
}

TEST(NetworkTest, FlitConservationUnderRandomTraffic) {
  // Property: after draining, every injected flit was ejected, per class.
  NetworkConfig cfg = SmallConfig();
  Network net(cfg);
  CollectSink sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);

  Rng rng(77);
  for (int cycle = 0; cycle < 400; ++cycle) {
    if (rng.Bernoulli(0.4)) {
      Packet p;
      p.type = static_cast<PacketType>(rng.NextBounded(kNumPacketTypes));
      p.src = static_cast<NodeId>(rng.NextBounded(16));
      p.dst = static_cast<NodeId>(rng.NextBounded(16));
      p.num_flits = PacketSizes{}.SizeOf(p.type);
      if (!net.CanInject(p.src, p.cls())) continue;
      ASSERT_TRUE(net.Inject(p));
    }
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(20000));
  const NetworkSummary s = net.Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(s.flits_injected[ci], s.flits_ejected[ci]);
    EXPECT_EQ(s.packets_injected[ci], s.packets_ejected[ci]);
  }
  EXPECT_EQ(net.FlitsInFlight(), 0u);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: every routing x policy combination must deliver a
// random many-to-few workload completely, with no deadlock, on the safe
// configurations.
// ---------------------------------------------------------------------------

struct SweepParam {
  RoutingAlgorithm routing;
  VcPolicyKind policy;
  int num_vcs;
};

class NetworkSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(NetworkSweepTest, ManyToFewDeliversAll) {
  const SweepParam param = GetParam();
  NetworkConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.num_vcs = param.num_vcs;
  cfg.vc_depth = 4;
  cfg.routing = param.routing;
  cfg.vc_policy = param.policy;
  Network net(cfg);
  // The traffic below matches the bottom MC placement; distribute the
  // static link analysis so link-aware policies are exercised.
  net.ConfigureLinkModes(
      AnalyzeLinkUsage(TilePlan(8, 8, 8, McPlacement::kBottom),
                       param.routing));

  // Request sinks at the bottom row (MC-like), reply sinks everywhere else.
  CollectSink mc_sink;
  CollectSink core_sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    net.SetSink(n, net.CoordOf(n).y == 7 ? &mc_sink : &core_sink);
  }

  // Cores (rows 0..6) send requests to the bottom row; bottom row sends
  // replies back. Class-correct traffic so split policies are exercised.
  int sent = 0;
  Rng rng(123);
  for (int round = 0; round < 6; ++round) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      const Coord c = net.CoordOf(n);
      Packet p;
      if (c.y == 7) {
        p.type = PacketType::kReadReply;
        p.num_flits = 5;
        p.dst = net.NodeAt(
            {static_cast<int>(rng.NextBounded(8)),
             static_cast<int>(rng.NextBounded(7))});
      } else {
        p.type = PacketType::kReadRequest;
        p.num_flits = 1;
        p.dst = net.NodeAt({static_cast<int>(rng.NextBounded(8)), 7});
      }
      p.src = n;
      if (p.src == p.dst) continue;
      ASSERT_TRUE(net.Inject(p));
      ++sent;
    }
    for (int k = 0; k < 3; ++k) net.Tick();
  }

  ASSERT_TRUE(net.Drain(50000)) << "network failed to drain";
  EXPECT_FALSE(net.Deadlocked());
  EXPECT_EQ(static_cast<int>(mc_sink.packets.size() + core_sink.packets.size()),
            sent);
}

INSTANTIATE_TEST_SUITE_P(
    RoutingPolicyMatrix, NetworkSweepTest,
    ::testing::Values(
        SweepParam{RoutingAlgorithm::kXY, VcPolicyKind::kSplit, 2},
        SweepParam{RoutingAlgorithm::kYX, VcPolicyKind::kSplit, 2},
        SweepParam{RoutingAlgorithm::kXYYX, VcPolicyKind::kSplit, 2},
        SweepParam{RoutingAlgorithm::kXY, VcPolicyKind::kFullMonopolize, 2},
        SweepParam{RoutingAlgorithm::kYX, VcPolicyKind::kFullMonopolize, 2},
        SweepParam{RoutingAlgorithm::kXYYX, VcPolicyKind::kPartialMonopolize,
                   2},
        SweepParam{RoutingAlgorithm::kXY, VcPolicyKind::kAsymmetric, 4},
        SweepParam{RoutingAlgorithm::kXYYX, VcPolicyKind::kAsymmetric, 4}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = std::string(RoutingName(info.param.routing)) + "_" +
                         VcPolicyName(info.param.policy) + "_v" +
                         std::to_string(info.param.num_vcs);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gnoc
