// Tests for the ideal (contention-free) interconnect and its use as an
// upper bound for the real NoC.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "gpgpu/workload.hpp"
#include "noc/ideal.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

class CollectSink : public PacketSink {
 public:
  bool Accept(const Packet& p, Cycle now) override {
    packets.push_back(p);
    times.push_back(now);
    return true;
  }
  std::vector<Packet> packets;
  std::vector<Cycle> times;
};

NetworkConfig Cfg() {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  return cfg;
}

TEST(IdealFabricTest, DeliversAtExactZeroLoadLatency) {
  // Tile 0 to tile 15 of the 4x4 grid crosses the topology's own links:
  // 6 mesh hops, one wrap link per torus dimension, one hop per dimension
  // of the cmesh's 2x2 router grid, one -s1 chord of the circulant.
  const std::pair<TopologyKind, Cycle> cases[] = {
      {TopologyKind::kMesh, 6},
      {TopologyKind::kTorus, 2},
      {TopologyKind::kCMesh, 2},
      {TopologyKind::kCirculant, 1},
  };
  for (const auto& [kind, hops] : cases) {
    NetworkConfig cfg = Cfg();
    cfg.topology = kind;
    IdealFabric fabric(cfg);
    CollectSink sink;
    fabric.SetSink(15, &sink);
    Packet p;
    p.type = PacketType::kReadRequest;
    p.src = 0;
    p.dst = 15;
    p.num_flits = 1;
    ASSERT_TRUE(fabric.Inject(p));
    const Cycle latency = 4u + 2u * hops;
    EXPECT_EQ(fabric.DeliveryLatency(0, 15), latency) << TopologyName(kind);
    for (int c = 0; c < 40 && sink.packets.empty(); ++c) fabric.Tick();
    ASSERT_EQ(sink.packets.size(), 1u) << TopologyName(kind);
    EXPECT_EQ(sink.times[0], latency) << TopologyName(kind);
  }
}

// The ideal fabric takes any packet a network could carry, and none
// other: a source or destination off the grid, or a flit count outside
// [1, 65535], throws instead of being delivered somewhere.
TEST(IdealFabricTest, InjectRefusesImpossiblePackets) {
  IdealFabric fabric(Cfg());  // 4x4
  const auto inject = [&fabric](NodeId src, NodeId dst, int num_flits) {
    Packet p;
    p.type = PacketType::kReadReply;
    p.src = src;
    p.dst = dst;
    p.num_flits = num_flits;
    return fabric.Inject(p);
  };
  EXPECT_THROW(inject(0, 9999, 5), std::invalid_argument);
  EXPECT_THROW(inject(0, 16, 5), std::invalid_argument);
  EXPECT_THROW(inject(-1, 3, 5), std::invalid_argument);
  EXPECT_THROW(inject(0, 3, 70000), std::invalid_argument);
  EXPECT_THROW(inject(0, 3, 0), std::invalid_argument);
  EXPECT_EQ(fabric.FlitsInFlight(), 0u);
  EXPECT_EQ(fabric.Summarize().packets_injected[1], 0u);
  EXPECT_TRUE(inject(15, 0, 65535));
}

TEST(IdealFabricTest, NeverRefusesInjection) {
  IdealFabric fabric(Cfg());
  CollectSink sink;
  for (NodeId n = 0; n < 16; ++n) fabric.SetSink(n, &sink);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(fabric.CanInject(0, TrafficClass::kReply));
    Packet p;
    p.type = PacketType::kReadReply;
    p.src = 0;
    p.dst = 15;
    p.num_flits = 5;
    ASSERT_TRUE(fabric.Inject(p));
  }
  for (int c = 0; c < 40; ++c) fabric.Tick();
  // Infinite bandwidth: everything arrives in one burst at the due cycle.
  EXPECT_EQ(sink.packets.size(), 1000u);
  EXPECT_FALSE(fabric.Deadlocked());
  EXPECT_EQ(fabric.FlitsInFlight(), 0u);
}

TEST(IdealFabricTest, PerDestinationOrderPreserved) {
  IdealFabric fabric(Cfg());
  CollectSink sink;
  fabric.SetSink(5, &sink);
  // Same (src, dst): later injection must not arrive earlier.
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.type = PacketType::kReadRequest;
    p.src = 0;
    p.dst = 5;
    p.num_flits = 1;
    p.payload = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(fabric.Inject(p));
    fabric.Tick();
  }
  for (int c = 0; c < 40; ++c) fabric.Tick();
  ASSERT_EQ(sink.packets.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.packets[i].payload, i);
  }
}

TEST(IdealFabricTest, StalledSinkRetriesInOrder) {
  IdealFabric fabric(Cfg());
  struct Gated : PacketSink {
    bool Accept(const Packet& p, Cycle) override {
      if (!open) return false;
      got.push_back(p.payload);
      return true;
    }
    bool open = false;
    std::vector<std::uint64_t> got;
  } sink;
  fabric.SetSink(3, &sink);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.type = PacketType::kWriteReply;
    p.src = 0;
    p.dst = 3;
    p.payload = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(fabric.Inject(p));
  }
  for (int c = 0; c < 30; ++c) fabric.Tick();
  EXPECT_TRUE(sink.got.empty());
  EXPECT_EQ(fabric.FlitsInFlight(), 5u);
  sink.open = true;
  fabric.Tick();
  ASSERT_EQ(sink.got.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(sink.got[i], i);
}

TEST(IdealFabricTest, SummaryCountsAndLatency) {
  IdealFabric fabric(Cfg());
  CollectSink sink;
  fabric.SetSink(1, &sink);
  Packet p;
  p.type = PacketType::kReadReply;
  p.src = 0;
  p.dst = 1;
  p.num_flits = 5;
  ASSERT_TRUE(fabric.Inject(p));
  for (int c = 0; c < 10; ++c) fabric.Tick();
  const NetworkSummary s = fabric.Summarize();
  const auto rep = static_cast<std::size_t>(ClassIndex(TrafficClass::kReply));
  EXPECT_EQ(s.packets_injected[rep], 1u);
  EXPECT_EQ(s.packets_ejected[rep], 1u);
  EXPECT_EQ(s.flits_ejected[rep], 5u);
  EXPECT_DOUBLE_EQ(s.packet_latency[rep].mean(), 6.0);  // base 4 + 1 hop * 2
}

TEST(IdealFabricTest, NetAccessorThrows) {
  IdealFabric fabric(Cfg());
  EXPECT_THROW(fabric.net(TrafficClass::kRequest), std::logic_error);
  EXPECT_EQ(fabric.num_networks(), 0);
}

TEST(IdealNocTest, UpperBoundsEveryRealConfiguration) {
  // IPC under the ideal interconnect must dominate every real NoC config.
  GpuConfig ideal_cfg = GpuConfig::Baseline();
  ideal_cfg.ideal_noc = true;
  GpuSystem ideal(ideal_cfg, FindWorkload("KMN"));
  const double ideal_ipc = ideal.Run(1000, 5000).ipc;

  for (auto [routing, policy] :
       {std::pair{RoutingAlgorithm::kXY, VcPolicyKind::kSplit},
        std::pair{RoutingAlgorithm::kYX, VcPolicyKind::kFullMonopolize}}) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.routing = routing;
    cfg.vc_policy = policy;
    GpuSystem gpu(cfg, FindWorkload("KMN"));
    const double real_ipc = gpu.Run(1000, 5000).ipc;
    EXPECT_LT(real_ipc, ideal_ipc)
        << RoutingName(routing) << "/" << VcPolicyName(policy);
  }
}

}  // namespace
}  // namespace gnoc
