// Tests for the Fabric abstraction: single-network behaviour parity, the
// dual-physical-network division (paper Sec. 4.2) and trace recording.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "gpgpu/workload.hpp"
#include "noc/fabric.hpp"
#include "noc/ideal.hpp"
#include "noc/trace.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

NetworkConfig SmallCfg() {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 2;
  return cfg;
}

class CollectSink : public PacketSink {
 public:
  bool Accept(const Packet& p, Cycle) override {
    packets.push_back(p);
    return true;
  }
  std::vector<Packet> packets;
};

TEST(FabricTest, SingleDeliversBothClasses) {
  SingleNetworkFabric fabric(SmallCfg());
  CollectSink sink;
  fabric.SetSink(15, &sink);
  Packet req;
  req.type = PacketType::kReadRequest;
  req.src = 0;
  req.dst = 15;
  req.num_flits = 1;
  Packet rep;
  rep.type = PacketType::kReadReply;
  rep.src = 0;
  rep.dst = 15;
  rep.num_flits = 5;
  ASSERT_TRUE(fabric.Inject(req));
  ASSERT_TRUE(fabric.Inject(rep));
  for (int i = 0; i < 200; ++i) fabric.Tick();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(fabric.num_networks(), 1);
  EXPECT_EQ(&fabric.net(TrafficClass::kRequest),
            &fabric.net(TrafficClass::kReply));
}

TEST(FabricTest, DualSegregatesClassesPhysically) {
  NetworkFabric fabric(SmallCfg(), NetworkDivision::kPhysical);
  CollectSink sink;
  fabric.SetSink(15, &sink);
  Packet req;
  req.type = PacketType::kReadRequest;
  req.src = 0;
  req.dst = 15;
  req.num_flits = 1;
  Packet rep;
  rep.type = PacketType::kReadReply;
  rep.src = 0;
  rep.dst = 15;
  rep.num_flits = 5;
  ASSERT_TRUE(fabric.Inject(req));
  ASSERT_TRUE(fabric.Inject(rep));
  for (int i = 0; i < 200; ++i) fabric.Tick();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(fabric.num_networks(), 2);
  EXPECT_NE(&fabric.net(TrafficClass::kRequest),
            &fabric.net(TrafficClass::kReply));
  // Every flit of each class moved only through its own network.
  const auto req_summary = fabric.net(TrafficClass::kRequest).Summarize();
  const auto rep_summary = fabric.net(TrafficClass::kReply).Summarize();
  const auto rq = static_cast<std::size_t>(ClassIndex(TrafficClass::kRequest));
  const auto rp = static_cast<std::size_t>(ClassIndex(TrafficClass::kReply));
  EXPECT_EQ(req_summary.flits_injected[rq], 1u);
  EXPECT_EQ(req_summary.flits_injected[rp], 0u);
  EXPECT_EQ(rep_summary.flits_injected[rp], 5u);
  EXPECT_EQ(rep_summary.flits_injected[rq], 0u);
}

TEST(FabricTest, DualSummarizeMergesBothNetworks) {
  NetworkFabric fabric(SmallCfg(), NetworkDivision::kPhysical);
  CollectSink sink;
  for (NodeId n = 0; n < 16; ++n) fabric.SetSink(n, &sink);
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.type = i % 2 == 0 ? PacketType::kReadRequest : PacketType::kWriteReply;
    p.src = static_cast<NodeId>(i);
    p.dst = static_cast<NodeId>(15 - i);
    p.num_flits = 1;
    ASSERT_TRUE(fabric.Inject(p));
  }
  for (int i = 0; i < 300; ++i) fabric.Tick();
  const NetworkSummary s = fabric.Summarize();
  EXPECT_EQ(s.packets_ejected[0] + s.packets_ejected[1], 4u);
  const auto by_type = fabric.PacketsByType();
  EXPECT_EQ(by_type[static_cast<int>(PacketType::kReadRequest)], 2u);
  EXPECT_EQ(by_type[static_cast<int>(PacketType::kWriteReply)], 2u);
}

// The reply network of a physical division throttles a rate-limited reply
// class; the fabric's summary must carry the cycles that network counted.
TEST(FabricTest, PhysicalSummarizeCountsEveryNetworksThrottling) {
  NetworkConfig cfg = SmallCfg();
  cfg.num_vcs = 4;                 // two per physical network
  cfg.qos.classes[1].rate = 0.05;  // class 1 = kReply
  cfg.qos.classes[1].burst = 1;
  NetworkFabric fabric(cfg, NetworkDivision::kPhysical);
  CollectSink sink;
  for (NodeId n = 0; n < 16; ++n) fabric.SetSink(n, &sink);
  for (int c = 0; c < 400; ++c) {
    Packet rep;
    rep.type = PacketType::kReadReply;
    rep.src = static_cast<NodeId>(c % 4);
    rep.dst = 15;
    rep.num_flits = 5;
    fabric.Inject(rep);  // refused while the NIC's queue is full
    fabric.Tick();
  }
  const auto rq = static_cast<std::size_t>(ClassIndex(TrafficClass::kRequest));
  const auto rp = static_cast<std::size_t>(ClassIndex(TrafficClass::kReply));
  const std::uint64_t throttled =
      fabric.net(TrafficClass::kReply).Summarize().qos_throttle_cycles[rp];
  ASSERT_GT(throttled, 0u);
  const NetworkSummary s = fabric.Summarize();
  EXPECT_EQ(s.qos_throttle_cycles[rp], throttled);
  EXPECT_EQ(s.qos_throttle_cycles[rq], 0u);
}

/// Offers `fabric` six packets a cycle from three sources of a 16-tile grid
/// for 60 cycles, more than small injection queues take. Returns the
/// number offered and the trace records of those accepted, in call order.
std::pair<std::size_t, std::vector<TraceRecord>> OfferBursts(Fabric& fabric) {
  std::size_t offered = 0;
  std::vector<TraceRecord> accepted;
  for (int c = 0; c < 60; ++c) {
    for (int i = 0; i < 6; ++i) {
      Packet p;
      p.type = static_cast<PacketType>((c + i) % kNumPacketTypes);
      p.src = static_cast<NodeId>(i % 3);
      p.dst = static_cast<NodeId>(15 - (c + i) % 5);
      p.num_flits = p.cls() == TrafficClass::kReply ? 5 : 1;
      p.addr = static_cast<std::uint64_t>(c * 64 + i);
      const Cycle now = fabric.now();
      ++offered;
      if (fabric.Inject(p)) {
        accepted.push_back({now, p.src, p.dst, p.type, p.num_flits, p.addr});
      }
    }
    fabric.Tick();
  }
  return {offered, accepted};
}

// Under virtual division, physical division and the ideal NoC, the trace
// handed to the fabric holds every accepted injection exactly once, in
// call order, and neither a refused one nor one that threw.
TEST(FabricTest, TraceHoldsEachAcceptedInjectionOnceInCallOrder) {
  NetworkConfig cfg = SmallCfg();
  cfg.num_vcs = 4;
  cfg.inject_queue_capacity = 2;
  NetworkFabric virt(cfg);
  NetworkFabric phys(cfg, NetworkDivision::kPhysical);
  IdealFabric ideal(cfg);
  TraceWriter virt_trace;
  TraceWriter phys_trace;
  TraceWriter ideal_trace;
  virt.SetTrace(&virt_trace);
  phys.SetTrace(&phys_trace);
  ideal.SetTrace(&ideal_trace);
  const struct {
    const char* name;
    Fabric& fabric;
    const TraceWriter& trace;
    bool refuses;  ///< finite injection queues
  } cases[] = {{"virtual", virt, virt_trace, true},
               {"physical", phys, phys_trace, true},
               {"ideal", ideal, ideal_trace, false}};
  CollectSink sink;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (NodeId n = 0; n < 16; ++n) c.fabric.SetSink(n, &sink);
    Packet off_grid;
    off_grid.src = 0;
    off_grid.dst = 16;
    EXPECT_THROW(c.fabric.Inject(off_grid), std::invalid_argument);
    const auto [offered, accepted] = OfferBursts(c.fabric);
    ASSERT_GT(accepted.size(), 50u);
    if (c.refuses) {
      EXPECT_LT(accepted.size(), offered);
    } else {
      EXPECT_EQ(accepted.size(), offered);
    }
    EXPECT_EQ(c.trace.records(), accepted);
  }
}

TEST(FabricTest, GpuSystemRunsOnPhysicalDivision) {
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.division = NetworkDivision::kPhysical;
  GpuSystem gpu(cfg, FindWorkload("HST"));
  const GpuRunStats stats = gpu.Run(/*warmup=*/1000, /*measure=*/4000);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.ipc, 0.0);
}

TEST(FabricTest, VirtualDivisionTracksPhysicalDivision) {
  // The paper's Sec. 4.2 claim: the virtual division costs almost nothing.
  // We allow a wider (10%) band than the paper's 0.03% since this is a
  // single workload at short run length, not a 25-benchmark geomean.
  GpuConfig virt = GpuConfig::Baseline();
  GpuConfig phys = virt;
  phys.division = NetworkDivision::kPhysical;
  GpuSystem virt_gpu(virt, FindWorkload("SRAD"));
  GpuSystem phys_gpu(phys, FindWorkload("SRAD"));
  const double virt_ipc = virt_gpu.Run(1500, 6000).ipc;
  const double phys_ipc = phys_gpu.Run(1500, 6000).ipc;
  EXPECT_NEAR(virt_ipc / phys_ipc, 1.0, 0.10);
}

}  // namespace
}  // namespace gnoc
