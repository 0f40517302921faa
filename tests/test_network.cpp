// Integration tests of the assembled mesh network: delivery, ordering,
// latency, credits, and multi-packet stress across routings and policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/deadlock.hpp"
#include "noc/fabric.hpp"
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

// Network::Inject refuses, in every build, a packet it cannot carry: a
// source or destination that is not a tile would route off the grid, and
// a flit count past 65535 would wrap its record's 16-bit size.
TEST(NetworkTest, InjectRefusesImpossiblePackets) {
  Network net(NetworkConfig{});  // 8x8
  const auto inject = [&net](NodeId src, NodeId dst, int num_flits) {
    Packet p;
    p.type = PacketType::kWriteRequest;
    p.src = src;
    p.dst = dst;
    p.num_flits = num_flits;
    return net.Inject(p);
  };
  EXPECT_THROW(inject(0, 9999, 1), std::invalid_argument);
  EXPECT_THROW(inject(0, 64, 1), std::invalid_argument);
  EXPECT_THROW(inject(0, -1, 1), std::invalid_argument);
  EXPECT_THROW(inject(64, 0, 1), std::invalid_argument);
  EXPECT_THROW(inject(0, 1, 70000), std::invalid_argument);
  EXPECT_THROW(inject(0, 1, 65536), std::invalid_argument);
  EXPECT_THROW(inject(0, 1, 0), std::invalid_argument);
  EXPECT_EQ(net.FlitsInFlight(), 0u);
  EXPECT_EQ(net.packets().live(), 0u);
  try {
    inject(3, 1, 70000);
    ADD_FAILURE() << "accepted a 70000-flit packet";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "write-request packet 0 (src 3, dst 1, 70000 flits): the "
                 "flit count is outside [1, 65535]");
  }
  EXPECT_TRUE(inject(63, 0, 65535));
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

// --- Loaded flits the network could not have made ------------------------
//
// Offsets within a flit's 75-byte v5 record: u64 packet_id @0, u8 kind @8,
// u8 cls @9, i32 src @10, i32 dst @14, i32 dst_coord x @18 and y @22, u16
// seq @26, u16 packet_size @28, u64 created @30, u64 injected @38, u64
// ready @46, i32 vc @54, u8 type_raw @58, u64 payload @59, u64 addr @67.
constexpr std::size_t kFlitKind = 8;
constexpr std::size_t kFlitSrc = 10;
constexpr std::size_t kFlitDst = 14;
constexpr std::size_t kFlitDstX = 18;
constexpr std::size_t kFlitSeq = 26;
constexpr std::size_t kFlitSize = 28;
constexpr std::size_t kFlitCreated = 30;
constexpr std::size_t kFlitInjected = 38;
constexpr std::size_t kFlitType = 58;
constexpr std::size_t kFlitPayload = 59;
constexpr std::size_t kFlitAddr = 67;

/// A SmallConfig network's payload after it carried `packet` (from tile 0
/// to tile 15, created at cycle 0) for `ticks` cycles, and the offsets of
/// its flits' records in payload order, found by their payload and addr.
struct CarriedPacket {
  std::string bytes;
  std::vector<std::size_t> flits;
};

CarriedPacket Carry(PacketType type, int num_flits, int ticks) {
  Network net(SmallConfig());
  Packet p;
  p.type = type;
  p.src = 0;
  p.dst = 15;
  p.num_flits = num_flits;
  p.payload = 0x1122334455667788;
  p.addr = 0x99AABBCCDDEEFF00;
  EXPECT_TRUE(net.Inject(p));
  for (int i = 0; i < ticks; ++i) net.Tick();
  Serializer s;
  net.Save(s);
  CarriedPacket carried{s.TakeBytes(), {}};
  Serializer tail;
  tail.U64(p.payload);
  tail.U64(p.addr);
  for (std::size_t at = carried.bytes.find(tail.bytes());
       at != std::string::npos;
       at = carried.bytes.find(tail.bytes(), at + 1)) {
    carried.flits.push_back(at - kFlitPayload);
  }
  return carried;
}

/// `bytes` with the `width`-byte little-endian field at `at` set to
/// `value`.
std::string Patched(std::string bytes, std::size_t at, std::uint64_t value,
                    int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return bytes;
}

/// The error message of loading `bytes` into a fresh SmallConfig network,
/// "" if none.
std::string NetworkLoadError(const std::string& bytes) {
  Network fresh(SmallConfig());
  Deserializer d(bytes);
  try {
    fresh.Load(d);
    d.Finish();
  } catch (const SerializeError& e) {
    return e.what();
  }
  return "";
}

// RC indexes its route LUT by a flit's destination tile: Load refuses a
// dst that is not a tile, or a dst_coord that is not dst's coordinate. The
// snapshot holds one request on its injection link. dst_coord.x = 100000
// is the reproducer: it loaded, and the first Tick read past the LUT.
TEST(NetworkTest, LoadRefusesAFlitDestinationOffTheGrid) {
  const CarriedPacket c = Carry(PacketType::kReadRequest, 1, 1);
  ASSERT_EQ(c.flits.size(), 1u);
  const std::size_t f = c.flits[0];
  EXPECT_EQ(NetworkLoadError(c.bytes), "");
  EXPECT_NE(NetworkLoadError(Patched(c.bytes, f + kFlitDstX, 100000, 4))
                .find("dst_coord (100000,3) is not tile 15's (3,3)"),
            std::string::npos);
  EXPECT_NE(NetworkLoadError(Patched(c.bytes, f + kFlitDst, 14, 4))
                .find("dst_coord (3,3) is not tile 14's (2,3)"),
            std::string::npos);
  for (const std::uint64_t dst : {16u, 0xFFFFFFFFu}) {  // past the grid, -1
    EXPECT_NE(NetworkLoadError(Patched(c.bytes, f + kFlitDst, dst, 4))
                  .find("is not a tile of the 4x4 grid"),
              std::string::npos)
        << dst;
  }
  // The sink replies to the source: it must be a tile too.
  EXPECT_NE(NetworkLoadError(Patched(c.bytes, f + kFlitSrc, 16, 4))
                .find("node 16 is not a tile"),
            std::string::npos);
}

// The NIC reassembles by kind: Load refuses a kind that contradicts the
// flit's seq and its packet's size (the snapshot holds one single-flit
// request on its injection link).
TEST(NetworkTest, LoadRefusesAFlitKindThatContradictsSeqAndSize) {
  const CarriedPacket c = Carry(PacketType::kReadRequest, 1, 1);
  ASSERT_EQ(c.flits.size(), 1u);
  const std::size_t f = c.flits[0];
  const std::string bad[] = {
      Patched(c.bytes, f + kFlitKind, 0, 1),  // a head of a 1-flit packet
      Patched(c.bytes, f + kFlitSeq, 1, 2),   // seq past the packet
      Patched(c.bytes, f + kFlitSize, 0, 2),  // a 0-flit packet
      Patched(c.bytes, f + kFlitSize, 2, 2),  // head-tail of 2 flits
  };
  for (const std::string& bytes : bad) {
    EXPECT_NE(NetworkLoadError(bytes).find("contradicts seq"),
              std::string::npos);
  }
}

// A sink takes a packet by its type: Load refuses a type_raw that is not a
// packet type of the flit's class.
TEST(NetworkTest, LoadRefusesAFlitTypeNotOfItsClass) {
  const CarriedPacket c = Carry(PacketType::kReadRequest, 1, 1);
  ASSERT_EQ(c.flits.size(), 1u);
  const std::size_t at = c.flits[0] + kFlitType;
  EXPECT_EQ(NetworkLoadError(Patched(c.bytes, at, 1, 1)), "")
      << "a write request is a request";
  EXPECT_NE(NetworkLoadError(Patched(c.bytes, at, 2, 1))
                .find("type 2 is not a packet type of class 0"),
            std::string::npos);
  EXPECT_NE(NetworkLoadError(Patched(c.bytes, at, 4, 1))
                .find("type 4 is not a packet type of class 0"),
            std::string::npos);
}

// Load keeps one record per packet id: flits of one packet that disagree
// on a per-packet field are refused. One tick into a 5-flit reply, its
// head is on the injection link and four flits wait in the NIC's send
// FIFO; each case patches one field of one of them.
TEST(NetworkTest, LoadRefusesFlitsOfOnePacketThatDisagree) {
  const CarriedPacket c = Carry(PacketType::kReadReply, 5, 1);
  ASSERT_EQ(c.flits.size(), 5u);
  EXPECT_EQ(NetworkLoadError(c.bytes), "");
  struct Case {
    std::size_t flit;
    std::size_t field;
    std::uint64_t value;
    int width;
    const char* name;
  };
  const Case cases[] = {
      {4, kFlitSrc, 1, 4, "src"},
      {1, kFlitSize, 6, 2, "packet_size"},
      {2, kFlitCreated, 9, 8, "created"},
      {4, kFlitInjected, 9, 8, "injected"},
      {3, kFlitType, 3, 1, "type_raw"},  // a write reply
      {0, kFlitPayload, 7, 8, "payload"},
      {4, kFlitAddr, 7, 8, "addr"},
  };
  for (const Case& k : cases) {
    EXPECT_EQ(NetworkLoadError(Patched(c.bytes, c.flits[k.flit] + k.field,
                                       k.value, k.width)),
              std::string("flits of packet 1 disagree on ") + k.name)
        << "flit " << k.flit;
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

const SweepParam kSweepParams[] = {
    {RoutingAlgorithm::kXY, VcPolicyKind::kSplit, 2},
    {RoutingAlgorithm::kYX, VcPolicyKind::kSplit, 2},
    {RoutingAlgorithm::kXYYX, VcPolicyKind::kSplit, 2},
    {RoutingAlgorithm::kXY, VcPolicyKind::kFullMonopolize, 2},
    {RoutingAlgorithm::kYX, VcPolicyKind::kFullMonopolize, 2},
    {RoutingAlgorithm::kXYYX, VcPolicyKind::kPartialMonopolize, 2},
    {RoutingAlgorithm::kXY, VcPolicyKind::kAsymmetric, 4},
    {RoutingAlgorithm::kXYYX, VcPolicyKind::kAsymmetric, 4},
};

/// An 8x8 network of the sweep point, its links' class usage analysed for
/// the bottom MC placement the many-to-few traffic follows (so link-aware
/// policies are exercised).
std::unique_ptr<Network> SweepNetwork(const SweepParam& param) {
  NetworkConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.num_vcs = param.num_vcs;
  cfg.vc_depth = 4;
  cfg.routing = param.routing;
  cfg.vc_policy = param.policy;
  auto net = std::make_unique<Network>(cfg);
  const TilePlan plan(8, 8, 8, McPlacement::kBottom);
  net->ConfigureLinkModes(
      AnalyzeLinkUsage(net->topology(), plan, param.routing));
  return net;
}

/// Many-to-few traffic on an 8x8 network: cores (rows 0..6) send requests
/// to the bottom row, the bottom row sends replies back, six rounds three
/// cycles apart. Class-correct, so split policies are exercised. Returns
/// the packets injected.
int InjectManyToFew(Network& net) {
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
      EXPECT_TRUE(net.Inject(p));
      ++sent;
    }
    for (int k = 0; k < 3; ++k) net.Tick();
  }
  return sent;
}

class NetworkSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(NetworkSweepTest, ManyToFewDeliversAll) {
  const std::unique_ptr<Network> owned = SweepNetwork(GetParam());
  Network& net = *owned;
  // Request sinks at the bottom row (MC-like), reply sinks everywhere else.
  CollectSink mc_sink;
  CollectSink core_sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    net.SetSink(n, net.CoordOf(n).y == 7 ? &mc_sink : &core_sink);
  }
  const int sent = InjectManyToFew(net);

  ASSERT_TRUE(net.Drain(50000)) << "network failed to drain";
  EXPECT_FALSE(net.Deadlocked());
  EXPECT_EQ(static_cast<int>(mc_sink.packets.size() + core_sink.packets.size()),
            sent);
}

INSTANTIATE_TEST_SUITE_P(
    RoutingPolicyMatrix, NetworkSweepTest, ::testing::ValuesIn(kSweepParams),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = std::string(RoutingName(info.param.routing)) + "_" +
                         VcPolicyName(info.param.policy) + "_v" +
                         std::to_string(info.param.num_vcs);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

/// Uniform random traffic for `cycles` cycles at 0.1 packets per tile per
/// cycle, half 1-flit requests and half 5-flit replies, into `fabric`,
/// which then ticks until it holds no flit. Returns the peak count of live
/// packet records over `networks`, sampled every cycle.
std::size_t RunUniformAndDrain(Fabric& fabric, int tiles, int cycles,
                               const std::vector<const Network*>& networks) {
  Rng rng(0x7AB1E);
  std::size_t peak = 0;
  const auto sample = [&] {
    std::size_t live = 0;
    for (const Network* net : networks) live += net->packets().live();
    peak = std::max(peak, live);
  };
  for (int c = 0; c < cycles; ++c) {
    for (NodeId n = 0; n < tiles; ++n) {
      if (!rng.Bernoulli(0.1)) continue;
      Packet p;
      p.type = rng.Bernoulli(0.5) ? PacketType::kReadRequest
                                  : PacketType::kReadReply;
      p.num_flits = p.type == PacketType::kReadRequest ? 1 : 5;
      p.src = n;
      p.dst = static_cast<NodeId>(
          rng.NextBounded(static_cast<std::uint64_t>(tiles)));
      if (p.dst != p.src && fabric.CanInject(p.src, p.cls())) {
        EXPECT_TRUE(fabric.Inject(p));
      }
    }
    fabric.Tick();
    sample();
  }
  for (int c = 0; c < 20000 && fabric.FlitsInFlight() != 0; ++c) {
    fabric.Tick();
  }
  EXPECT_EQ(fabric.FlitsInFlight(), 0u) << "failed to drain";
  return peak;
}

// Every packet's record is released once its sink accepts the tail: a
// drained network's packet table is empty — across the routing x policy
// matrix, the torus, cmesh and circulant topologies, and both networks of
// a physical-division NetworkFabric — though each table held records
// mid-run.
TEST(NetworkTest, DrainedNetworksHoldNoLivePacketRecords) {
  CollectSink sink;
  for (const SweepParam& param : kSweepParams) {
    const std::unique_ptr<Network> net = SweepNetwork(param);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    InjectManyToFew(*net);
    EXPECT_GT(net->packets().live(), 0u);
    ASSERT_TRUE(net->Drain(50000));
    EXPECT_EQ(net->packets().live(), 0u)
        << RoutingName(param.routing) << "/" << VcPolicyName(param.policy);
  }
  for (const TopologyKind kind :
       {TopologyKind::kTorus, TopologyKind::kCMesh,
        TopologyKind::kCirculant}) {
    NetworkConfig cfg = SmallConfig();
    cfg.topology = kind;
    cfg.num_vcs = 4;  // two dateline halves per class on torus/circulant
    SingleNetworkFabric fabric(cfg);
    for (NodeId n = 0; n < 16; ++n) fabric.SetSink(n, &sink);
    const Network& net = fabric.net(TrafficClass::kRequest);
    EXPECT_GT(RunUniformAndDrain(fabric, 16, 400, {&net}), 0u);
    EXPECT_EQ(net.packets().live(), 0u) << TopologyName(kind);
  }
  NetworkConfig cfg = SmallConfig();
  cfg.num_vcs = 4;
  NetworkFabric dual(cfg, NetworkDivision::kPhysical);
  for (NodeId n = 0; n < 16; ++n) dual.SetSink(n, &sink);
  const Network& requests = dual.net(TrafficClass::kRequest);
  const Network& replies = dual.net(TrafficClass::kReply);
  EXPECT_GT(RunUniformAndDrain(dual, 16, 400, {&requests, &replies}), 0u);
  EXPECT_EQ(requests.packets().live(), 0u);
  EXPECT_EQ(replies.packets().live(), 0u);
}

// A sink that injects from inside Accept — the MC and SM models reply that
// way — while the NIC still holds the delivered packet's record: the NIC
// hands the sink a copy and releases the record after Accept, so relayed
// packets reuse released slots without aliasing a live one. Each chain of
// packets bounces between its two tiles, counting its payload down; every
// delivery must carry its own chain's endpoints, type and flit count.
TEST(NetworkTest, RelaySinkInjectingFromAcceptKeepsRecordsApart) {
  class Relay : public PacketSink {
   public:
    explicit Relay(Network& net) : net_(net) {}
    bool Accept(const Packet& p, Cycle) override {
      if (p.payload > 0) {
        Packet next;
        next.type = p.cls() == TrafficClass::kRequest
                        ? PacketType::kReadReply
                        : PacketType::kWriteRequest;
        next.num_flits = next.type == PacketType::kReadReply ? 5 : 3;
        next.src = p.dst;
        next.dst = p.src;
        next.payload = p.payload - 1;
        next.addr = p.addr;
        if (!net_.Inject(next)) return false;  // retried next cycle
      }
      delivered.push_back(p);
      return true;
    }
    std::vector<Packet> delivered;

   private:
    Network& net_;
  };
  Network net(SmallConfig());
  Relay relay(net);
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &relay);
  constexpr int kChains = 12;
  constexpr std::uint64_t kHops = 9;  // payloads 9 down to 0
  const auto ends = [](std::uint64_t chain) {
    return std::pair<NodeId, NodeId>{static_cast<NodeId>(chain),
                                     static_cast<NodeId>(15 - chain)};
  };
  for (std::uint64_t chain = 0; chain < kChains; ++chain) {
    Packet p;
    p.type = PacketType::kReadRequest;
    p.src = ends(chain).first;
    p.dst = ends(chain).second;
    p.payload = kHops;
    p.addr = chain;
    ASSERT_TRUE(net.Inject(p));
  }
  ASSERT_TRUE(net.Drain(50000));
  EXPECT_EQ(net.packets().live(), 0u);
  ASSERT_EQ(relay.delivered.size(), kChains * (kHops + 1));
  for (const Packet& p : relay.delivered) {
    const auto [a, b] = ends(p.addr);
    EXPECT_TRUE((p.src == a && p.dst == b) || (p.src == b && p.dst == a))
        << "chain " << p.addr << " delivered " << p.src << "->" << p.dst;
    // The chain leaves a at even payload distance from its start.
    const bool outbound = (kHops - p.payload) % 2 == 0;
    EXPECT_EQ(p.src, outbound ? a : b) << "chain " << p.addr;
    const bool request = p.cls() == TrafficClass::kRequest;
    EXPECT_EQ(request, outbound) << "chain " << p.addr;
    EXPECT_EQ(p.num_flits, p.type == PacketType::kReadRequest    ? 1
                           : p.type == PacketType::kWriteRequest ? 3
                                                                 : 5);
  }
}

}  // namespace
}  // namespace gnoc
