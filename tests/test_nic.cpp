// White-box unit tests of the NIC: source VC allocation, injection pacing,
// credit handling, reassembly, delivery backpressure and capacity limits.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "noc/arbiter.hpp"
#include "noc/nic.hpp"
#include "noc/packet.hpp"

namespace gnoc {
namespace {

NetworkConfig DefaultConfig() {
  NetworkConfig cfg;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  cfg.vc_policy = VcPolicyKind::kSplit;
  cfg.inject_queue_capacity = 4;
  cfg.eject_capacity = 16;
  return cfg;
}

struct NicHarness {
  explicit NicHarness(const NetworkConfig& cfg) : nic(0, Coord{0, 0}, cfg) {
    nic.SetPacketTable(&packets);
    nic.SetInjectionChannel(&inject);
    nic.SetCreditChannel(&credits);
  }

  /// Flit `seq` of the `size`-flit packet `id` of `type`, from tile 3 to
  /// this NIC, as its router ejects it. The packet's first flit adds its
  /// record to the harness's packet table.
  Flit Ejected(PacketId id, PacketType type, int seq = 0, int size = 1,
               Cycle created = 0, Cycle injected = 0) {
    Packet p;
    p.id = id;
    p.type = type;
    p.src = 3;
    p.dst = 0;
    p.num_flits = size;
    p.created = created;
    p.injected = injected;
    const auto [it, added] = slots.try_emplace(id, PacketSlot{0});
    if (added) it->second = packets.Add(PacketRecord::Of(p, Coord{0, 0}));
    Flit f;
    f.slot = it->second;
    f.dst = 0;
    f.seq = static_cast<std::uint16_t>(seq);
    f.kind = KindAt(seq, size);
    f.cls = ClassOf(type);
    return f;
  }

  Packet MakePacket(PacketType type, int flits, PacketId id = 0) {
    Packet p;
    p.id = id == 0 ? next_id++ : id;
    p.type = type;
    p.src = 0;
    p.dst = 3;
    p.num_flits = flits;
    return p;
  }

  PacketTable packets{4, 4};
  std::unordered_map<PacketId, PacketSlot> slots;
  Nic nic;
  FlitChannel inject{1};
  CreditChannel credits{1};
  PacketId next_id = 1;
};

TEST(NicTest, InjectsOneFlitPerCycle) {
  NicHarness h(DefaultConfig());
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadReply, 5),
                           Coord{3, 0}, 0));
  for (Cycle c = 0; c < 5; ++c) h.nic.Tick(c);
  EXPECT_EQ(h.inject.size(), 4u) << "depth-4 VC: 4 flits sent, 5th waits";
  EXPECT_EQ(h.nic.stats().flits_injected[ClassIndex(TrafficClass::kReply)],
            4u);
}

TEST(NicTest, RespectsCredits) {
  NicHarness h(DefaultConfig());
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadReply, 5),
                           Coord{3, 0}, 0));
  for (Cycle c = 0; c < 10; ++c) h.nic.Tick(c);
  EXPECT_EQ(h.inject.size(), 4u) << "no credits returned: stuck at depth";
  h.credits.Push(Credit{1}, 10);  // reply VC under split policy is VC 1
  h.nic.Tick(11);
  EXPECT_EQ(h.inject.size(), 5u);
}

TEST(NicTest, SplitPolicyAssignsClassVcs) {
  NicHarness h(DefaultConfig());
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                           Coord{3, 0}, 0));
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadReply, 1),
                           Coord{3, 0}, 0));
  for (Cycle c = 0; c < 4; ++c) h.nic.Tick(c);
  std::vector<Flit> sent;
  while (auto f = h.inject.Pop(100)) sent.push_back(*f);
  ASSERT_EQ(sent.size(), 2u);
  for (const Flit& f : sent) {
    if (f.cls == TrafficClass::kRequest) {
      EXPECT_EQ(f.vc, 0);
    } else {
      EXPECT_EQ(f.vc, 1);
    }
  }
}

TEST(NicTest, InjectionQueueCapacityEnforced) {
  NicHarness h(DefaultConfig());  // capacity 4 per class
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(h.nic.CanInject(TrafficClass::kRequest));
    ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                             Coord{3, 0}, 0));
  }
  EXPECT_FALSE(h.nic.CanInject(TrafficClass::kRequest));
  EXPECT_FALSE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                            Coord{3, 0}, 0));
  // The other class still has room.
  EXPECT_TRUE(h.nic.CanInject(TrafficClass::kReply));
}

TEST(NicTest, AtomicInjectionVcHeldUntilDrain) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  cfg.num_vcs = 1;  // single VC: atomicity is visible
  NicHarness h(cfg);
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                           Coord{3, 0}, 0));
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                           Coord{3, 0}, 0));
  h.nic.Tick(0);  // first packet sent (1 flit), VC draining
  h.nic.Tick(1);  // second packet must wait: VC not drained
  EXPECT_EQ(h.inject.size(), 1u);
  // Return the credit: VC drains, second packet goes.
  h.credits.Push(Credit{0}, 1);
  h.nic.Tick(2);
  h.nic.Tick(3);
  EXPECT_EQ(h.inject.size(), 2u);
}

TEST(NicTest, EjectionReassemblesInterleavedPackets) {
  NicHarness h(DefaultConfig());
  struct Collect : PacketSink {
    bool Accept(const Packet& p, Cycle) override {
      got.push_back(p);
      return true;
    }
    std::vector<Packet> got;
  } sink;
  h.nic.SetSink(&sink);

  auto eject = [&](PacketId id, int seq, int size) {
    h.nic.AcceptEjectedFlit(h.Ejected(id, PacketType::kReadReply, seq, size),
                            0);
  };
  // Packets 10 (3 flits) and 11 (2 flits) interleaved.
  eject(10, 0, 3);
  eject(11, 0, 2);
  eject(10, 1, 3);
  eject(11, 1, 2);
  eject(10, 2, 3);

  // One delivery per class per cycle.
  h.nic.Tick(0);
  EXPECT_EQ(sink.got.size(), 1u);
  h.nic.Tick(1);
  ASSERT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(sink.got[0].id, 11u) << "tail order decides delivery order";
  EXPECT_EQ(sink.got[1].id, 10u);
  EXPECT_EQ(sink.got[1].num_flits, 3);
  EXPECT_EQ(h.nic.EjectOccupancy(TrafficClass::kReply), 0);
  EXPECT_EQ(h.packets.live(), 0u) << "each delivery released its record";
}

TEST(NicTest, StalledSinkBackpressuresEjection) {
  NetworkConfig cfg = DefaultConfig();
  cfg.eject_capacity = 3;
  NicHarness h(cfg);
  struct Refuse : PacketSink {
    bool Accept(const Packet&, Cycle) override { return open; }
    bool open = false;
  } sink;
  h.nic.SetSink(&sink);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.nic.CanAcceptEjection(TrafficClass::kRequest));
    h.nic.AcceptEjectedFlit(
        h.Ejected(static_cast<PacketId>(5 + i), PacketType::kReadRequest), 0);
  }
  EXPECT_FALSE(h.nic.CanAcceptEjection(TrafficClass::kRequest));
  h.nic.Tick(0);
  EXPECT_EQ(h.nic.EjectOccupancy(TrafficClass::kRequest), 3);
  EXPECT_EQ(h.packets.live(), 3u) << "a refused packet keeps its record";
  sink.open = true;
  h.nic.Tick(1);
  h.nic.Tick(2);
  h.nic.Tick(3);
  EXPECT_EQ(h.nic.EjectOccupancy(TrafficClass::kRequest), 0);
  EXPECT_TRUE(h.nic.CanAcceptEjection(TrafficClass::kRequest));
}

TEST(NicTest, DrainingOnlyCyclesAreNotInjectionStalls) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  cfg.num_vcs = 1;
  NicHarness h(cfg);
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                           Coord{3, 0}, 0));
  h.nic.Tick(0);  // sends the head-tail flit; VC enters draining
  h.nic.Tick(1);  // nothing queued, nothing credit blocked: just draining
  h.nic.Tick(2);
  EXPECT_EQ(h.nic.stats().inject_drain_cycles, 2u);
  EXPECT_EQ(h.nic.stats().inject_stall_cycles, 0u)
      << "waiting for atomic VC recycle is not a stall";
  // Credit comes home, VC recycles; a fully idle NIC counts neither.
  h.credits.Push(Credit{0}, 2);
  h.nic.Tick(3);
  h.nic.Tick(4);
  EXPECT_EQ(h.nic.stats().inject_drain_cycles, 2u);
  EXPECT_EQ(h.nic.stats().inject_stall_cycles, 0u);
}

TEST(NicTest, CreditBlockedCyclesCountAsStalls) {
  NicHarness h(DefaultConfig());
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadReply, 5),
                           Coord{3, 0}, 0));
  for (Cycle c = 0; c < 4; ++c) h.nic.Tick(c);  // fills the depth-4 VC
  h.nic.Tick(4);  // 5th flit blocked: no credits
  EXPECT_EQ(h.nic.stats().inject_stall_cycles, 1u);
  EXPECT_EQ(h.nic.stats().inject_drain_cycles, 0u);
}

TEST(NicTest, IdleReflectsAllSides) {
  NicHarness h(DefaultConfig());
  EXPECT_TRUE(h.nic.Idle());
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                           Coord{3, 0}, 0));
  EXPECT_FALSE(h.nic.Idle());
}

TEST(NicTest, LatencyStatsRecorded) {
  NicHarness h(DefaultConfig());
  struct Collect : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  h.nic.SetSink(&sink);
  h.nic.AcceptEjectedFlit(
      h.Ejected(1, PacketType::kReadReply, 0, 1, /*created=*/10,
                /*injected=*/20),
      100);
  h.nic.Tick(100);
  const auto& stats = h.nic.stats();
  const auto rep = static_cast<std::size_t>(ClassIndex(TrafficClass::kReply));
  EXPECT_EQ(stats.packets_ejected[rep], 1u);
  EXPECT_DOUBLE_EQ(stats.packet_latency[rep].mean(), 90.0);
  EXPECT_DOUBLE_EQ(stats.network_latency[rep].mean(), 80.0);
}

// Nic::Load refuses send FIFOs the NIC could not have filled. The clean
// snapshot is taken one cycle into a 5-flit reply on VC 1 (4 flits left to
// send); each case patches one field, laid out as: two empty inject
// queues (u64 counts @0, @8), then per VC busy, draining and the FIFO's
// u64 count — VC 0 @16, @17, @18; VC 1 @26, @27, @28 — and VC 1's flits
// from @36, 75 bytes each with the i32 vc at +54.
TEST(NicTest, LoadRefusesSendFifosTheNicCouldNotHaveFilled) {
  const NetworkConfig cfg = DefaultConfig();
  NicHarness h(cfg);
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadReply, 5),
                           Coord{3, 0}, 0));
  h.nic.Tick(0);
  Serializer s;
  h.nic.Save(s);
  const std::string clean = s.bytes();
  // The error message of loading `bytes` into a fresh NIC, "" if none.
  const auto load_error = [&](const std::string& bytes) -> std::string {
    Nic nic(0, Coord{0, 0}, cfg);
    PacketTable packets(4, 4);
    nic.SetPacketTable(&packets);
    Deserializer d(bytes);
    try {
      nic.Load(d);
      d.Finish();
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  const auto patched = [&](std::size_t offset, std::uint32_t value,
                           int width) {
    std::string bytes = clean;
    for (int i = 0; i < width; ++i) {
      bytes[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    return bytes;
  };
  constexpr std::size_t kFirstFlitVc = 36 + 54;
  ASSERT_EQ(clean[28], 4) << "VC 1 should hold the 4 unsent flits";
  EXPECT_EQ(load_error(clean), "");
  // A draining VC holds no flits: VC 0 busy and draining loads.
  EXPECT_EQ(load_error(patched(16, 0x0101, 2)), "");

  EXPECT_NE(load_error(patched(kFirstFlitVc, 0, 4)).find("flit for VC 0"),
            std::string::npos);
  EXPECT_NE(load_error(patched(16, 1, 1)).find("0 unsent flit(s) while "
                                               "sending"),
            std::string::npos);
  EXPECT_NE(load_error(patched(27, 1, 1)).find("while draining"),
            std::string::npos);
  EXPECT_NE(load_error(patched(26, 0, 1)).find("while free"),
            std::string::npos);
}

// Nic::Load refuses a queued packet whose flits the network could not
// carry: StartPackets segments it into flits the router routes by their
// destination tile, and the sink takes it by its type. The clean snapshot
// holds one 1-flit read request in the request queue: its u64 count @0,
// then the Packet (u64 id @8, u8 type @16, i32 src @17, i32 dst @21, i32
// num_flits @25, ...) and its destination's coordinate (i32 x @69, y @73).
TEST(NicTest, LoadRefusesQueuedPacketsTheNetworkCannotCarry) {
  const NetworkConfig cfg = DefaultConfig();
  NicHarness h(cfg);
  ASSERT_TRUE(h.nic.Inject(h.MakePacket(PacketType::kReadRequest, 1),
                           Coord{3, 0}, 0));
  Serializer s;
  h.nic.Save(s);
  const std::string clean = s.bytes();
  const auto load_error = [&](std::size_t offset, std::uint32_t value,
                              int width) -> std::string {
    std::string bytes = clean;
    for (int i = 0; i < width; ++i) {
      bytes[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    Nic nic(0, Coord{0, 0}, cfg);
    PacketTable packets(4, 4);
    nic.SetPacketTable(&packets);
    Deserializer d(bytes);
    try {
      nic.Load(d);
      d.Finish();
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  ASSERT_EQ(clean[0], 1) << "one queued request";
  ASSERT_EQ(clean[21], 3) << "headed for tile 3";
  EXPECT_EQ(load_error(21, 3, 4), "");
  EXPECT_EQ(load_error(16, 1, 1), "") << "a write request is a request";
  EXPECT_NE(load_error(21, 16, 4).find("node 16 is not a tile"),
            std::string::npos);
  EXPECT_NE(load_error(69, 2, 4).find("is not tile 3's (3,0)"),
            std::string::npos);
  EXPECT_NE(load_error(16, 2, 1).find("not a packet type of class 0"),
            std::string::npos);
  for (const std::uint32_t flits : {0u, 65536u}) {
    EXPECT_NE(load_error(25, flits, 4).find("outside [1, 65535]"),
              std::string::npos)
        << flits;
  }
}

// Nic::Load refuses an injection credit count outside [0, vc_depth]: a
// count above the depth would overfill the router's input VC, a negative
// one would never return to the depth and wedge the VC. An idle NIC's
// snapshot holds two empty inject queues (u64 counts @0, @8), two idle
// VCs' busy, draining and FIFO count (@16-@35), then the i32 credits of VC
// 0 @36 and VC 1 @40.
TEST(NicTest, LoadRefusesCreditCountsOutOfRange) {
  const NetworkConfig cfg = DefaultConfig();  // depth 4
  Serializer s;
  Nic(0, Coord{0, 0}, cfg).Save(s);
  const std::string clean = s.bytes();
  ASSERT_EQ(clean[36], 4) << "VC 0 starts with vc_depth credits";
  const auto load_error = [&](std::size_t offset, std::uint32_t credits) {
    std::string bytes = clean;
    for (int i = 0; i < 4; ++i) {
      bytes[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((credits >> (8 * i)) & 0xFF);
    }
    Nic nic(0, Coord{0, 0}, cfg);
    Deserializer d(bytes);
    try {
      nic.Load(d);
      d.Finish();
    } catch (const SerializeError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(load_error(36, 0), "");
  EXPECT_EQ(load_error(40, 4), "");
  for (const std::uint32_t credits : {0xFFFFFFFFu, 5u}) {  // -1, depth + 1
    for (const std::size_t offset : {36u, 40u}) {
      EXPECT_NE(load_error(offset, credits)
                    .find("credits, out of range [0, 4]"),
                std::string::npos)
          << "credits " << credits << " @" << offset;
    }
  }
}

// The reassembly list keeps the v5 layout of the hash map it replaced: a
// u64 count, then (u64 packet id, i32 absorbed flits) pairs in ascending
// id order, whatever order the packets arrived in. Load refuses a list
// that names one packet twice (its tail would find one entry's count) and,
// before reading a pair, one longer than the router's input VCs can carry.
TEST(NicTest, ReassemblyListSavesSortedPairsAndLoadRefusesBadLists) {
  const NetworkConfig cfg = DefaultConfig();
  NicHarness h(cfg);
  // Packet 11 (2 flits) starts before packet 10 (3 flits); no tail yet.
  h.nic.AcceptEjectedFlit(h.Ejected(11, PacketType::kReadReply, 0, 2), 0);
  h.nic.AcceptEjectedFlit(h.Ejected(10, PacketType::kReadReply, 0, 3), 0);
  h.nic.AcceptEjectedFlit(h.Ejected(10, PacketType::kReadReply, 1, 3), 0);
  h.nic.Tick(0);
  EXPECT_EQ(h.nic.PendingAssembly(), 2u);
  Serializer s;
  h.nic.Save(s);
  const std::string clean = s.bytes();

  Serializer pairs;
  pairs.U64(2);
  Io(pairs, PacketId{10});
  Io(pairs, 2);
  Io(pairs, PacketId{11});
  Io(pairs, 1);
  const std::size_t at = clean.find(pairs.bytes());
  ASSERT_NE(at, std::string::npos) << "(10, 2) then (11, 1)";
  EXPECT_EQ(clean.find(pairs.bytes(), at + 1), std::string::npos);

  const auto load = [&](const std::string& bytes, PacketTable& packets) {
    Nic nic(0, Coord{0, 0}, cfg);
    nic.SetPacketTable(&packets);
    Deserializer d(bytes);
    nic.Load(d);
    d.Finish();
    Serializer again;
    nic.Save(again);
    return again.TakeBytes();
  };
  PacketTable reloaded(4, 4);
  EXPECT_TRUE(load(clean, reloaded) == clean);

  const auto refused = [&](const std::string& bytes, const char* why) {
    PacketTable packets(4, 4);
    try {
      load(bytes, packets);
      ADD_FAILURE() << "loaded a list that should be refused: " << why;
    } catch (const SerializeError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  std::string repeated = clean;
  repeated[at + 8 + 12] = 10;  // the second pair's id: 11 -> 10
  refused(repeated, "reassembly lists packet 10 twice");
  std::string overlong = clean;
  overlong[at] = static_cast<char>(kNumClasses * kMaxArbiterInputs + 1);
  refused(overlong, "reassembly lists 129 packets, more than the 128");
}

}  // namespace
}  // namespace gnoc
