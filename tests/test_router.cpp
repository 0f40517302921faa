// White-box unit tests of the VC router: pipeline timing, credit protocol,
// wormhole integrity, VC allocation policy enforcement, QoS precedence in
// the allocators, atomic VC reallocation, link-aware monopolizing, the
// request-mask width bound, snapshot-load validation, the derived masks
// kept beside the saved state, the flit count and work predicate the soa
// scheduler skips routers by, and a pinned radix-8 visit sequence that
// touches every port.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "noc/nic.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace gnoc {
namespace {

/// The 8x8 mesh the routers under test route by; router 9 sits at (1, 1).
const Topology& Mesh() {
  static const Topology mesh = Topology::Mesh(8, 8);
  return mesh;
}

constexpr NodeId kNode = 9;
constexpr Coord kCoord{1, 1};

/// Harness around a single router: we feed flits into its input ports and
/// observe its output channels directly.
class RouterHarness {
 public:
  explicit RouterHarness(const NetworkConfig& config)
      : router_(kNode, kCoord, config, Mesh()), nic_(kNode, kCoord, config) {
    router_.SetPacketTable(&packets_);
    nic_.SetPacketTable(&packets_);
    // Wire all four mesh outputs; local ejection goes to the NIC.
    for (Port p : {Port::kNorth, Port::kEast, Port::kSouth, Port::kWest}) {
      router_.SetOutputChannel(p, &out_[PortIndex(p)]);
      router_.SetCreditReturnChannel(p, &credits_[PortIndex(p)]);
    }
    router_.SetCreditReturnChannel(Port::kLocal,
                                   &credits_[PortIndex(Port::kLocal)]);
    router_.SetNic(&nic_);
  }

  /// Builds flit `seq` of the `size`-flit packet `packet` of class `cls`,
  /// from tile 0 to destination `dst`, on VC `vc`. The packet's first flit
  /// adds its record to the harness's packet table.
  Flit MakeFlit(FlitKind kind, TrafficClass cls, Coord dst, VcId vc,
                PacketId packet = 1, int seq = 0, int size = 1) {
    Packet p;
    p.id = packet;
    p.type = cls == TrafficClass::kRequest ? PacketType::kReadRequest
                                           : PacketType::kReadReply;
    p.src = 0;
    p.dst = dst.y * Mesh().width() + dst.x;
    p.num_flits = size;
    const auto [it, added] = slots_.try_emplace(packet, PacketSlot{0});
    if (added) it->second = packets_.Add(PacketRecord::Of(p, dst));
    Flit f;
    f.slot = it->second;
    f.kind = kind;
    f.cls = cls;
    f.dst = p.dst;
    f.vc = vc;
    f.seq = static_cast<std::uint16_t>(seq);
    return f;
  }

  PacketTable packets_{Mesh().width(), Mesh().height()};
  std::unordered_map<PacketId, PacketSlot> slots_;
  Router router_;
  Nic nic_;
  std::array<FlitChannel, kNumPorts> out_ = {
      FlitChannel(1), FlitChannel(1), FlitChannel(1), FlitChannel(1),
      FlitChannel(1)};
  std::array<CreditChannel, kNumPorts> credits_ = {
      CreditChannel(1), CreditChannel(1), CreditChannel(1), CreditChannel(1),
      CreditChannel(1)};
};

NetworkConfig DefaultConfig() {
  NetworkConfig cfg;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  cfg.routing = RoutingAlgorithm::kXY;
  cfg.vc_policy = VcPolicyKind::kSplit;
  return cfg;
}

TEST(RouterTest, FlitIsNotEligibleInArrivalCycle) {
  RouterHarness h(DefaultConfig());
  const Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                            Coord{3, 1}, /*vc=*/0);
  h.router_.AcceptFlit(Port::kWest, f, /*now=*/10);
  h.router_.Tick(10);  // same cycle: RC/VA/SA stage not yet done
  EXPECT_TRUE(h.out_[PortIndex(Port::kEast)].empty());
  h.router_.Tick(11);  // next cycle: eligible, traverses
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 1u);
}

TEST(RouterTest, RoutesFollowXy) {
  RouterHarness h(DefaultConfig());
  struct Case {
    Coord dst;
    Port expected;
  };
  const Case cases[] = {
      {{3, 1}, Port::kEast},  {{0, 1}, Port::kWest},
      {{1, 3}, Port::kSouth}, {{1, 0}, Port::kNorth},
      {{3, 3}, Port::kEast},  // X first
  };
  int packet = 1;
  for (const Case& c : cases) {
    RouterHarness fresh(DefaultConfig());
    const Flit f =
        fresh.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest, c.dst,
                       /*vc=*/0, static_cast<PacketId>(packet++));
    fresh.router_.AcceptFlit(Port::kLocal, f, 0);
    fresh.router_.Tick(0);
    fresh.router_.Tick(1);
    EXPECT_EQ(fresh.out_[PortIndex(c.expected)].size(), 1u)
        << "dst " << ToString(c.dst);
  }
}

TEST(RouterTest, EjectsAtOwnCoordinate) {
  RouterHarness h(DefaultConfig());
  const Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kReply,
                            Coord{1, 1}, /*vc=*/1);
  h.router_.AcceptFlit(Port::kNorth, f, 0);
  EXPECT_EQ(h.router_.Tick(0), 0u);
  // Tick reports the local port that ejected (the soa scheduler wakes the
  // NIC behind it).
  EXPECT_EQ(h.router_.Tick(1), RequestBit(PortIndex(Port::kLocal)));
  EXPECT_EQ(h.nic_.stats().flits_ejected[ClassIndex(TrafficClass::kReply)],
            1u);
}

TEST(RouterTest, CreditReturnedWhenFlitLeaves) {
  RouterHarness h(DefaultConfig());
  const Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                            Coord{3, 1}, /*vc=*/0);
  h.router_.AcceptFlit(Port::kWest, f, 0);
  h.router_.Tick(0);
  EXPECT_TRUE(h.credits_[PortIndex(Port::kWest)].empty());
  h.router_.Tick(1);  // flit forwarded -> credit to the west upstream
  auto credit = h.credits_[PortIndex(Port::kWest)].Pop(/*now=*/2);
  ASSERT_TRUE(credit.has_value());
  EXPECT_EQ(credit->vc, 0);
}

TEST(RouterTest, OutputCreditsDecrementAndRecover) {
  RouterHarness h(DefaultConfig());
  EXPECT_EQ(h.router_.OutputCredits(Port::kEast, 0), 4);
  const Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                            Coord{3, 1}, /*vc=*/0);
  h.router_.AcceptFlit(Port::kWest, f, 0);
  h.router_.Tick(0);
  h.router_.Tick(1);
  EXPECT_EQ(h.router_.OutputCredits(Port::kEast, 0), 3);
  h.router_.AcceptCredit(Port::kEast, 0);
  EXPECT_EQ(h.router_.OutputCredits(Port::kEast, 0), 4);
}

TEST(RouterTest, StallsWhenOutputCreditsExhausted) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_depth = 2;  // only 2 credits per output VC
  RouterHarness h(cfg);
  // 3 single-flit packets of the same class through the same output VC,
  // one per input port (a depth-2 input VC cannot hold all three).
  const Port inputs[] = {Port::kWest, Port::kNorth, Port::kSouth};
  for (int i = 0; i < 3; ++i) {
    Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                        Coord{3, 1}, /*vc=*/0, static_cast<PacketId>(i + 1));
    h.router_.AcceptFlit(inputs[i], f, static_cast<Cycle>(i));
  }
  for (Cycle c = 0; c < 10; ++c) h.router_.Tick(c);
  // With atomic reallocation and no credits returned, only the first packet
  // can have left; the follow-up packets fail VC allocation because the
  // draining output VC is never recycled.
  EXPECT_LE(h.out_[PortIndex(Port::kEast)].size(), 2u);
  EXPECT_GE(h.router_.stats().va_failures, 1u);
}

TEST(RouterTest, WormholeKeepsPacketContiguousPerVc) {
  RouterHarness h(DefaultConfig());
  // A 3-flit packet: all flits leave on the same output VC in order.
  for (int i = 0; i < 3; ++i) {
    const FlitKind kind = i == 0   ? FlitKind::kHead
                          : i == 2 ? FlitKind::kTail
                                   : FlitKind::kBody;
    const Flit f = h.MakeFlit(kind, TrafficClass::kRequest, Coord{3, 1},
                              /*vc=*/0, /*packet=*/7, i, /*size=*/3);
    h.router_.AcceptFlit(Port::kWest, f, static_cast<Cycle>(i));
  }
  for (Cycle c = 0; c < 10; ++c) h.router_.Tick(c);
  auto& channel = h.out_[PortIndex(Port::kEast)];
  ASSERT_EQ(channel.size(), 3u);
  VcId vc = kInvalidVc;
  for (int i = 0; i < 3; ++i) {
    const auto f = channel.Pop(/*now=*/100);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->seq, i);
    if (vc == kInvalidVc) {
      vc = f->vc;
    } else {
      EXPECT_EQ(f->vc, vc) << "wormhole must not switch VCs mid-packet";
    }
  }
}

TEST(RouterTest, SplitPolicyRestrictsOutputVcByClass) {
  RouterHarness h(DefaultConfig());  // split: request VC 0, reply VC 1
  Flit req = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                        Coord{3, 1}, /*vc=*/0, 1);
  Flit rep = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kReply,
                        Coord{3, 1}, /*vc=*/1, 2);
  h.router_.AcceptFlit(Port::kWest, req, 0);
  h.router_.AcceptFlit(Port::kNorth, rep, 0);
  for (Cycle c = 0; c < 6; ++c) h.router_.Tick(c);
  auto& channel = h.out_[PortIndex(Port::kEast)];
  ASSERT_EQ(channel.size(), 2u);
  while (auto f = channel.Pop(100)) {
    if (f->cls == TrafficClass::kRequest) {
      EXPECT_EQ(f->vc, 0) << "request must use the request VC partition";
    } else {
      EXPECT_EQ(f->vc, 1) << "reply must use the reply VC partition";
    }
  }
}

TEST(RouterTest, MonopolizePolicyUsesAllVcs) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  RouterHarness h(cfg);
  // Two concurrent request packets: the second must get the other VC.
  Flit a = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{3, 1}, /*vc=*/0, 1);
  Flit b = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{3, 1}, /*vc=*/0, 2);
  h.router_.AcceptFlit(Port::kWest, a, 0);
  h.router_.AcceptFlit(Port::kNorth, b, 0);
  h.router_.Tick(0);
  h.router_.Tick(1);
  // Both output VCs allocated in the same VA cycle.
  EXPECT_TRUE(h.router_.OutputVcAllocated(Port::kEast, 0) ||
              h.router_.OutputVcAllocated(Port::kEast, 1));
  for (Cycle c = 2; c < 8; ++c) h.router_.Tick(c);
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 2u);

  // A lone packet may use any VC and is granted the lowest free one.
  RouterHarness lone(cfg);
  lone.router_.AcceptFlit(Port::kWest,
                          lone.MakeFlit(FlitKind::kHeadTail,
                                        TrafficClass::kRequest, Coord{3, 1},
                                        /*vc=*/1, 3),
                          0);
  for (Cycle c = 0; c < 4; ++c) lone.router_.Tick(c);
  const auto f = lone.out_[PortIndex(Port::kEast)].Pop(100);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->vc, 0);
}

// QoS precedence holds at each arbitration site. Every packet is one flit
// heading east; with qos=none the round-robin arbiters would serve the
// lowest index (the requests) first.
TEST(RouterTest, QosArbitrationFavorsThePriorityClassAtEverySite) {
  const auto first_classes = [](RouterHarness& h, int n) {
    for (Cycle c = 0; c < 8; ++c) h.router_.Tick(c);
    std::vector<TrafficClass> out;
    auto& east = h.out_[PortIndex(Port::kEast)];
    while (auto f = east.Pop(100)) {
      if (static_cast<int>(out.size()) < n) out.push_back(f->cls);
    }
    return out;
  };
  const auto rq = TrafficClass::kRequest;
  const auto rp = TrafficClass::kReply;

  NetworkConfig strict = DefaultConfig();
  strict.qos.arbitration = QosArbitration::kStrict;
  strict.qos.classes[1].priority = 1;  // replies outrank requests

  // VA and SA2: two requests and a reply contend for the two east VCs and
  // the east output. The reply gets a VC and leaves first.
  NetworkConfig mono = strict;
  mono.vc_policy = VcPolicyKind::kFullMonopolize;
  RouterHarness va(mono);
  va.router_.AcceptFlit(
      Port::kNorth, va.MakeFlit(FlitKind::kHeadTail, rq, Coord{3, 1}, 0, 1),
      0);
  va.router_.AcceptFlit(
      Port::kSouth, va.MakeFlit(FlitKind::kHeadTail, rq, Coord{3, 1}, 0, 2),
      0);
  va.router_.AcceptFlit(
      Port::kWest, va.MakeFlit(FlitKind::kHeadTail, rp, Coord{3, 1}, 0, 3), 0);
  EXPECT_EQ(first_classes(va, 2), (std::vector<TrafficClass>{rp, rq}));

  // SA1: a request and a reply on the two VCs of one input port; the port
  // nominates the reply first.
  RouterHarness sa1(strict);
  sa1.router_.AcceptFlit(
      Port::kWest, sa1.MakeFlit(FlitKind::kHeadTail, rq, Coord{3, 1}, 0, 1),
      0);
  sa1.router_.AcceptFlit(
      Port::kWest, sa1.MakeFlit(FlitKind::kHeadTail, rp, Coord{3, 1}, 1, 2),
      0);
  EXPECT_EQ(first_classes(sa1, 2), (std::vector<TrafficClass>{rp, rq}));

  // WRR with weights 1:2 gives the reply class two of every three
  // contested grants (round-robin alone would alternate).
  NetworkConfig wrr = DefaultConfig();
  wrr.atomic_vc_realloc = false;  // each VC carries the next packet at once
  wrr.qos.arbitration = QosArbitration::kWrr;
  wrr.qos.classes[0].priority = 1;
  wrr.qos.classes[1].priority = 2;
  RouterHarness w(wrr);
  for (PacketId i = 0; i < 3; ++i) {
    w.router_.AcceptFlit(
        Port::kWest,
        w.MakeFlit(FlitKind::kHeadTail, rq, Coord{3, 1}, 0, 10 + i), 0);
    w.router_.AcceptFlit(
        Port::kWest,
        w.MakeFlit(FlitKind::kHeadTail, rp, Coord{3, 1}, 1, 20 + i), 0);
  }
  const std::vector<TrafficClass> first = first_classes(w, 3);
  EXPECT_EQ(std::count(first.begin(), first.end(), rp), 2);
}

TEST(RouterTest, PartialMonopolizeHonorsLinkMode) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_policy = VcPolicyKind::kPartialMonopolize;
  RouterHarness h(cfg);
  h.router_.SetLinkMode(Port::kEast, LinkMode::kSingleClass);
  // Mixed (default) on south: a reply must stay in the upper partition.
  Flit south = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kReply,
                          Coord{1, 3}, /*vc=*/1, 1);
  // Single-class east: a request may claim any VC.
  Flit east_a = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                           Coord{3, 1}, /*vc=*/0, 2);
  Flit east_b = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                           Coord{3, 1}, /*vc=*/1, 3);
  h.router_.AcceptFlit(Port::kNorth, south, 0);
  h.router_.AcceptFlit(Port::kWest, east_a, 0);
  h.router_.AcceptFlit(Port::kLocal, east_b, 0);
  for (Cycle c = 0; c < 8; ++c) h.router_.Tick(c);
  EXPECT_EQ(h.out_[PortIndex(Port::kSouth)].size(), 1u);
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 2u);
  // South reply must have used VC 1 (mixed link, split ranges).
  const auto s = h.out_[PortIndex(Port::kSouth)].Pop(100);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->vc, 1);
}

TEST(RouterTest, AtomicReallocWaitsForDrain) {
  NetworkConfig cfg = DefaultConfig();
  cfg.atomic_vc_realloc = true;
  RouterHarness h(cfg);
  Flit a = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{3, 1}, /*vc=*/0, 1);
  h.router_.AcceptFlit(Port::kWest, a, 0);
  h.router_.Tick(0);
  h.router_.Tick(1);  // packet forwarded, tail sent
  // No credit returned yet: the output VC must still be held.
  h.router_.Tick(2);
  EXPECT_TRUE(h.router_.OutputVcAllocated(Port::kEast, 0));
  h.router_.AcceptCredit(Port::kEast, 0);  // downstream drained
  h.router_.Tick(3);
  EXPECT_FALSE(h.router_.OutputVcAllocated(Port::kEast, 0));
}

TEST(RouterTest, NonAtomicReallocFreesAtTail) {
  NetworkConfig cfg = DefaultConfig();
  cfg.atomic_vc_realloc = false;
  RouterHarness h(cfg);
  Flit a = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{3, 1}, /*vc=*/0, 1);
  h.router_.AcceptFlit(Port::kWest, a, 0);
  h.router_.Tick(0);
  h.router_.Tick(1);
  h.router_.Tick(2);  // recycle pass frees the VC without waiting for drain
  EXPECT_FALSE(h.router_.OutputVcAllocated(Port::kEast, 0));
}

TEST(RouterTest, EjectionBlockedByFullNicBackpressures) {
  NetworkConfig cfg = DefaultConfig();
  RouterHarness h(cfg);
  // Fill the NIC's request ejection buffer.
  const Flit filler = h.MakeFlit(FlitKind::kHead, TrafficClass::kRequest,
                                 Coord{1, 1}, /*vc=*/0, 99, 0, /*size=*/64);
  int accepted = 0;
  while (h.nic_.CanAcceptEjection(TrafficClass::kRequest)) {
    h.nic_.AcceptEjectedFlit(filler, 0);
    ++accepted;
  }
  EXPECT_GT(accepted, 0);
  // Now a flit destined here cannot eject; it must stay buffered.
  Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{1, 1}, /*vc=*/0, 1);
  h.router_.AcceptFlit(Port::kWest, f, 0);
  for (Cycle c = 0; c < 5; ++c) h.router_.Tick(c);
  EXPECT_EQ(h.router_.VcOccupancy(Port::kWest, 0), 1u);
  EXPECT_GT(h.router_.stats().sa_stalls, 0u);
}

TEST(RouterTest, OnePortForwardsAtMostOneFlitPerCycle) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  RouterHarness h(cfg);
  // Two packets from the same input port to different outputs: the input
  // port's switch bandwidth (1 flit/cycle) serializes them.
  Flit a = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{3, 1}, /*vc=*/0, 1);
  Flit b = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kRequest,
                      Coord{1, 3}, /*vc=*/1, 2);
  h.router_.AcceptFlit(Port::kWest, a, 0);
  h.router_.AcceptFlit(Port::kWest, b, 0);
  h.router_.Tick(0);
  h.router_.Tick(1);
  const std::size_t after_first = h.out_[PortIndex(Port::kEast)].size() +
                                  h.out_[PortIndex(Port::kSouth)].size();
  EXPECT_EQ(after_first, 1u);
  h.router_.Tick(2);
  const std::size_t after_second = h.out_[PortIndex(Port::kEast)].size() +
                                   h.out_[PortIndex(Port::kSouth)].size();
  EXPECT_EQ(after_second, 2u);
}

TEST(RouterTest, DynamicBoundaryAdaptsTowardsHeavyClass) {
  NetworkConfig cfg = DefaultConfig();
  cfg.num_vcs = 4;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 32;
  RouterHarness h(cfg);
  EXPECT_EQ(h.router_.DynamicBoundary(Port::kEast), 2);  // balanced start

  // Feed only reply traffic eastwards; return credits promptly so flits
  // keep flowing across epochs.
  Cycle now = 0;
  PacketId id = 1;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 8; ++i) {
      Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kReply,
                          Coord{3, 1}, /*vc=*/2, id++);
      h.router_.AcceptFlit(Port::kWest, f, now);
      h.router_.Tick(now++);
      h.router_.Tick(now++);
      // Drain the output channel and return its credit.
      while (auto sent = h.out_[PortIndex(Port::kEast)].Pop(now)) {
        h.router_.AcceptCredit(Port::kEast, sent->vc);
      }
      h.router_.Tick(now++);
    }
  }
  // All-reply traffic: the boundary must have moved down towards 1,
  // giving replies 3 of the 4 VCs.
  EXPECT_EQ(h.router_.DynamicBoundary(Port::kEast), 1);
}

// A mesh router has 5 ports; 13 VCs would give its VA arbiters 65 request
// bits, one more than a request mask holds.
TEST(RouterTest, AssertsRadixTimesVcsFitsOneRequestMask) {
  NetworkConfig cfg = DefaultConfig();
  cfg.num_vcs = 12;
  const Router widest(0, Coord{0, 0}, cfg, Mesh());
  EXPECT_EQ(widest.num_ports() * widest.config().num_vcs, 60);
  cfg.num_vcs = 13;
  EXPECT_DEBUG_DEATH(Router(0, Coord{0, 0}, cfg, Mesh()), "request mask");
}

/// `bytes` with the `width`-byte little-endian field at `offset` set to
/// `value`.
std::string Patch(std::string bytes, std::size_t offset, std::uint64_t value,
                  int width) {
  for (int i = 0; i < width; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return bytes;
}

/// The snapshot of an idle router built from `cfg`.
std::string IdleRouterBytes(const NetworkConfig& cfg) {
  Serializer s;
  Router(kNode, kCoord, cfg, Mesh()).Save(s);
  return s.bytes();
}

/// The error message of loading `bytes` into a fresh router built from
/// `cfg`, "" if none.
std::string LoadError(const NetworkConfig& cfg, const std::string& bytes) {
  Router router(kNode, kCoord, cfg, Mesh());
  Deserializer d(bytes);
  try {
    router.Load(d);
    d.Finish();
  } catch (const SerializeError& e) {
    return e.what();
  }
  return "";
}

// Router::Load refuses input-VC state the allocators would index, or shift
// a request mask, out of range with. Each case patches one field of the
// first input VC (local port, VC 0) of an idle router's snapshot, laid out
// as: u64 flit count @0, bool route_valid @8, u8 out_port @9, i32 out_vc
// @10, bool eject @14, u8 vc_half @15. The router holds an output VC in a
// byte, so an out_vc that only an i32 holds is refused before narrowing.
TEST(RouterTest, LoadRejectsOutOfRangeInputVcState) {
  const NetworkConfig cfg = DefaultConfig();  // 5 ports x 2 VCs, depth 4
  const std::string clean = IdleRouterBytes(cfg);
  const auto load_error = [&](const std::string& bytes) {
    return LoadError(cfg, bytes);
  };
  EXPECT_EQ(load_error(clean), "");
  // In range: the last port, the last VC, an ejecting local-port VC.
  EXPECT_EQ(load_error(Patch(clean, 9, 4, 1)), "");
  EXPECT_EQ(load_error(Patch(clean, 10, 1, 4)), "");
  EXPECT_EQ(load_error(Patch(clean, 14, 1, 1)), "");

  EXPECT_NE(load_error(Patch(clean, 0, 5, 8)).find("capacity 4"),
            std::string::npos);
  const std::string bad[] = {
      Patch(clean, 9, 5, 1),                   // out_port = radix
      Patch(clean, 10, 2, 4),                  // out_vc = num_vcs
      Patch(clean, 10, 0xFFFFFFFE, 4),         // out_vc = -2
      Patch(clean, 10, 300, 4),                // out_vc past its byte
      Patch(Patch(clean, 9, 1, 1), 14, 1, 1),  // ejecting via a link port
  };
  for (const std::string& bytes : bad) {
    EXPECT_NE(load_error(bytes).find("out of range"), std::string::npos);
  }
}

// Router::Load refuses an output-VC credit count outside [0, vc_depth]: a
// count above the depth would overfill the downstream VC, a negative one
// would never return to the depth and wedge the VC. An idle router's
// snapshot holds ten 16-byte input-VC records, then per output VC bool
// allocated, bool tail_sent and i32 credits: output VC 0's credits @162.
TEST(RouterTest, LoadRejectsOutOfRangeCredits) {
  const NetworkConfig cfg = DefaultConfig();  // depth 4
  const std::string clean = IdleRouterBytes(cfg);
  ASSERT_EQ(clean.substr(160, 6), std::string(6, '\0'))
      << "output VC 0: free, no tail sent, no credits (no channel)";
  EXPECT_EQ(LoadError(cfg, Patch(clean, 162, 4, 4)), "");  // vc_depth
  for (const std::uint64_t credits : {0xFFFFFFFFu, 5u}) {  // -1, depth + 1
    EXPECT_NE(LoadError(cfg, Patch(clean, 162, credits, 4))
                  .find("credits, out of range [0, 4]"),
              std::string::npos)
        << credits;
  }
}

// The v5 byte after the epoch counts says whether any count is nonzero.
// It is derived from them, so Load refuses one that contradicts them. An
// idle router's snapshot (5 ports x 2 VCs) holds 220 bytes of input- and
// output-VC records and five i32 boundaries, then each port's u64
// request and reply counts @240 and the flag @320.
TEST(RouterTest, LoadRefusesAnEpochFlagThatContradictsTheCounts) {
  const NetworkConfig cfg = DefaultConfig();
  const std::string clean = IdleRouterBytes(cfg);
  ASSERT_EQ(clean.substr(240, 81), std::string(81, '\0'))
      << "no flit counted, flag clear";
  const auto refused = [&cfg](const std::string& bytes) {
    return LoadError(cfg, bytes).find("contradicts") != std::string::npos;
  };
  EXPECT_EQ(LoadError(cfg, clean), "");
  EXPECT_TRUE(refused(Patch(clean, 320, 1, 1)));  // flag, no count
  const std::string counted = Patch(clean, 248, 3, 8);  // port 0's replies
  EXPECT_TRUE(refused(counted));                         // count, no flag
  EXPECT_EQ(LoadError(cfg, Patch(counted, 320, 1, 1)), "");
  EXPECT_TRUE(refused(Patch(counted, 320, 2, 1)));  // not a bool
}

// The router keeps derived masks and arrays (occupied, front classes,
// holding, front ready cycles, the flit count) beside the primary state it
// saves. After every step that maintains them — an accept into an empty
// and into a nonempty VC, head routing, VA grants, a traversal that
// exposes the next packet of another class, one that empties a VC, tails,
// recycles, and a Load of a mid-run snapshot into a fresh router — they
// must equal a rebuild from the buffers and the primary state.
TEST(RouterTest, DerivedStateMatchesARebuildAfterEveryStep) {
  NetworkConfig cfg = DefaultConfig();
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  cfg.atomic_vc_realloc = false;  // the east VC recycles right after a tail
  cfg.qos.arbitration = QosArbitration::kStrict;  // the class masks split
  cfg.qos.classes[1].priority = 1;
  RouterHarness h(cfg);
  Router& router = h.router_;
  const auto rq = TrafficClass::kRequest;
  const auto rp = TrafficClass::kReply;
  EXPECT_EQ(router.DerivedStateMismatch(), "") << "fresh";

  // West VC 0: a two-flit request east, then a one-flit reply south
  // behind it. North VC 1: a one-flit reply that ejects here.
  const Flit head = h.MakeFlit(FlitKind::kHead, rq, Coord{3, 1}, 0, 1, 0, 2);
  const Flit tail = h.MakeFlit(FlitKind::kTail, rq, Coord{3, 1}, 0, 1, 1, 2);
  router.AcceptFlit(Port::kWest, head, 0);
  EXPECT_EQ(router.DerivedStateMismatch(), "") << "accept into an empty VC";
  router.AcceptFlit(Port::kWest, tail, 1);
  router.AcceptFlit(Port::kWest,
                    h.MakeFlit(FlitKind::kHeadTail, rp, Coord{1, 3}, 0, 2), 1);
  EXPECT_EQ(router.DerivedStateMismatch(), "") << "accept behind a flit";
  router.AcceptFlit(Port::kNorth,
                    h.MakeFlit(FlitKind::kHeadTail, rp, Coord{1, 1}, 1, 3), 1);

  router.Tick(1);  // the head is routed, granted east VC 0 and leaves
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 1u);
  EXPECT_TRUE(router.OutputVcAllocated(Port::kEast, 0));
  EXPECT_EQ(router.DerivedStateMismatch(), "") << "RC, VA grant, a head left";

  // A fresh router loading this mid-run snapshot rebuilds the derived
  // state: three flits, a VC holding east VC 0, two fronts of two classes.
  Serializer s;
  router.Save(s);
  Router loaded(kNode, kCoord, cfg, Mesh());
  PacketTable loaded_packets(8, 8);
  loaded.SetPacketTable(&loaded_packets);
  Deserializer d(s.bytes());
  loaded.Load(d);
  d.Finish();
  EXPECT_EQ(loaded.BufferedFlits(), 3u);
  EXPECT_EQ(loaded.DerivedStateMismatch(), "") << "Load";

  router.Tick(2);  // the tail leaves east; the reply at North ejects
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 2u);
  EXPECT_EQ(h.nic_.stats().flits_ejected[ClassIndex(rp)], 1u);
  EXPECT_EQ(router.DerivedStateMismatch(), "")
      << "a tail exposing a reply, an ejection emptying a VC";

  router.Tick(3);  // east VC 0 recycles; the reply is routed and goes south
  EXPECT_FALSE(router.OutputVcAllocated(Port::kEast, 0));
  EXPECT_EQ(h.out_[PortIndex(Port::kSouth)].size(), 1u);
  EXPECT_EQ(router.BufferedFlits(), 0u);
  EXPECT_EQ(router.DerivedStateMismatch(), "") << "recycle, the last flit";
  for (Cycle c = 4; c < 8; ++c) router.Tick(c);
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 2u);
  EXPECT_EQ(h.out_[PortIndex(Port::kSouth)].size(), 1u);
}

/// Flits across every input VC, read off the buffers one VC at a time.
std::size_t HeldFlits(const Router& router) {
  std::size_t held = 0;
  for (int p = 0; p < router.num_ports(); ++p) {
    for (VcId v = 0; v < router.config().num_vcs; ++v) {
      held += router.VcOccupancy(static_cast<Port>(p), v);
    }
  }
  return held;
}

// BufferedFlits() is a running count that the soa scheduler skips routers
// by: it must equal the VC buffers after accepts, after traversals and
// after Load of a mid-run snapshot, which rebuilds it. HasWork() holds
// exactly while a flit is buffered: a dynamic epoch's uncommitted counts
// keep no work, because the next Tick replays a boundary the router slept
// through with those counts, landing each port's boundary where a router
// ticked every cycle puts it.
TEST(RouterTest, FlitCountMatchesBuffersAndOnlyFlitsKeepWork) {
  NetworkConfig cfg = DefaultConfig();
  cfg.num_vcs = 4;  // requests VCs 0-1, replies 2-3 at the start
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 32;
  // A two-flit request West -> East and a one-flit reply North -> South.
  const auto feed = [](RouterHarness& h) {
    const Flit head = h.MakeFlit(FlitKind::kHead, TrafficClass::kRequest,
                                 Coord{3, 1}, /*vc=*/0, 1, 0, /*size=*/2);
    const Flit tail = h.MakeFlit(FlitKind::kTail, TrafficClass::kRequest,
                                 Coord{3, 1}, /*vc=*/0, 1, 1, /*size=*/2);
    h.router_.AcceptFlit(Port::kWest, head, 0);
    h.router_.AcceptFlit(Port::kWest, tail, 0);
    h.router_.AcceptFlit(Port::kNorth,
                         h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kReply,
                                    Coord{1, 3}, /*vc=*/2, 2),
                         0);
  };
  RouterHarness h(cfg);
  Router& router = h.router_;
  EXPECT_FALSE(router.HasWork());
  feed(h);
  EXPECT_EQ(router.BufferedFlits(), 3u);
  EXPECT_EQ(HeldFlits(router), 3u);
  EXPECT_TRUE(router.HasWork());

  router.Tick(0);  // nothing ready yet
  router.Tick(1);  // the head and the reply leave
  EXPECT_EQ(h.out_[PortIndex(Port::kEast)].size(), 1u);
  EXPECT_EQ(h.out_[PortIndex(Port::kSouth)].size(), 1u);
  EXPECT_EQ(router.BufferedFlits(), 1u);
  EXPECT_EQ(HeldFlits(router), 1u);

  // A fresh router loading the mid-run snapshot counts the tail it holds.
  Serializer s;
  router.Save(s);
  Router loaded(kNode, kCoord, cfg, Mesh());
  PacketTable loaded_packets(8, 8);
  loaded.SetPacketTable(&loaded_packets);
  Deserializer d(s.bytes());
  loaded.Load(d);
  d.Finish();
  EXPECT_EQ(HeldFlits(loaded), 1u);
  EXPECT_EQ(loaded.BufferedFlits(), 1u);
  EXPECT_TRUE(loaded.HasWork());

  router.Tick(2);  // the tail leaves
  EXPECT_EQ(router.BufferedFlits(), 0u);
  EXPECT_EQ(HeldFlits(router), 0u);
  // No flit left; this epoch's flit counts are not committed yet.
  EXPECT_FALSE(router.HasWork());
  EXPECT_EQ(router.DynamicBoundary(Port::kEast), 2);
  router.Tick(40);  // asleep from 3 to 39, past the boundary at 32

  RouterHarness every(cfg);
  feed(every);
  for (Cycle c = 0; c <= 40; ++c) every.router_.Tick(c);
  EXPECT_EQ(every.out_[PortIndex(Port::kEast)].size(), 2u);
  EXPECT_EQ(every.router_.DynamicBoundary(Port::kEast), 3);   // requests
  EXPECT_EQ(every.router_.DynamicBoundary(Port::kSouth), 1);  // replies
  for (int p = 0; p < router.num_ports(); ++p) {
    EXPECT_EQ(router.DynamicBoundary(static_cast<Port>(p)),
              every.router_.DynamicBoundary(static_cast<Port>(p)))
        << "port " << p;
  }

  // The same traffic under a static policy leaves no work behind.
  RouterHarness split(DefaultConfig());
  split.router_.AcceptFlit(Port::kWest,
                           split.MakeFlit(FlitKind::kHeadTail,
                                          TrafficClass::kRequest, Coord{3, 1},
                                          /*vc=*/0, 3),
                           0);
  EXPECT_TRUE(split.router_.HasWork());
  split.router_.Tick(0);
  split.router_.Tick(1);
  EXPECT_EQ(split.out_[PortIndex(Port::kEast)].size(), 1u);
  EXPECT_EQ(split.router_.BufferedFlits(), 0u);
  EXPECT_FALSE(split.router_.HasWork());
}

/// The 8x8-tile concentrated mesh: a 4x4 grid of radix-8 routers with
/// local ports 0-3, then north (4), east (5), south (6) and west (7).
const Topology& CMesh() {
  static const Topology cmesh = Topology::CMesh(8, 8);
  return cmesh;
}

/// A sink that lists the ids of the packets it accepts.
struct RecordingSink : PacketSink {
  bool Accept(const Packet& packet, Cycle) override {
    ids.push_back(packet.id);
    return true;
  }
  std::vector<PacketId> ids;
};

// Every input port of a cmesh router holds packets on both VCs, bound for
// local ports 1-3 and for link ports 4-7. Heads of one class contend for
// an output port's one VC of that class (VA); two VCs of one input port,
// and input ports bound for one output port, contend for the switch (SA1,
// SA2). Links deliver downstream at once and return the credit. Each
// visit's traversals (output port <- input port.VC, read off the links
// and the NICs' sinks) and the local ports it reports ejecting are pinned
// as recorded before the allocator walked port masks: a stage that skips
// a port, or a returned mask that drops one, moves them.
TEST(RouterTest, CmeshVisitsMoveThePinnedFlitsThroughEveryPort) {
  const Topology& topo = CMesh();
  constexpr NodeId kRouter = 5;  // router (1, 1): tiles 18, 19, 26, 27
  // Split: requests VC 0, replies VC 1.
  const NetworkConfig cfg = DefaultConfig();
  Router router(kRouter, topo.RouterCoord(kRouter), cfg, topo);
  ASSERT_EQ(router.num_ports(), 8);
  ASSERT_EQ(router.num_local_ports(), 4);
  PacketTable packets(topo.width(), topo.height());
  router.SetPacketTable(&packets);
  std::vector<std::unique_ptr<FlitChannel>> links;
  for (int p = 4; p < 8; ++p) {
    links.push_back(std::make_unique<FlitChannel>(1));
    router.SetOutputChannel(static_cast<Port>(p), links.back().get());
  }
  const auto coord = [&topo](NodeId tile) {
    return Coord{tile % topo.width(), tile / topo.width()};
  };
  std::vector<std::unique_ptr<Nic>> nics;
  std::array<RecordingSink, 4> sinks;
  for (int k = 0; k < 4; ++k) {
    const NodeId tile = topo.TileAt(kRouter, k);
    nics.push_back(std::make_unique<Nic>(tile, coord(tile), cfg));
    nics.back()->SetPacketTable(&packets);
    nics.back()->SetSink(&sinks[static_cast<std::size_t>(k)]);
    router.SetNic(k, nics.back().get());
  }

  // A tile behind each link port.
  constexpr NodeId kNorth = 2, kEast = 20, kSouth = 34, kWest = 16;
  const auto local = [&](int k) { return topo.TileAt(kRouter, k); };
  struct Send {
    int port;
    VcId vc;
    NodeId dst;
    int size;
  };
  const Send sends[] = {
      {0, 0, kWest, 2},   {0, 1, local(1), 1}, {1, 0, local(2), 1},
      {1, 1, local(3), 1}, {2, 0, kEast, 1},   {2, 0, local(1), 1},
      {2, 1, kWest, 2},   {3, 0, kNorth, 1},  {3, 1, kSouth, 1},
      {3, 1, local(3), 1}, {4, 0, kWest, 1},   {4, 0, local(1), 1},
      {4, 1, local(2), 1}, {5, 0, kWest, 1},   {5, 1, kWest, 1},
      {6, 0, kNorth, 2},  {6, 1, local(3), 1}, {7, 0, kEast, 1},
      {7, 1, local(1), 1},
  };
  std::unordered_map<PacketId, std::string> input_vc;  // "port.vc"
  PacketId next_id = 1;
  for (const Send& send : sends) {
    Packet p;
    p.id = next_id++;
    p.type = send.vc == 0 ? PacketType::kReadRequest : PacketType::kReadReply;
    p.src = 0;
    p.dst = send.dst;
    p.num_flits = send.size;
    const PacketSlot slot = packets.Add(PacketRecord::Of(p, coord(send.dst)));
    input_vc[p.id] =
        std::to_string(send.port) + "." + std::to_string(send.vc);
    for (int seq = 0; seq < send.size; ++seq) {
      Flit f;
      f.slot = slot;
      f.kind = KindAt(seq, send.size);
      f.cls = p.cls();
      f.dst = send.dst;
      f.vc = send.vc;
      f.seq = static_cast<std::uint16_t>(seq);
      router.AcceptFlit(static_cast<Port>(send.port), f, 0);
    }
  }

  std::vector<std::string> visits;
  for (Cycle now = 0; now < 40 && router.HasWork(); ++now) {
    const RequestMask ejected = router.Tick(now);
    std::map<int, std::string> moved;  // output port -> input VC
    for (int k = 0; k < 4; ++k) {
      RecordingSink& sink = sinks[static_cast<std::size_t>(k)];
      sink.ids.clear();
      nics[static_cast<std::size_t>(k)]->Tick(now);
      for (const PacketId id : sink.ids) moved[k] += input_vc[id];
    }
    for (int p = 4; p < 8; ++p) {
      while (const auto flit =
                 links[static_cast<std::size_t>(p - 4)]->Pop(now + 1)) {
        moved[p] += input_vc[packets[flit->slot].id];
        router.AcceptCredit(static_cast<Port>(p), flit->vc);
      }
    }
    if (moved.empty() && ejected == 0) continue;
    std::string visit = std::to_string(now) + ":";
    for (const auto& [port, from] : moved) {
      visit += ' ';
      visit += std::to_string(port) + "<-" + from;
    }
    visit += " ejected ";
    visit += std::to_string(ejected);
    visits.push_back(visit);
  }
  EXPECT_FALSE(router.HasWork());
  EXPECT_GT(router.stats().va_failures, 0u) << "VA contention";

  const std::vector<std::string> want = {
      "1: 1<-7.1 2<-1.0 3<-6.1 4<-3.0 5<-2.0 7<-0.0 ejected 14",
      "2: 1<-0.1 2<-4.1 3<-1.1 4<-6.0 5<-7.0 6<-3.1 7<-2.1 ejected 14",
      "3: 1<-2.0 3<-3.1 4<-6.0 7<-0.0 ejected 10",
      "4: 7<-2.1 ejected 0",
      "5: 7<-4.0 ejected 0",
      "6: 1<-4.0 7<-5.0 ejected 2",
      "7: 7<-5.1 ejected 0",
  };
  EXPECT_EQ(visits, want);
}

TEST(RouterTest, StatsCountForwardedFlitsPerPortAndClass) {
  RouterHarness h(DefaultConfig());
  Flit f = h.MakeFlit(FlitKind::kHeadTail, TrafficClass::kReply, Coord{0, 1},
                      /*vc=*/1, 1);
  h.router_.AcceptFlit(Port::kEast, f, 0);
  for (Cycle c = 0; c < 4; ++c) h.router_.Tick(c);
  EXPECT_EQ(h.router_.stats().flits_forwarded, 1u);
  EXPECT_EQ(h.router_.stats().flits_out[PortIndex(Port::kWest)]
                                       [ClassIndex(TrafficClass::kReply)],
            1u);
  EXPECT_GE(h.router_.stats().busy_cycles, 1u);
  h.router_.ResetStats();
  EXPECT_EQ(h.router_.stats().flits_forwarded, 0u);
}

}  // namespace
}  // namespace gnoc
