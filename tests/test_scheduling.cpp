// Tests of the two scheduling backends: the soa core against the full-tick
// reference. Bit-identical results across routing x VC-policy x topology,
// high load, the full GPU design space and the sweep override; instrumented
// and bare runs simulating the same outcome; NIC state and per-router
// counters matching full mode cycle by cycle, in open-loop networks and in
// the GPU model, including at each site that wakes a sleeping router or
// NIC; the retired backend names parsing as soa aliases; soa's skip cost on
// idle and sparse networks and its pinned visit counts; deadlock-watchdog
// parity (including a checkpoint taken mid-stall); the scheduler-coverage
// audit of soa's occupancy and asleep bits; snapshot round-trips through
// the bit rebuild, with components asleep at the save; and the route-LUT
// fast path agreeing with the analytic routing function.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/config.hpp"
#include "common/enum_registry.hpp"
#include "common/serialize.hpp"
#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "noc/vc_policy.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

// --- mode plumbing ---------------------------------------------------------

TEST(SchedulingModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kFull), "full");
  EXPECT_EQ(ParseSchedulingMode("full"), SchedulingMode::kFull);
  EXPECT_EQ(ParseSchedulingMode("FULL"), SchedulingMode::kFull);
  EXPECT_EQ(SchedulingRegistry().Choices(), "full|soa");
  EXPECT_THROW(ParseSchedulingMode("lazy"), std::invalid_argument);
  // GpuConfigFingerprint hashes the numeric values.
  EXPECT_EQ(static_cast<int>(SchedulingMode::kFull), 0);
  EXPECT_EQ(static_cast<int>(SchedulingMode::kSoa), 3);
}

// soa's canonical name, and the retired backends' names parsing as its
// aliases; an alias names soa when printed back.
TEST(SoaModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kSoa), "soa");
  EXPECT_EQ(ParseSchedulingMode("soa"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("SOA"), SchedulingMode::kSoa);
  for (const char* alias :
       {"active-set", "active", "activeset", "event", "ACTIVE", "EVENT"}) {
    EXPECT_EQ(ParseSchedulingMode(alias), SchedulingMode::kSoa) << alias;
    EXPECT_STREQ(SchedulingModeName(ParseSchedulingMode(alias)), "soa")
        << alias;
  }
}

// Config files and job specs naming a retired backend still load.
TEST(SchedulingModeTest, GpuConfigOverridesAcceptAliases) {
  for (const char* alias : {"active-set", "event"}) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.ApplyOverrides(
        Config::FromString(std::string("scheduling=") + alias));
    EXPECT_EQ(cfg.scheduling, SchedulingMode::kSoa) << alias;
  }
}

// A zero dynamic epoch would spin the router/NIC boundary catch-up loops
// forever; the network must refuse it up front with an actionable error.
TEST(SchedulingModeTest, RejectsZeroDynamicEpoch) {
  NetworkConfig cfg;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 0;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
  // Irrelevant for static policies: the loops never run.
  cfg.vc_policy = VcPolicyKind::kSplit;
  EXPECT_NO_THROW(Network net(cfg));
}

// --- bit identity, network level -------------------------------------------

// Serializes everything observable about a finished network run: summary
// counters, per-class latency moments and, for an instrumented run, audit
// counters and the full telemetry CSV. Two runs are "bit-identical" iff
// these strings match. A bare run's string is the instrumented one's
// prefix, cut before the audit line.
std::string NetworkFingerprint(NetworkConfig cfg, SchedulingMode mode,
                               double injection_rate,
                               bool instrumented = true) {
  cfg.scheduling = mode;
  cfg.audit = instrumented;
  cfg.audit_interval = 4;
  cfg.telemetry = instrumented;
  cfg.telemetry_interval = 50;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = injection_rate;
  tcfg.packet_size = 4;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1200; ++c) {
    traffic.Tick();
    net.Tick();
  }
  const bool drained = net.Drain(10000);

  std::ostringstream out;
  out.precision(17);
  out << "drained=" << drained << " deadlocked=" << net.Deadlocked()
      << " now=" << net.now() << " in_flight=" << net.FlitsInFlight()
      << " generated=" << traffic.generated()
      << " dropped=" << traffic.dropped() << '\n';
  const NetworkSummary s = net.Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    out << "class " << c << ": pkts " << s.packets_injected[ci] << '/'
        << s.packets_ejected[ci] << " flits " << s.flits_injected[ci] << '/'
        << s.flits_ejected[ci] << " plat " << s.packet_latency[ci].count()
        << ' ' << s.packet_latency[ci].mean() << ' '
        << s.packet_latency[ci].max() << " nlat "
        << s.network_latency[ci].count() << ' '
        << s.network_latency[ci].mean() << '\n';
  }
  out << "forwarded=" << s.flits_forwarded << '\n';
  if (!instrumented) return out.str();
  const AuditReport r = net.AuditResults();
  out << "audit checks=" << r.checks << " events=" << r.events
      << " violations=" << r.violations << " inj=" << r.flits_injected
      << " ej=" << r.flits_ejected << '\n';
  net.TelemetryResults().WriteCsv(out);
  return out.str();
}

// kFull and kSoa must agree bit-for-bit — stats, audit counters and
// telemetry windows — for every routing x VC-policy combination, with the
// auditor (and with it soa's coverage audit) and telemetry running.
TEST(SchedulingBitIdentityTest, OpenLoopMatrixMatchesFullMode) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  const VcPolicyKind policies[] = {VcPolicyKind::kSplit,
                                   VcPolicyKind::kAsymmetric,
                                   VcPolicyKind::kDynamic};
  for (RoutingAlgorithm routing : routings) {
    for (VcPolicyKind policy : policies) {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.num_vcs = 4;
      cfg.vc_depth = 4;
      cfg.routing = routing;
      cfg.vc_policy = policy;
      cfg.dynamic_epoch = 64;
      EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
                NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
          << RoutingName(routing) << "/" << VcPolicyName(policy);
    }
  }
}

// The equivalence must also hold on the non-mesh topologies: wrap links
// (dateline VC halves), concentration (multiple local ports per router)
// and circulant skip links all change the link and router counts.
TEST(SchedulingBitIdentityTest, TopologyMatrixMatchesFullMode) {
  const TopologyKind topologies[] = {TopologyKind::kTorus,
                                     TopologyKind::kCMesh,
                                     TopologyKind::kCirculant};
  for (TopologyKind topology : topologies) {
    NetworkConfig cfg;
    cfg.topology = topology;
    cfg.width = 4;
    cfg.height = 4;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
              NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
        << TopologyName(topology);
  }
}

// Near saturation almost every VC is occupied, so nearly every bit is set
// and the skip rules almost never fire — the opposite regime from the
// sparse matrix above.
TEST(SchedulingBitIdentityTest, HighLoadMatchesFullMode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.4),
            NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.4));
}

// The auditor and telemetry only observe. Four runs per routing x
// VC-policy cell — {full, soa} x {instrumented, bare} — must simulate the
// same traffic to the same outcome: the two bare runs agree bit-for-bit,
// and both instrumented runs begin with exactly the bare fingerprint. In
// particular soa's coverage audit must not disturb the bits it checks.
TEST(SoaBitIdentityTest, FourWayOpenLoopMatrixAgrees) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  const VcPolicyKind policies[] = {VcPolicyKind::kSplit,
                                   VcPolicyKind::kAsymmetric,
                                   VcPolicyKind::kDynamic};
  for (RoutingAlgorithm routing : routings) {
    for (VcPolicyKind policy : policies) {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.num_vcs = 4;
      cfg.vc_depth = 4;
      cfg.routing = routing;
      cfg.vc_policy = policy;
      cfg.dynamic_epoch = 64;
      const std::string label =
          std::string(RoutingName(routing)) + "/" + VcPolicyName(policy);
      const std::string bare = NetworkFingerprint(
          cfg, SchedulingMode::kFull, 0.1, /*instrumented=*/false);
      EXPECT_EQ(bare, NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1,
                                         /*instrumented=*/false))
          << label;
      for (SchedulingMode mode :
           {SchedulingMode::kFull, SchedulingMode::kSoa}) {
        const std::string instrumented = NetworkFingerprint(cfg, mode, 0.1);
        EXPECT_EQ(instrumented.substr(0, bare.size()), bare)
            << label << " instrumented " << SchedulingModeName(mode);
      }
    }
  }
}

// Serializes, at one cycle, the clock, every NIC's stall counters as
// stats() reads them and its object state (soa ticks a NIC whenever a tick
// could change it — a held packet or flit, a landing credit, a dynamic
// epoch boundary — and a sleeping NIC charges the ticks it skipped before
// either read, so all of it must match full mode's every-cycle ticks) and
// every router's counters (stats() charges the visits a sleeping router
// skipped) and per-(port, VC) input occupancy, which shows which VC each
// flit was allocated. Router object state is not compared whole: soa defers
// a skipped router's output-VC recycling and boundary replay to its next
// tick (DESIGN.md §9), and a router that fell asleep on a visit granting
// the VA requester just before a port's round-robin pointer keeps that
// pointer where full mode's next visit moves it (DESIGN.md §14), so those
// fields may lag full mode's without changing any later decision.
std::string ComponentState(const Network& net) {
  Serializer s;
  s.U64(net.now());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const Nic& nic = net.nic(n);
    s.U64(nic.stats().inject_stall_cycles);
    s.U64(nic.stats().inject_drain_cycles);
    nic.Save(s);
  }
  for (NodeId r = 0; r < net.num_routers(); ++r) {
    const Router& router = net.router(r);
    const RouterStats& st = router.stats();
    for (const auto& per_port : st.flits_out) {
      for (const std::uint64_t n : per_port) s.U64(n);
    }
    s.U64(st.busy_cycles);
    s.U64(st.flits_forwarded);
    s.U64(st.va_failures);
    s.U64(st.sa_stalls);
    for (const std::uint64_t n : st.credit_stall_by_vc) s.U64(n);
    s.U64(st.buffered_flit_cycles);
    for (int p = 0; p < router.num_ports(); ++p) {
      for (VcId v = 0; v < router.config().num_vcs; ++v) {
        s.U64(router.VcOccupancy(static_cast<Port>(p), v));
      }
    }
  }
  return s.TakeBytes();
}

// Accepts packets only on cycles that are multiples of `accept_every`,
// which backs ejection up into the routers. With a nonzero `offset` it
// answers every accepted reply by injecting, from inside Accept — in the
// middle of the NIC phase — a one-flit request from node `dst + offset`
// back to the packet's source. Relays are request-class and are not
// answered themselves; a relay source outside the network is skipped.
class RelaySink final : public PacketSink {
 public:
  RelaySink(Network& net, int offset, Cycle accept_every = 1)
      : net_(net), offset_(offset), accept_every_(accept_every) {}

  bool Accept(const Packet& packet, Cycle now) override {
    if (now % accept_every_ != 0) return false;
    if (offset_ == 0 || packet.cls() == TrafficClass::kRequest) return true;
    Packet relay;
    relay.type = PacketType::kReadRequest;
    relay.src = packet.dst + offset_;
    relay.dst = packet.src;
    relay.num_flits = 1;
    if (relay.src < 0 || relay.src >= net_.num_nodes() ||
        relay.src == relay.dst) {
      return true;
    }
    net_.Inject(relay);  // a full queue drops it, in both modes alike
    return true;
  }

 private:
  Network& net_;
  int offset_;
  Cycle accept_every_;
};

// Drives the same open-loop traffic through a full-mode and a soa-mode
// network side by side, compares their component state every `stride`
// cycles and again after both drain. A divergence is caught within
// `stride` cycles of where it starts, not only if it survives into the
// end-of-run summary. A nonzero `relay_offset` or an `accept_every` above
// 1 installs a RelaySink with them at every node of both networks.
void ExpectLockstepStatesMatch(NetworkConfig cfg, const OpenLoopConfig& tcfg,
                               int cycles, int stride,
                               const std::string& label,
                               int relay_offset = 0, Cycle accept_every = 1) {
  cfg.scheduling = SchedulingMode::kFull;
  Network full(cfg);
  cfg.scheduling = SchedulingMode::kSoa;
  Network soa(cfg);
  OpenLoopTraffic full_traffic(full, tcfg);
  OpenLoopTraffic soa_traffic(soa, tcfg);
  RelaySink full_relay(full, relay_offset, accept_every);
  RelaySink soa_relay(soa, relay_offset, accept_every);
  if (relay_offset != 0 || accept_every > 1) {
    for (NodeId n = 0; n < full.num_nodes(); ++n) {
      full.SetSink(n, &full_relay);
      soa.SetSink(n, &soa_relay);
    }
  }
  for (int c = 1; c <= cycles; ++c) {
    full_traffic.Tick();
    full.Tick();
    soa_traffic.Tick();
    soa.Tick();
    if (c % stride == 0) {
      ASSERT_TRUE(ComponentState(full) == ComponentState(soa))
          << label << ": component state differs at cycle " << c;
    }
  }
  EXPECT_GT(full_traffic.generated(), 0u) << label;
  const bool full_drained = full.Drain(10000);
  EXPECT_EQ(full_drained, soa.Drain(10000)) << label;
  EXPECT_TRUE(ComponentState(full) == ComponentState(soa))
      << label << ": component state differs after draining";
}

// On the non-mesh topologies — wrap links with dateline VC halves,
// concentrated routers with several local ports, circulant skip links —
// every NIC and every router's counters must track full mode cycle by
// cycle, not just reach the same end-of-run summary.
TEST(SoaBitIdentityTest, TopologyMatrixMatchesFullMode) {
  const TopologyKind topologies[] = {TopologyKind::kTorus,
                                     TopologyKind::kCMesh,
                                     TopologyKind::kCirculant};
  for (TopologyKind topology : topologies) {
    NetworkConfig cfg;
    cfg.topology = topology;
    cfg.width = 4;
    cfg.height = 4;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    OpenLoopConfig tcfg;
    tcfg.injection_rate = 0.1;
    tcfg.packet_size = 4;
    ExpectLockstepStatesMatch(cfg, tcfg, /*cycles=*/1200, /*stride=*/25,
                              TopologyName(topology));
  }
}

// A cmesh router has radix 8, so num_vcs=8 fills the 64-bit request mask
// exactly: the VA masks use bit 63 and SA1 slices the last port's VCs from
// the top byte (the UBSan build turns a shift by 64 into a failure here).
// Full and soa must deliver the same traffic identically, and the input VC
// behind bit 63 must actually carry flits.
TEST(SoaBitIdentityTest, FullWidthRequestMaskMatchesFullMode) {
  NetworkConfig cfg;
  cfg.topology = TopologyKind::kCMesh;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 8;
  cfg.vc_depth = 2;
  OpenLoopConfig tcfg;
  tcfg.injection_rate = 0.5;
  tcfg.packet_size = 4;
  ExpectLockstepStatesMatch(cfg, tcfg, /*cycles=*/1200, /*stride=*/25,
                            "cmesh num_vcs=8");
  EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.5),
            NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.5));

  cfg.scheduling = SchedulingMode::kSoa;
  Network net(cfg);
  OpenLoopTraffic traffic(net, tcfg);
  const auto top_port = static_cast<Port>(net.router(0).num_ports() - 1);
  bool top_bit_used = false;
  for (int c = 0; c < 1200 && !top_bit_used; ++c) {
    traffic.Tick();
    net.Tick();
    for (NodeId r = 0; r < net.num_routers(); ++r) {
      if (net.router(r).VcOccupancy(top_port, cfg.num_vcs - 1) > 0) {
        top_bit_used = true;
      }
    }
  }
  EXPECT_TRUE(top_bit_used);
}

// Saturating adversarial patterns load some routers to the limit while
// others stay nearly idle, so set and clear regions of the occupancy
// bitmaps coexist and shift from cycle to cycle. NIC state and per-router
// counters must track full mode throughout.
TEST(SoaBitIdentityTest, HighLoadMatchesFullMode) {
  const TrafficPattern patterns[] = {TrafficPattern::kTranspose,
                                     TrafficPattern::kTornado,
                                     TrafficPattern::kHotspot};
  for (TrafficPattern pattern : patterns) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    OpenLoopConfig tcfg;
    tcfg.pattern = pattern;
    tcfg.injection_rate = 0.4;
    tcfg.packet_size = 4;
    tcfg.hotspots = {5, 10};
    ExpectLockstepStatesMatch(cfg, tcfg, /*cycles=*/1200, /*stride=*/25,
                              TrafficPatternName(pattern));
  }
}

// Each way an idle, sleeping NIC is woken must fire at the cycle full
// mode's every-cycle tick would act, compared cycle by cycle at loads
// where most NICs sleep most of the time:
//  - vc_policy=dynamic with a short epoch: idle NICs sleep across epoch
//    boundaries and must still commit each one on time. The open-loop
//    generator sends replies only, so every boundary soon sits at its
//    limit; request-class relays move it back and forth, which makes a
//    late epoch commit (in a NIC or a skipped router) visible;
//  - non-atomic VC reallocation under a backpressured hotspot: a NIC
//    releases its VC at the tail and goes idle — and to sleep, its bit
//    cleared — while its last flits still wait in its router, so the
//    credits they free reach a sleeping NIC and must wake it;
//  - a sink injecting from inside Accept: the woken NIC sits above the
//    accepting one (ticked later in the same NIC phase) or below it
//    (ticked next cycle).
TEST(SoaBitIdentityTest, NicWakeSitesMatchFullMode) {
  NetworkConfig base;
  base.width = 4;
  base.height = 4;
  base.num_vcs = 4;
  base.vc_depth = 4;
  OpenLoopConfig tcfg;
  tcfg.injection_rate = 0.02;
  tcfg.packet_size = 4;

  NetworkConfig dynamic = base;
  dynamic.vc_policy = VcPolicyKind::kDynamic;
  dynamic.dynamic_epoch = 16;
  ExpectLockstepStatesMatch(dynamic, tcfg, /*cycles=*/1200, /*stride=*/1,
                            "dynamic epoch 16");
  ExpectLockstepStatesMatch(dynamic, tcfg, /*cycles=*/1200, /*stride=*/1,
                            "dynamic epoch 16, relay to the node above",
                            /*relay_offset=*/1);

  NetworkConfig eager = base;
  eager.atomic_vc_realloc = false;
  OpenLoopConfig hotspot = tcfg;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspots = {5};
  hotspot.hotspot_fraction = 0.9;
  hotspot.injection_rate = 0.1;
  ExpectLockstepStatesMatch(eager, hotspot, /*cycles=*/1200, /*stride=*/1,
                            "non-atomic VC reallocation, hotspot");

  ExpectLockstepStatesMatch(base, tcfg, /*cycles=*/1200, /*stride=*/1,
                            "relay to the node above", /*relay_offset=*/1);
  ExpectLockstepStatesMatch(base, tcfg, /*cycles=*/1200, /*stride=*/1,
                            "relay to the node below", /*relay_offset=*/-1);
}

// How many (router, cycle) and (NIC, cycle) pairs of a `cycles`-cycle soa
// run of this traffic end the cycle asleep.
std::pair<int, int> CountSleepers(NetworkConfig cfg, const OpenLoopConfig& tcfg,
                                  int cycles, Cycle accept_every) {
  cfg.scheduling = SchedulingMode::kSoa;
  Network net(cfg);
  OpenLoopTraffic traffic(net, tcfg);
  RelaySink sink(net, 0, accept_every);
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  std::pair<int, int> asleep{0, 0};
  for (int c = 0; c < cycles; ++c) {
    traffic.Tick();
    net.Tick();
    for (NodeId r = 0; r < net.num_routers(); ++r) {
      asleep.first += net.router(r).Asleep() ? 1 : 0;
    }
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      asleep.second += net.nic(n).Asleep() ? 1 : 0;
    }
  }
  return asleep;
}

// Each way a sleeping router or NIC is woken must fire at the cycle full
// mode's every-cycle visit would act, compared cycle by cycle under a
// static VC policy, where blocked routers and NICs sleep, around a hotspot:
//  - ejection space: its sink accepts a packet only every eighth cycle,
//    which fills its NIC's ejection buffer, so the router in front of it
//    sleeps until the NIC delivers a packet, while flits keep reaching
//    the sleeping routers behind it;
//  - credits: two-cycle links keep credits in flight to sleeping routers
//    and NICs, which must wake when they land.
// (NicWakeSitesMatchFullMode covers an injection into a sleeping NIC from
// inside Accept.) Both runs must actually put routers and NICs to sleep.
TEST(SoaBitIdentityTest, SleepWakeSitesMatchFullMode) {
  NetworkConfig base;
  base.width = 4;
  base.height = 4;
  base.num_vcs = 4;
  base.vc_depth = 4;
  OpenLoopConfig hotspot;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspots = {5};
  hotspot.hotspot_fraction = 0.9;
  hotspot.injection_rate = 0.1;
  hotspot.packet_size = 4;
  ExpectLockstepStatesMatch(base, hotspot, /*cycles=*/1200, /*stride=*/1,
                            "sinks accept every eighth cycle",
                            /*relay_offset=*/0, /*accept_every=*/8);
  const auto throttled = CountSleepers(base, hotspot, 1200, 8);
  EXPECT_GT(throttled.first, 0) << "no router slept behind slow sinks";
  EXPECT_GT(throttled.second, 0) << "no NIC slept behind slow sinks";

  NetworkConfig slow = base;
  slow.link_latency = 2;
  ExpectLockstepStatesMatch(slow, hotspot, /*cycles=*/1200, /*stride=*/1,
                            "two-cycle links, hotspot");
  const auto congested = CountSleepers(slow, hotspot, 1200, 1);
  EXPECT_GT(congested.first, 0) << "no router slept behind the hotspot";
  EXPECT_GT(congested.second, 0) << "no NIC slept behind the hotspot";
}

// --- bit identity, full GPU model ------------------------------------------

void ExpectRunsEqual(const GpuRunStats& a, const GpuRunStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.ipc, b.ipc) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.instructions, b.instructions) << label;
  EXPECT_EQ(a.packets_by_type, b.packets_by_type) << label;
  EXPECT_EQ(a.request_flits, b.request_flits) << label;
  EXPECT_EQ(a.reply_flits, b.reply_flits) << label;
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate) << label;
  EXPECT_EQ(a.dram_row_hit_rate, b.dram_row_hit_rate) << label;
  EXPECT_EQ(a.avg_read_latency, b.avg_read_latency) << label;
  EXPECT_EQ(a.deadlocked, b.deadlocked) << label;
  EXPECT_EQ(a.network.flits_forwarded, b.network.flits_forwarded) << label;
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(a.network.packets_ejected[ci], b.network.packets_ejected[ci])
        << label;
    EXPECT_EQ(a.network.packet_latency[ci].count(),
              b.network.packet_latency[ci].count())
        << label;
    EXPECT_EQ(a.network.packet_latency[ci].mean(),
              b.network.packet_latency[ci].mean())
        << label;
  }
  EXPECT_EQ(a.audit.checks, b.audit.checks) << label;
  EXPECT_EQ(a.audit.events, b.audit.events) << label;
  EXPECT_EQ(a.audit.violations, b.audit.violations) << label;
  std::ostringstream ta;
  std::ostringstream tb;
  a.telemetry.WriteCsv(ta);
  b.telemetry.WriteCsv(tb);
  EXPECT_EQ(ta.str(), tb.str()) << label;
}

// Runs one GPU configuration under full and soa side by side — 100 warm-up
// cycles, a stats reset, 300 measured — comparing every physical network's
// component state every 20 cycles, then the measured stats. GpuRunStats
// holds no per-router or per-NIC counter, so the state comparison is what
// catches a sleeping router or NIC charged the wrong skipped visits.
void ExpectGpuLockstep(GpuConfig cfg, const char* workload,
                       const std::string& label) {
  cfg.scheduling = SchedulingMode::kFull;
  GpuSystem full(cfg, FindWorkload(workload));
  cfg.scheduling = SchedulingMode::kSoa;
  GpuSystem soa(cfg, FindWorkload(workload));
  for (Cycle c = 1; c <= 400; ++c) {
    full.Tick();
    soa.Tick();
    if (c == 100) {
      full.ResetStats();
      soa.ResetStats();
    }
    if (c % 20 != 0) continue;
    for (int n = 0; n < full.fabric().num_networks(); ++n) {
      const auto cls = static_cast<TrafficClass>(n);
      ASSERT_TRUE(ComponentState(full.fabric().net(cls)) ==
                  ComponentState(soa.fabric().net(cls)))
          << label << ": network " << n << " differs at cycle " << c;
    }
  }
  ExpectRunsEqual(full.Measure(), soa.Measure(), label);
}

// Every deadlock-safe VC policy x routing x placement combination of the
// full GPU model must produce identical results and component state under
// both schedulers, with the auditor and telemetry enabled.
TEST(SchedulingBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  const VcPolicyKind policies[] = {
      VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
      VcPolicyKind::kPartialMonopolize, VcPolicyKind::kAsymmetric,
      VcPolicyKind::kDynamic};
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  int compared = 0;
  for (McPlacement placement : kAllPlacements) {
    for (RoutingAlgorithm routing : routings) {
      for (VcPolicyKind policy : policies) {
        GpuConfig cfg = GpuConfig::Baseline();
        cfg.placement = placement;
        cfg.routing = routing;
        cfg.vc_policy = policy;
        cfg.audit = true;
        cfg.audit_interval = 8;
        cfg.telemetry = true;
        cfg.telemetry_interval = 100;
        const std::string label = std::string(McPlacementName(placement)) +
                                  "/" + RoutingName(routing) + "/" +
                                  VcPolicyName(policy);
        try {
          ExpectGpuLockstep(cfg, "BFS", label);
          ++compared;
        } catch (const std::invalid_argument&) {
          // Deadlock-unsafe combination: correctly refused up front.
        }
      }
    }
  }
  EXPECT_GE(compared, 12) << "design space unexpectedly small";
}

// The design-space axes the placement x routing x policy test above holds
// fixed — topology, VC count, VC depth and the network division — change
// the shape of soa's bitmaps. Every feasible combination of the full GPU
// model must produce identical results and component state under both
// schedulers; the physical division compares both of its networks.
TEST(SoaBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  const TopologyKind topologies[] = {TopologyKind::kMesh, TopologyKind::kTorus,
                                     TopologyKind::kCMesh,
                                     TopologyKind::kCirculant};
  int compared = 0;
  for (TopologyKind topology : topologies) {
    for (int num_vcs : {2, 4}) {
      for (int vc_depth : {2, 6}) {
        GpuConfig cfg = GpuConfig::Baseline();
        cfg.topology = topology;
        cfg.num_vcs = num_vcs;
        cfg.vc_depth = vc_depth;
        cfg.audit = true;
        cfg.audit_interval = 8;
        cfg.telemetry = true;
        cfg.telemetry_interval = 100;
        const std::string label = std::string(TopologyName(topology)) +
                                  " vcs=" + std::to_string(num_vcs) +
                                  " depth=" + std::to_string(vc_depth);
        try {
          ExpectGpuLockstep(cfg, "KMN", label);
          ++compared;
        } catch (const std::invalid_argument&) {
          // Infeasible combination (e.g. too few VCs for the torus
          // dateline): correctly refused up front.
        }
      }
    }
  }
  EXPECT_GE(compared, 12) << "design space unexpectedly small";

  GpuConfig physical = GpuConfig::Baseline();
  physical.division = NetworkDivision::kPhysical;
  physical.num_vcs = 4;
  physical.audit = true;
  physical.audit_interval = 8;
  physical.telemetry = true;
  physical.telemetry_interval = 100;
  ExpectGpuLockstep(physical, "KMN", "physical division");
}

// A sweep cell runs its scheme's scheduling mode, and both modes agree.
TEST(SchedulingBitIdentityTest, SweepOverrideMatchesFullMode) {
  SchemeSpec scheme{"baseline", GpuConfig::Baseline()};
  SweepOptions opts;
  opts.lengths = RunLengths{100, 500};
  opts.threads = 1;
  scheme.config.scheduling = SchedulingMode::kSoa;
  const SweepResult soa = RunSweep({scheme}, {FindWorkload("KMN")}, opts);
  scheme.config.scheduling = SchedulingMode::kFull;
  const SweepResult full = RunSweep({scheme}, {FindWorkload("KMN")}, opts);
  ExpectRunsEqual(full.Get("baseline", "KMN"), soa.Get("baseline", "KMN"),
                  "sweep override");
}

// --- skip cost -------------------------------------------------------------

// An idle soa network takes no component step at all: no link has a due
// item, no router a buffered flit and no NIC a due tick (DESIGN.md §9,
// §14). (The name dates from when soa still ticked every NIC.)
TEST(SoaCostTest, IdleNetworkTicksOnlyNics) {
  NetworkConfig cfg;
  cfg.scheduling = SchedulingMode::kSoa;
  Network soa(cfg);
  for (int c = 0; c < 1000; ++c) soa.Tick();

  cfg.scheduling = SchedulingMode::kFull;
  Network full(cfg);
  for (int c = 0; c < 1000; ++c) full.Tick();

  // Against full mode's every-component bill.
  EXPECT_EQ(soa.TickSteps(), 0u);
  EXPECT_GT(full.TickSteps(), 0u);
}

// Component steps spent while one packet crosses an otherwise idle 8x8
// mesh corner to corner: soa's TickSteps whole (it ticks only the NICs on
// the path); full mode's TickSteps minus its every-cycle tick of every NIC.
std::uint64_t SparsePathSteps(SchedulingMode mode) {
  NetworkConfig cfg;
  cfg.scheduling = mode;
  Network net(cfg);
  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = net.num_nodes() - 1;
  p.type = PacketType::kReadRequest;
  p.num_flits = 2;
  EXPECT_TRUE(net.Inject(p));
  EXPECT_TRUE(net.Drain(1000));
  if (mode == SchedulingMode::kSoa) return net.TickSteps();
  const std::uint64_t nic_steps =
      net.now() * static_cast<std::uint64_t>(net.num_nodes());
  EXPECT_GE(net.TickSteps(), nic_steps);
  return net.TickSteps() - nic_steps;
}

// soa visits only the links, routers and NICs on the packet's path — a
// small fraction of full mode's every-router, every-link bill for the same
// run.
TEST(SchedulingCostTest, SparseTrafficTicksFewComponents) {
  const std::uint64_t soa = SparsePathSteps(SchedulingMode::kSoa);
  const std::uint64_t full = SparsePathSteps(SchedulingMode::kFull);
  EXPECT_GT(soa, 0u);
  EXPECT_LT(soa * 20u, full);
}

// soa's visit count of a 4x4 open-loop run and its drain: four VCs,
// uniform random traffic at 0.05 flits/node/cycle, four-flit packets.
std::uint64_t SoaRunSteps(NetworkConfig cfg) {
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.scheduling = SchedulingMode::kSoa;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.injection_rate = 0.05;
  tcfg.packet_size = 4;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 600; ++c) {
    traffic.Tick();
    net.Tick();
  }
  EXPECT_TRUE(net.Drain(10000));
  return net.TickSteps();
}

// What soa visits is pinned, not just what it computes: a skip rule that
// visits too much (a NIC ticked before its NextDue, a blocked router or
// NIC kept awake, or a flit-less router kept awake by a dynamic epoch the
// next Tick would replay anyway, whose visits change nothing) can leave
// every result bit-identical and still change the count. Two inputs
// exercise those rules: non-atomic VC reallocation over two-cycle links,
// where idle and blocked NICs wait on credits still on the wire (6,098
// visits before blocked routers and NICs slept), and a 16-cycle dynamic
// epoch, where nothing blocked sleeps and a flit-less router skips the
// boundaries it holds uncommitted flit counts for. A change that means to
// move the counts updates them here.
TEST(SoaCostTest, VisitCountsArePinned) {
  NetworkConfig eager;
  eager.atomic_vc_realloc = false;
  eager.link_latency = 2;
  EXPECT_EQ(SoaRunSteps(eager), 6077u) << "non-atomic, link latency 2";
  NetworkConfig dynamic;
  dynamic.vc_policy = VcPolicyKind::kDynamic;
  dynamic.dynamic_epoch = 16;
  EXPECT_EQ(SoaRunSteps(dynamic), 6424u) << "dynamic epoch 16";
}

// --- watchdog parity -------------------------------------------------------

// A sink that never accepts wedges the network. Routers soa skips are
// exactly the case a naive watchdog would miss, so soa must
// feed it the same idle/progress signal and declare deadlock at the same
// cycle as full mode.
Cycle DeadlockCycle(SchedulingMode mode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.deadlock_threshold = 200;
  cfg.scheduling = mode;
  Network net(cfg);
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  p.type = PacketType::kReadRequest;
  p.num_flits = 3;
  EXPECT_TRUE(net.Inject(p));
  for (int c = 0; c < 2000; ++c) {
    net.Tick();
    if (net.Deadlocked()) return net.now();
  }
  return 0;  // never fired
}

TEST(SoaWatchdogTest, FiresAtTheSameCycleAsFullMode) {
  const Cycle full = DeadlockCycle(SchedulingMode::kFull);
  const Cycle soa = DeadlockCycle(SchedulingMode::kSoa);
  ASSERT_GT(full, 0u) << "watchdog never fired in full mode";
  EXPECT_EQ(full, soa);
}

// A sleeping router holds flits and a sleeping NIC is not idle, so the
// drained predicate the watchdog and Drain share must count them. Two
// packets from nodes 0 and 1 to node 2 need router 1's one request VC
// east: one waits there, asleep on VA, until the other has left router 2
// and, over a two-cycle link, its last credit has come back — cycles in
// which only credits are on the wire and every flit waits in the sleeping
// router. Every cycle, Drain(0) — that predicate alone — must agree with
// the full scan.
TEST(SoaWatchdogTest, DrainCountsSleepingComponents) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.link_latency = 2;
  cfg.scheduling = SchedulingMode::kSoa;
  Network net(cfg);
  for (NodeId src : {0, 1}) {
    Packet p;
    p.src = src;
    p.dst = 2;
    p.type = PacketType::kReadRequest;
    p.num_flits = 4;
    ASSERT_TRUE(net.Inject(p));
  }
  bool slept = false;
  for (int c = 0; c < 100; ++c) {
    net.Tick();
    ASSERT_EQ(net.Drain(0), net.FlitsInFlight() == 0) << "cycle " << c;
    slept = slept || net.router(1).Asleep();
  }
  EXPECT_TRUE(slept) << "router 1 never slept";
  EXPECT_EQ(net.FlitsInFlight(), 0u) << "the packets did not arrive";
}

// A snapshot taken mid-stall must restore the watchdog's baseline exactly,
// so a resumed run neither trips a spurious deadlock (baseline too old)
// nor masks the real one (baseline reset to the restore cycle). The
// resumed network must declare deadlock at the same cycle as the
// uninterrupted run, under either scheduler.
TEST(SchedulingWatchdogTest, CheckpointMidStallKeepsDeadlockCycle) {
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;
  for (SchedulingMode mode : {SchedulingMode::kFull, SchedulingMode::kSoa}) {
    const auto make_net = [&] {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.deadlock_threshold = 200;
      cfg.scheduling = mode;
      auto net = std::make_unique<Network>(cfg);
      for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
      return net;
    };
    const std::string label = SchedulingModeName(mode);

    auto reference = make_net();
    Packet p;
    p.src = 0;
    p.dst = 15;
    p.type = PacketType::kReadRequest;
    p.num_flits = 3;
    ASSERT_TRUE(reference->Inject(p));
    Cycle uninterrupted = 0;
    Serializer snap;
    for (int c = 0; c < 2000; ++c) {
      // Snapshot 120 cycles into the stall — past the last progress
      // event, well before the threshold fires.
      if (reference->now() == 120) reference->Save(snap);
      reference->Tick();
      if (reference->Deadlocked()) {
        uninterrupted = reference->now();
        break;
      }
    }
    ASSERT_GT(uninterrupted, 0u) << label << ": watchdog never fired";

    auto resumed = make_net();
    Deserializer d(snap.bytes());
    resumed->Load(d);
    d.Finish();
    EXPECT_FALSE(resumed->Deadlocked()) << label << ": spurious deadlock";
    Cycle after_resume = 0;
    for (int c = 0; c < 2000; ++c) {
      resumed->Tick();
      if (resumed->Deadlocked()) {
        after_resume = resumed->now();
        break;
      }
    }
    ASSERT_GT(after_resume, 0u) << label << ": restore masked the deadlock";
    EXPECT_EQ(after_resume, uninterrupted) << label;
  }
}

// --- scheduler-coverage invariant ------------------------------------------

// Clearing every soa occupancy bit while work is pending is a lost wake by
// construction; the coverage audit must report it — with flits in flight
// (4 ticks after injection), and with the packet still parked in its
// source NIC's injection queue (0 ticks), where only the NIC's bit
// schedules it.
TEST(SchedulingCoverageTest, ForceSleepTripsCoverageInvariant) {
  for (int ticks_before_sleep : {4, 0}) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.scheduling = SchedulingMode::kSoa;
    cfg.audit = true;
    cfg.audit_interval = 1;
    Network net(cfg);
    struct Sink : PacketSink {
      bool Accept(const Packet&, Cycle) override { return true; }
    } sink;
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
    Packet p;
    p.src = 0;
    p.dst = 15;
    p.type = PacketType::kReadRequest;
    p.num_flits = 4;
    ASSERT_TRUE(net.Inject(p));
    for (int c = 0; c < ticks_before_sleep; ++c) net.Tick();
    if (ticks_before_sleep == 0) {
      ASSERT_EQ(net.FlitsInFlight(), 1u);  // only the busy source NIC
    } else {
      ASSERT_GT(net.FlitsInFlight(), 0u);
    }
    ASSERT_TRUE(net.AuditResults().clean());
    net.ForceSleepAll();
    for (int c = 0; c < 4; ++c) net.Tick();
    const AuditReport r = net.AuditResults();
    EXPECT_GT(r.by_invariant[static_cast<std::size_t>(
                  AuditInvariant::kSchedulerCoverage)],
              0u)
        << ticks_before_sleep << " ticks before sleeping";
    EXPECT_FALSE(r.clean());
  }
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kSchedulerCoverage),
               "scheduler-coverage");
}

// A clean audited soa run must never trip the coverage invariant: every
// wake site is in place and every router's flit count matches its
// buffers, so the audit finds nothing.
TEST(SchedulingCoverageTest, CleanRunHasFullCoverage) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.scheduling = SchedulingMode::kSoa;
  cfg.audit = true;
  cfg.audit_interval = 1;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = 0.2;
  tcfg.packet_size = 3;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(10000));
  const AuditReport r = net.AuditResults();
  EXPECT_GT(r.checks, 0u);
  EXPECT_EQ(r.by_invariant[static_cast<std::size_t>(
                AuditInvariant::kSchedulerCoverage)],
            0u);
  EXPECT_TRUE(r.clean()) << (r.samples.empty() ? std::string()
                                               : r.samples[0].detail);
}

// --- snapshot round-trips through the bit rebuild --------------------------

// Saving mid-run from a soa network and restoring into a fresh one must
// resume bit-identically. Snapshots carry only object state; the restore
// path rebuilds every occupancy bit from the loaded objects
// (RebuildFromObjects) — routers with flits parked mid-VC, links with
// flits mid-channel — and each router's flit count (Router::Load).
TEST(SoaSnapshotTest, SoaModeResumesBitIdentically) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 64;
  cfg.scheduling = SchedulingMode::kSoa;

  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  const auto make_net = [&] {
    auto net = std::make_unique<Network>(cfg);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  // Deterministic all-to-all burst: plenty of contention mid-flight.
  const auto inject_burst = [](Network& net) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      Packet p;
      p.src = n;
      p.dst = net.num_nodes() - 1 - n;
      if (p.dst == p.src) continue;
      p.type = PacketType::kReadRequest;
      p.num_flits = 4;
      ASSERT_TRUE(net.Inject(p));
    }
  };
  const auto fingerprint = [](Network& net) {
    Serializer out;
    net.Save(out);
    return out.TakeBytes();
  };

  // Uninterrupted run: burst, then 500 cycles (drains and then idles over
  // several dynamic-epoch boundaries).
  auto plain = make_net();
  inject_burst(*plain);
  for (int c = 0; c < 500; ++c) plain->Tick();

  // Interrupted run: snapshot at cycle 10 while flits are in flight,
  // restore into a fresh soa network, replay the remaining cycles.
  auto first = make_net();
  inject_burst(*first);
  for (int c = 0; c < 10; ++c) first->Tick();
  ASSERT_GT(first->FlitsInFlight(), 0u) << "snapshot caught an idle instant";
  Serializer s;
  first->Save(s);

  auto second = make_net();
  Deserializer d(s.bytes());
  second->Load(d);
  d.Finish();
  EXPECT_GT(second->FlitsInFlight(), 0u);
  for (int c = 0; c < 490; ++c) second->Tick();

  EXPECT_EQ(fingerprint(*plain), fingerprint(*second));
  EXPECT_EQ(plain->TickSteps(), second->TickSteps());
}

// A resumed soa run under a static VC policy, where blocked routers and
// NICs sleep: slow sinks back a hotspot burst up, and the snapshot is
// taken while routers and NICs are asleep. Sleep is not saved, so the
// resumed network visits every component until it falls asleep again.
// Every payload byte must equal the uninterrupted run's except
// tick_steps_, which counts that host work, not a result.
TEST(SoaSnapshotTest, SleepingComponentsResumeBitIdentically) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.scheduling = SchedulingMode::kSoa;

  struct SlowSink : PacketSink {
    bool Accept(const Packet&, Cycle now) override { return now % 3 == 0; }
  } sink;
  const auto make_net = [&] {
    auto net = std::make_unique<Network>(cfg);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  // Three four-flit requests from every node to node 5.
  const auto inject_burst = [](Network& net) {
    for (int k = 0; k < 3; ++k) {
      for (NodeId n = 0; n < net.num_nodes(); ++n) {
        if (n == 5) continue;
        Packet p;
        p.src = n;
        p.dst = 5;
        p.type = PacketType::kReadRequest;
        p.num_flits = 4;
        ASSERT_TRUE(net.Inject(p));
      }
    }
  };
  const auto payload = [](const Network& net) {
    Serializer out;
    net.Save(out);
    return out.TakeBytes();
  };
  // tick_steps_ is the third u64 of a Network payload, after the clock and
  // the packet-id counter.
  const auto steps_in = [](const std::string& bytes) {
    Deserializer d(bytes);
    d.U64();
    d.U64();
    return d.U64();
  };

  auto plain = make_net();
  inject_burst(*plain);
  for (int c = 0; c < 600; ++c) plain->Tick();

  auto first = make_net();
  inject_burst(*first);
  for (int c = 0; c < 60; ++c) first->Tick();
  int routers_asleep = 0;
  for (NodeId r = 0; r < first->num_routers(); ++r) {
    routers_asleep += first->router(r).Asleep() ? 1 : 0;
  }
  int nics_asleep = 0;
  for (NodeId n = 0; n < first->num_nodes(); ++n) {
    nics_asleep += first->nic(n).Asleep() ? 1 : 0;
  }
  ASSERT_GT(routers_asleep, 0) << "no router asleep at the snapshot";
  ASSERT_GT(nics_asleep, 0) << "no NIC asleep at the snapshot";
  Serializer s;
  first->Save(s);

  auto second = make_net();
  Deserializer d(s.bytes());
  second->Load(d);
  d.Finish();
  for (int c = 0; c < 540; ++c) second->Tick();

  std::string want = payload(*plain);
  std::string got = payload(*second);
  ASSERT_EQ(steps_in(want), plain->TickSteps());
  ASSERT_EQ(steps_in(got), second->TickSteps());
  EXPECT_GE(second->TickSteps(), plain->TickSteps());
  want.replace(16, 8, 8, '\0');
  got.replace(16, 8, 8, '\0');
  EXPECT_TRUE(want == got) << "payloads differ beyond tick_steps_";
}

// The snapshot bytes themselves are mode-independent object state: a
// full-mode network's mid-flight snapshot must restore into a soa network
// and drain to the same final summary the full-mode run reaches.
TEST(SoaSnapshotTest, FullModeSnapshotRestoresIntoSoaMode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;

  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  const auto make_net = [&](SchedulingMode mode) {
    NetworkConfig c = cfg;
    c.scheduling = mode;
    auto net = std::make_unique<Network>(c);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  const auto summarize = [](Network& net) {
    std::ostringstream out;
    out.precision(17);
    const NetworkSummary s = net.Summarize();
    out << net.now() << ' ' << net.FlitsInFlight() << ' '
        << s.flits_forwarded;
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      out << ' ' << s.packets_ejected[ci] << ' '
          << s.packet_latency[ci].mean();
    }
    return out.str();
  };

  auto full = make_net(SchedulingMode::kFull);
  for (NodeId n = 0; n < full->num_nodes(); ++n) {
    Packet p;
    p.src = n;
    p.dst = full->num_nodes() - 1 - n;
    if (p.dst == p.src) continue;
    p.type = PacketType::kReadRequest;
    p.num_flits = 4;
    ASSERT_TRUE(full->Inject(p));
  }
  for (int c = 0; c < 10; ++c) full->Tick();
  ASSERT_GT(full->FlitsInFlight(), 0u);
  Serializer s;
  full->Save(s);
  for (int c = 0; c < 490; ++c) full->Tick();

  auto soa = make_net(SchedulingMode::kSoa);
  Deserializer d(s.bytes());
  soa->Load(d);
  d.Finish();
  EXPECT_GT(soa->FlitsInFlight(), 0u);
  for (int c = 0; c < 490; ++c) soa->Tick();
  EXPECT_EQ(summarize(*full), summarize(*soa));
}

// --- route LUT -------------------------------------------------------------

// The per-router LUT built at construction must agree with the analytic
// routing function for every (destination, class) on every router.
TEST(SchedulingRouteLutTest, LutMatchesComputeOutputPort) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  for (RoutingAlgorithm routing : routings) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.routing = routing;
    Network net(cfg);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      const Router& router = net.router(n);
      for (int y = 0; y < cfg.height; ++y) {
        for (int x = 0; x < cfg.width; ++x) {
          const Coord dst{x, y};
          for (TrafficClass cls :
               {TrafficClass::kRequest, TrafficClass::kReply}) {
            EXPECT_EQ(router.RouteFor(cls, net.NodeAt(dst)),
                      ComputeOutputPort(routing, cls, router.coord(), dst))
                << RoutingName(routing) << " node=" << n << " dst=(" << x
                << ',' << y << ')';
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gnoc
