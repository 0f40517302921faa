// Tests of the runtime invariant auditor: clean bills of health across the
// design space, planted faults tripping each invariant class, and the
// shared dynamic-boundary seed (NIC and router must agree).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "noc/vc_policy.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

NetworkConfig AuditedConfig() {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  cfg.audit = true;
  cfg.audit_interval = 1;  // sweep every cycle: catch faults promptly
  return cfg;
}

std::uint64_t Count(const AuditReport& r, AuditInvariant inv) {
  return r.by_invariant[static_cast<std::size_t>(inv)];
}

// --- clean runs ------------------------------------------------------------

TEST(AuditTest, OpenLoopTrafficRunsClean) {
  Network net(AuditedConfig());
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = 0.15;
  tcfg.packet_size = 5;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 2000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(10000));
  const AuditReport r = net.AuditResults();
  EXPECT_TRUE(r.enabled);
  EXPECT_TRUE(r.clean())
      << (r.samples.empty() ? std::string() : r.samples[0].detail);
  EXPECT_GT(r.checks, 0u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.flits_injected, 0u);
  EXPECT_EQ(r.flits_injected, r.flits_ejected) << "drained => all ejected";
}

TEST(AuditTest, DisabledNetworkReportsDisabled) {
  NetworkConfig cfg = AuditedConfig();
  cfg.audit = false;
  Network net(cfg);
  EXPECT_FALSE(net.AuditEnabled());
  const AuditReport r = net.AuditResults();
  EXPECT_FALSE(r.enabled);
  EXPECT_EQ(r.checks, 0u);
}

// Every VC policy x routing x placement combination that the deadlock
// analysis admits must run audit-clean on the full GPU model.
TEST(AuditTest, GpuDesignSpaceRunsClean) {
  const VcPolicyKind policies[] = {
      VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
      VcPolicyKind::kPartialMonopolize, VcPolicyKind::kAsymmetric,
      VcPolicyKind::kDynamic};
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  int audited = 0;
  for (McPlacement placement : kAllPlacements) {
    for (RoutingAlgorithm routing : routings) {
      for (VcPolicyKind policy : policies) {
        GpuConfig cfg = GpuConfig::Baseline();
        cfg.placement = placement;
        cfg.routing = routing;
        cfg.vc_policy = policy;
        cfg.audit = true;
        cfg.audit_interval = 8;
        const std::string label = std::string(McPlacementName(placement)) +
                                  "/" + RoutingName(routing) + "/" +
                                  VcPolicyName(policy);
        try {
          GpuSystem gpu(cfg, FindWorkload("BFS"));
          const GpuRunStats stats = gpu.Run(/*warmup=*/100, /*measure=*/400);
          ASSERT_TRUE(stats.audit.enabled) << label;
          EXPECT_TRUE(stats.audit.clean())
              << label << ": " << stats.audit.violations << " violations, "
              << (stats.audit.samples.empty() ? std::string("?")
                                              : stats.audit.samples[0].detail);
          EXPECT_GT(stats.audit.checks, 0u) << label;
          ++audited;
        } catch (const std::invalid_argument&) {
          // Deadlock-unsafe combination: correctly refused up front.
        }
      }
    }
  }
  EXPECT_GE(audited, 12) << "design space unexpectedly small";
}

// --- planted faults --------------------------------------------------------

// Drives one multi-flit packet into the audited network and plants `fault`
// in the first live channel that can host it, then runs until `expected`
// trips or the dust settles. Stopping at the trip matters: a planted fault
// also breaks the protocol a component asserts on (Debug builds abort
// there), and the auditor records it at least one cycle before that
// assert, because a delivered flit becomes eligible only at now + 1.
AuditReport RunWithFault(AuditFault fault, AuditInvariant expected,
                         NetworkConfig cfg = AuditedConfig()) {
  Network net(cfg);
  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);

  Packet p;
  p.type = PacketType::kReadReply;
  p.src = 0;
  p.dst = 15;  // far corner: several hops => flits stay in flight a while
  p.num_flits = 5;
  EXPECT_TRUE(net.Inject(p));

  bool planted = false;
  for (int c = 0; c < 64 && !planted; ++c) {
    planted = net.InjectFault(fault);
    net.Tick();
  }
  EXPECT_TRUE(planted) << "no in-flight victim found for "
                       << AuditFaultName(fault);
  const auto tripped = [&] { return Count(net.AuditResults(), expected) > 0; };
  for (int c = 0; c < 64 && !tripped(); ++c) net.Tick();
  // May or may not succeed depending on the fault; quiescence is checked
  // only by a successful drain.
  if (!tripped()) net.Drain(2000);
  return net.AuditResults();
}

TEST(AuditFaultTest, DroppedCreditTripsCreditConservation) {
  const AuditReport r = RunWithFault(AuditFault::kDropCredit,
                                     AuditInvariant::kCreditConservation);
  EXPECT_GT(Count(r, AuditInvariant::kCreditConservation), 0u);
  EXPECT_FALSE(r.clean());
}

TEST(AuditFaultTest, DroppedFlitTripsFlitConservation) {
  const AuditReport r = RunWithFault(AuditFault::kDropFlit,
                                     AuditInvariant::kFlitConservation);
  EXPECT_GT(Count(r, AuditInvariant::kFlitConservation), 0u);
  EXPECT_FALSE(r.clean());
}

TEST(AuditFaultTest, DuplicatedFlitTripsWormholeIntegrity) {
  const AuditReport r = RunWithFault(AuditFault::kDuplicateFlit,
                                     AuditInvariant::kWormhole);
  EXPECT_GT(Count(r, AuditInvariant::kWormhole), 0u);
  EXPECT_FALSE(r.clean());
}

TEST(AuditFaultTest, CorruptedVcTripsWormholeIntegrity) {
  const AuditReport r = RunWithFault(AuditFault::kCorruptVc,
                                     AuditInvariant::kWormhole);
  EXPECT_GT(Count(r, AuditInvariant::kWormhole), 0u);
  EXPECT_FALSE(r.clean());
}

TEST(AuditFaultTest, DroppedCreditTripsQuiescence) {
  // All flits arrive but one credit never returns home: the end-of-run
  // sweep must notice the leaked buffer slot. Atomic VC reallocation is
  // off here — with it on, the sending VC (correctly) never recycles after
  // the leak, the NIC never reports idle and the drain itself fails, so
  // the quiescence sweep would not even run.
  NetworkConfig cfg = AuditedConfig();
  cfg.atomic_vc_realloc = false;
  const AuditReport r = RunWithFault(AuditFault::kDropCredit,
                                     AuditInvariant::kQuiescence, cfg);
  EXPECT_GT(Count(r, AuditInvariant::kQuiescence), 0u);
}

// The end-of-run sweep reports a packet record still live after a drain:
// a NIC that delivered a packet but never released its record leaks a
// table slot per packet. The auditor reads the network's packet table.
TEST(AuditFaultTest, LivePacketRecordTripsQuiescence) {
  PacketTable packets(4, 4);
  Auditor auditor(AuditedConfig(), packets);
  auditor.CheckQuiescence(10);
  EXPECT_TRUE(auditor.report().clean());

  Packet p;
  p.id = 42;
  p.src = 0;
  p.dst = 5;
  const PacketSlot slot = packets.Add(PacketRecord::Of(p, Coord{1, 1}));
  auditor.CheckQuiescence(11);
  const AuditReport& r = auditor.report();
  EXPECT_EQ(Count(r, AuditInvariant::kQuiescence), 1u);
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0].detail,
            "1 packet record(s) still live after drain, the first of packet "
            "42");

  packets.Release(slot);
  auditor.CheckQuiescence(12);
  EXPECT_EQ(Count(auditor.report(), AuditInvariant::kQuiescence), 1u)
      << "a released record is not reported";
}

TEST(AuditFaultTest, FaultNeedsALiveVictim) {
  Network net(AuditedConfig());
  // Idle network: nothing in any channel to corrupt.
  EXPECT_FALSE(net.InjectFault(AuditFault::kDropFlit));
  EXPECT_FALSE(net.InjectFault(AuditFault::kDropCredit));
}

// --- report plumbing -------------------------------------------------------

TEST(AuditReportTest, MergeAccumulates) {
  AuditReport a;
  a.enabled = true;
  a.checks = 3;
  a.violations = 1;
  a.by_invariant[0] = 1;
  a.samples.push_back({AuditInvariant::kCreditConservation, 7, "x"});
  AuditReport b;
  b.enabled = true;
  b.checks = 2;
  b.violations = 2;
  b.by_invariant[2] = 2;
  a.Merge(b);
  EXPECT_EQ(a.checks, 5u);
  EXPECT_EQ(a.violations, 3u);
  EXPECT_EQ(a.by_invariant[0], 1u);
  EXPECT_EQ(a.by_invariant[2], 2u);
  EXPECT_FALSE(a.clean());
}

TEST(AuditReportTest, InvariantNamesAreStable) {
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kCreditConservation),
               "credit-conservation");
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kFlitConservation),
               "flit-conservation");
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kWormhole), "wormhole");
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kQuiescence), "quiescence");
}

// --- shared dynamic-boundary seed (regression: NIC said max(1, n/2), the
// router said n/2 — disagreeing over who owns VC 0 on num_vcs=1 links) ----

TEST(AuditBoundaryTest, NicAndRouterSeedFromTheSameBoundary) {
  for (int num_vcs : {2, 3, 4, 6}) {
    NetworkConfig cfg = AuditedConfig();
    cfg.vc_policy = VcPolicyKind::kDynamic;
    cfg.num_vcs = num_vcs;
    Network net(cfg);
    const VcId expected = InitialBoundary(num_vcs);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      EXPECT_EQ(net.nic(n).DynamicBoundary(), expected) << "vcs=" << num_vcs;
      for (int p = 0; p < kNumPorts; ++p) {
        EXPECT_EQ(net.router(n).DynamicBoundary(static_cast<Port>(p)),
                  expected)
            << "vcs=" << num_vcs << " port=" << p;
      }
    }
  }
}

TEST(AuditBoundaryTest, DynamicPolicyRunsCleanFromTheSharedSeed) {
  NetworkConfig cfg = AuditedConfig();
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.num_vcs = 4;
  cfg.dynamic_epoch = 64;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = 0.1;
  tcfg.packet_size = 3;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1500; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(10000));
  const AuditReport r = net.AuditResults();
  EXPECT_TRUE(r.clean())
      << (r.samples.empty() ? std::string() : r.samples[0].detail);
}

}  // namespace
}  // namespace gnoc
