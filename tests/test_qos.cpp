// QoS traffic-class tests (DESIGN.md §15): spec parsing and the override
// surface, token-bucket conformance at the NIC, hand-computed SLO
// violation-window accounting, the reservation-based protocol-deadlock
// escape, report serialization, fingerprint sensitivity, and soa-vs-full
// scheduling and snapshot-resume bit-identity under a non-trivial QoS
// configuration.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "common/serialize.hpp"
#include "noc/deadlock.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/qos.hpp"
#include "noc/telemetry.hpp"
#include "noc/traffic.hpp"
#include "noc/vc_policy.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

// --- spec parsing and overrides --------------------------------------------

TEST(QosArbitrationTest, NamesRoundTrip) {
  EXPECT_STREQ(QosArbitrationName(QosArbitration::kNone), "none");
  EXPECT_STREQ(QosArbitrationName(QosArbitration::kStrict), "strict");
  EXPECT_STREQ(QosArbitrationName(QosArbitration::kWrr), "wrr");
  EXPECT_EQ(ParseQosArbitration("none"), QosArbitration::kNone);
  EXPECT_EQ(ParseQosArbitration("off"), QosArbitration::kNone);
  EXPECT_EQ(ParseQosArbitration("STRICT"), QosArbitration::kStrict);
  EXPECT_EQ(ParseQosArbitration("priority"), QosArbitration::kStrict);
  EXPECT_EQ(ParseQosArbitration("wrr"), QosArbitration::kWrr);
  EXPECT_EQ(ParseQosArbitration("weighted"), QosArbitration::kWrr);
  EXPECT_THROW(ParseQosArbitration("fair"), std::invalid_argument);
}

TEST(TrafficClassSpecTest, ParsesFullSpec) {
  const TrafficClassSpec spec =
      ParseTrafficClassSpec("latency_critical,prio=2,rate=0.5,burst=8,vcs=1,p99=400");
  EXPECT_EQ(spec.name, "latency_critical");
  EXPECT_EQ(spec.priority, 2);
  EXPECT_DOUBLE_EQ(spec.rate, 0.5);
  EXPECT_EQ(spec.burst, 8);
  EXPECT_EQ(spec.reserved_vcs, 1);
  EXPECT_DOUBLE_EQ(spec.p99_target, 400.0);
}

TEST(TrafficClassSpecTest, UnlistedKnobsStayZero) {
  const TrafficClassSpec spec = ParseTrafficClassSpec("bulk,prio=1");
  EXPECT_EQ(spec.name, "bulk");
  EXPECT_EQ(spec.priority, 1);
  EXPECT_DOUBLE_EQ(spec.rate, 0.0);
  EXPECT_EQ(spec.burst, 0);
  EXPECT_EQ(spec.reserved_vcs, 0);
  EXPECT_DOUBLE_EQ(spec.p99_target, 0.0);
}

TEST(TrafficClassSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(ParseTrafficClassSpec(""), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("prio=2"), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("a,prio"), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("a,prio=x"), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("a,rate=-1"), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("a,burst=-1"), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("a,vcs=-1"), std::invalid_argument);
  EXPECT_THROW(ParseTrafficClassSpec("a,turbo=1"), std::invalid_argument);
}

TEST(QosConfigTest, DefaultIsDisabledNoOp) {
  const QosConfig qos;
  EXPECT_FALSE(qos.Enabled());
  EXPECT_FALSE(qos.RegulatesInjection());
  EXPECT_FALSE(qos.ReservesVcs());
  EXPECT_EQ(qos.classes[0].name, ClassName(TrafficClass::kRequest));
  EXPECT_EQ(qos.classes[1].name, ClassName(TrafficClass::kReply));
  // Renaming alone never flips Enabled(): names are identity, not policy.
  QosConfig renamed;
  renamed.classes[0].name = "latency_critical";
  EXPECT_FALSE(renamed.Enabled());
}

TEST(QosConfigTest, RepeatedOverridesConfigureClassesInOrder) {
  Config overrides;
  overrides.Set("qos", "strict");
  overrides.Append("qos_class", "critical,prio=2,rate=0.5,vcs=1,p99=300");
  overrides.Append("qos_class", "bulk,prio=1");
  QosConfig qos;
  ApplyQosOverrides(qos, overrides);
  EXPECT_EQ(qos.arbitration, QosArbitration::kStrict);
  EXPECT_EQ(qos.classes[0].name, "critical");
  EXPECT_EQ(qos.classes[0].priority, 2);
  EXPECT_EQ(qos.classes[0].reserved_vcs, 1);
  EXPECT_EQ(qos.classes[1].name, "bulk");
  EXPECT_EQ(qos.classes[1].priority, 1);
  EXPECT_TRUE(qos.Enabled());

  Config too_many;
  too_many.Append("qos_class", "a");
  too_many.Append("qos_class", "b");
  too_many.Append("qos_class", "c");
  QosConfig fresh;
  EXPECT_THROW(ApplyQosOverrides(fresh, too_many), std::invalid_argument);
}

// --- token-bucket conformance ----------------------------------------------

/// Saturates a 4x4 network with `cls` traffic and returns the per-node
/// average of flits the NICs admitted over `cycles`.
NetworkSummary RunRegulated(double rate, int burst, Cycle cycles,
                            double offered) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  cfg.vc_policy = VcPolicyKind::kSplit;
  cfg.qos.classes[1].rate = rate;  // class 1 = kReply, the open-loop class
  cfg.qos.classes[1].burst = burst;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = offered;
  tcfg.packet_size = 4;
  tcfg.cls = TrafficClass::kReply;
  OpenLoopTraffic traffic(net, tcfg);
  for (Cycle c = 0; c < cycles; ++c) {
    traffic.Tick();
    net.Tick();
  }
  return net.Summarize();
}

// A saturating source must be clamped to rate * T + burst (plus at most one
// packet of overdraft per NIC: admission charges whole packets and lets the
// bucket go negative), yet still achieve nearly the contracted rate.
TEST(TokenBucketTest, LongRunAdmittedRateMatchesContract) {
  constexpr Cycle kCycles = 4000;
  constexpr double kRate = 0.25;
  constexpr int kBurst = 8;
  constexpr int kNodes = 16;
  constexpr int kPacket = 4;
  const NetworkSummary s = RunRegulated(kRate, kBurst, kCycles, 0.9);
  const auto injected =
      static_cast<double>(s.flits_injected[ClassIndex(TrafficClass::kReply)]);
  const double cap = kNodes * (kRate * kCycles + kBurst + kPacket);
  EXPECT_LE(injected, cap);
  // The queue is backlogged at every NIC (offered 0.9 >> 0.25), so the
  // admitted rate must sit close under the contract, not just below it.
  EXPECT_GE(injected, 0.9 * kNodes * kRate * kCycles);
  // The regulated NICs spent cycles throttled and reported them.
  std::uint64_t throttled = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    throttled += s.qos_throttle_cycles[static_cast<std::size_t>(c)];
  }
  EXPECT_GT(throttled, 0u);
}

// With a near-zero refill the bucket's initial charge *is* the budget: each
// NIC may spend its burst (plus the one-packet overdraft) and then stalls.
TEST(TokenBucketTest, BurstBoundsTheInitialSpend) {
  constexpr Cycle kCycles = 2000;
  constexpr int kBurst = 12;
  constexpr int kPacket = 4;
  constexpr int kNodes = 16;
  const NetworkSummary s = RunRegulated(1e-3, kBurst, kCycles, 0.5);
  const auto injected =
      static_cast<double>(s.flits_injected[ClassIndex(TrafficClass::kReply)]);
  // Refill over the whole run is 2 flits/NIC; the spend is burst-dominated.
  EXPECT_LE(injected, kNodes * (kBurst + kPacket + 2.0 + kPacket));
  EXPECT_GE(injected, kNodes * kBurst * 0.75);
}

// An unregulated config (rate == 0) must stay bit-identical to the pre-QoS
// network: same counters as a config that never mentions QoS.
TEST(TokenBucketTest, ZeroRateIsUnregulated) {
  const NetworkSummary base = RunRegulated(0.0, 0, 1500, 0.4);
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 2;
  cfg.vc_depth = 4;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = 0.4;
  tcfg.packet_size = 4;
  tcfg.cls = TrafficClass::kReply;
  OpenLoopTraffic traffic(net, tcfg);
  for (Cycle c = 0; c < 1500; ++c) {
    traffic.Tick();
    net.Tick();
  }
  const NetworkSummary plain = net.Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(base.flits_injected[ci], plain.flits_injected[ci]);
    EXPECT_EQ(base.flits_ejected[ci], plain.flits_ejected[ci]);
    EXPECT_EQ(base.qos_throttle_cycles[ci], 0u);
  }
  EXPECT_EQ(base.flits_forwarded, plain.flits_forwarded);
}

// --- SLO violation-window accounting ---------------------------------------

// Three windows of width 100: [0,100) all below target, [100,200) all above,
// [200,300) above but clipped to 50 sampled cycles. Hand-computed: 3 judged
// windows, 2 violations, 150 cycles in violation.
TEST(SloSummaryTest, MatchesHandComputedWindows) {
  TelemetryLatency lat{TrafficClass::kRequest, "critical",
                       HistogramSeries(/*window_width=*/100, /*max_windows=*/64,
                                       /*bucket_width=*/1.0,
                                       /*num_buckets=*/600),
                       /*p99_target=*/100.0};
  for (int i = 0; i < 10; ++i) lat.windows.Add(/*now=*/5, 50.0);
  for (int i = 0; i < 10; ++i) lat.windows.Add(/*now=*/150, 450.0);
  for (int i = 0; i < 10; ++i) lat.windows.Add(/*now=*/210, 450.0);
  const SloSummary slo = ComputeSloSummary(lat, /*sampled_until=*/250);
  EXPECT_EQ(slo.windows, 3u);
  EXPECT_EQ(slo.violation_windows, 2u);
  EXPECT_EQ(slo.time_in_violation, 150u);
}

TEST(SloSummaryTest, NoTargetMeansNothingJudged) {
  TelemetryLatency lat{TrafficClass::kRequest, "any",
                       HistogramSeries(100, 64, 1.0, 600),
                       /*p99_target=*/0.0};
  lat.windows.Add(5, 1000.0);
  const SloSummary slo = ComputeSloSummary(lat, 100);
  EXPECT_EQ(slo.windows, 0u);
  EXPECT_EQ(slo.violation_windows, 0u);
  EXPECT_EQ(slo.time_in_violation, 0u);
}

TEST(SloSummaryTest, EmptyWindowsAreSkipped) {
  TelemetryLatency lat{TrafficClass::kRequest, "any",
                       HistogramSeries(100, 64, 1.0, 600),
                       /*p99_target=*/10.0};
  lat.windows.Add(5, 50.0);    // window 0: violating
  lat.windows.Add(250, 50.0);  // window 2: violating (window 1 is empty)
  const SloSummary slo = ComputeSloSummary(lat, 300);
  EXPECT_EQ(slo.windows, 2u);
  EXPECT_EQ(slo.violation_windows, 2u);
  EXPECT_EQ(slo.time_in_violation, 200u);
}

// --- VC reservation and protocol-deadlock safety ---------------------------

TEST(QosVcReservationTest, ReservedVcsCarveOutOfTheSharedPool) {
  const VcPolicy policy(VcPolicyKind::kSplit, 4, {1, 1});
  // Class 0 owns VC 0 plus its half of the 2-VC shared pool; class 1
  // mirrors at the top.
  const VcRange req = policy.AllowedVcs(TrafficClass::kRequest, Port::kNorth);
  const VcRange rep = policy.AllowedVcs(TrafficClass::kReply, Port::kNorth);
  EXPECT_EQ(req.begin, 0);
  EXPECT_EQ(rep.end, 4);
  EXPECT_EQ(req.size() + rep.size(), 4);
  EXPECT_FALSE(policy.ClassesShareVcs(Port::kNorth));
}

TEST(QosVcReservationTest, MonopolizingKeepsTheOtherClassReserve) {
  const VcPolicy policy(VcPolicyKind::kFullMonopolize, 4, {1, 1});
  const VcRange req = policy.AllowedVcs(TrafficClass::kRequest, Port::kNorth);
  const VcRange rep = policy.AllowedVcs(TrafficClass::kReply, Port::kNorth);
  // Each class may use everything except the other's private reserve.
  EXPECT_EQ(req.size(), 3);
  EXPECT_EQ(rep.size(), 3);
  EXPECT_TRUE(req.Contains(0));
  EXPECT_FALSE(req.Contains(3));
  EXPECT_TRUE(rep.Contains(3));
  EXPECT_FALSE(rep.Contains(0));
}

TEST(QosVcReservationTest, RejectsUnsatisfiableReservations) {
  EXPECT_THROW(VcPolicy(VcPolicyKind::kSplit, 2, {2, 1}),
               std::invalid_argument);
  EXPECT_THROW(VcPolicy(VcPolicyKind::kDynamic, 4, {1, 1}),
               std::invalid_argument);
}

// Bottom MCs + XY-YX mixes the classes on horizontal links, so full
// monopolizing is unsafe — unless *both* classes keep a reserved escape VC.
TEST(QosDeadlockTest, ReservationsRestoreFullMonopolizeSafety) {
  const TilePlan plan(8, 8, 8, McPlacement::kBottom);
  const Topology mesh = Topology::Mesh(8, 8);
  EXPECT_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                     VcPolicyKind::kFullMonopolize,
                                     /*allow_unsafe=*/false),
               std::invalid_argument);
  EXPECT_NO_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                        VcPolicyKind::kFullMonopolize,
                                        /*allow_unsafe=*/false, {1, 1}));
  // One-sided reservations protect only one class: still unsafe.
  EXPECT_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                     VcPolicyKind::kFullMonopolize,
                                     /*allow_unsafe=*/false, {1, 0}),
               std::invalid_argument);
}

// --- report plumbing --------------------------------------------------------

TEST(QosReportTest, SaveLoadRoundTrips) {
  QosReport report;
  report.enabled = true;
  report.arbitration = QosArbitration::kWrr;
  report.classes[0].name = "critical";
  report.classes[0].priority = 2;
  report.classes[0].rate = 0.5;
  report.classes[0].burst = 8;
  report.classes[0].reserved_vcs = 1;
  report.classes[0].p99_target = 400.0;
  report.classes[0].throttle_cycles = 123;
  report.classes[0].packets_delivered = 456;
  report.classes[0].p99_latency = 78.9;
  report.classes[0].slo_windows = 10;
  report.classes[0].slo_violation_windows = 3;
  report.classes[0].slo_time_in_violation = 300;
  report.classes[1].name = "bulk";

  Serializer s;
  report.Save(s);
  Deserializer d(s.bytes());
  QosReport loaded;
  loaded.Load(d);
  EXPECT_TRUE(loaded.enabled);
  EXPECT_EQ(loaded.arbitration, QosArbitration::kWrr);
  EXPECT_EQ(loaded.classes[0].name, "critical");
  EXPECT_EQ(loaded.classes[0].throttle_cycles, 123u);
  EXPECT_EQ(loaded.classes[0].packets_delivered, 456u);
  EXPECT_DOUBLE_EQ(loaded.classes[0].p99_latency, 78.9);
  EXPECT_EQ(loaded.classes[0].slo_violation_windows, 3u);
  EXPECT_EQ(loaded.classes[1].name, "bulk");
}

TEST(QosReportTest, MergeSumsCountersAndMaxesP99) {
  QosReport a;
  a.enabled = true;
  a.classes[0].name = "critical";
  a.classes[0].throttle_cycles = 10;
  a.classes[0].packets_delivered = 100;
  a.classes[0].p99_latency = 50.0;
  QosReport b = a;
  b.classes[0].throttle_cycles = 5;
  b.classes[0].p99_latency = 80.0;
  a.Merge(b);
  EXPECT_EQ(a.classes[0].throttle_cycles, 15u);
  EXPECT_EQ(a.classes[0].packets_delivered, 200u);
  EXPECT_DOUBLE_EQ(a.classes[0].p99_latency, 80.0);
}

TEST(QosFingerprintTest, QosKnobsChangeTheConfigFingerprint) {
  const WorkloadProfile workload = FindWorkload("BFS");
  GpuConfig base = GpuConfig::Baseline();
  const std::uint64_t plain = GpuConfigFingerprint(base, workload);
  GpuConfig qos = base;
  qos.qos.arbitration = QosArbitration::kStrict;
  EXPECT_NE(GpuConfigFingerprint(qos, workload), plain);
  GpuConfig renamed = base;
  renamed.qos.classes[0].name = "critical";
  // Names key the output JSON, so they fingerprint too.
  EXPECT_NE(GpuConfigFingerprint(renamed, workload), plain);
  GpuConfig rated = base;
  rated.qos.classes[1].rate = 0.5;
  EXPECT_NE(GpuConfigFingerprint(rated, workload), plain);
}

// --- soa-vs-full scheduling bit-identity under QoS -------------------------

constexpr Cycle kQosSnapAt = 750;

/// Serializes everything observable about a QoS-regulated run under `mode`.
/// With `save`, the state at cycle kQosSnapAt is saved into it. With
/// `load`, that snapshot is restored at kQosSnapAt instead; until then the
/// traffic sources advance without ticking the network, so Load must
/// restore every piece of state (their RNG draws do not depend on it).
std::string QosFingerprint(QosArbitration arb, SchedulingMode mode,
                           Serializer* save = nullptr,
                           const Serializer* load = nullptr) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  cfg.routing = RoutingAlgorithm::kXY;
  cfg.vc_policy = VcPolicyKind::kSplit;
  cfg.scheduling = mode;
  cfg.telemetry = true;
  cfg.telemetry_interval = 64;
  cfg.qos.arbitration = arb;
  cfg.qos.classes[0].name = "critical";
  cfg.qos.classes[0].priority = 2;
  cfg.qos.classes[0].reserved_vcs = 1;
  cfg.qos.classes[0].p99_target = 200.0;
  cfg.qos.classes[1].name = "bulk";
  cfg.qos.classes[1].priority = 1;
  cfg.qos.classes[1].rate = 0.3;
  cfg.qos.classes[1].burst = 6;
  cfg.qos.classes[1].reserved_vcs = 1;
  Network net(cfg);
  OpenLoopConfig req;
  req.pattern = TrafficPattern::kTranspose;
  req.injection_rate = 0.15;
  req.packet_size = 1;
  req.cls = TrafficClass::kRequest;
  req.seed = 11;
  OpenLoopConfig rep;
  rep.pattern = TrafficPattern::kUniformRandom;
  rep.injection_rate = 0.6;
  rep.packet_size = 5;
  rep.cls = TrafficClass::kReply;
  rep.seed = 22;
  OpenLoopTraffic requests(net, req);
  OpenLoopTraffic replies(net, rep);
  for (Cycle c = 0; c < 1500; ++c) {
    if (c == kQosSnapAt && save != nullptr) net.Save(*save);
    if (c == kQosSnapAt && load != nullptr) {
      Deserializer d(load->bytes());
      net.Load(d);
      d.Finish();
    }
    requests.Tick();
    replies.Tick();
    if (load == nullptr || c >= kQosSnapAt) net.Tick();
  }

  std::ostringstream out;
  out.precision(17);
  const NetworkSummary s = net.Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    out << "class " << c << ": flits " << s.flits_injected[ci] << '/'
        << s.flits_ejected[ci] << " throttle " << s.qos_throttle_cycles[ci]
        << " plat " << s.packet_latency[ci].count() << ' '
        << s.packet_latency[ci].mean() << ' ' << s.packet_latency[ci].max()
        << '\n';
  }
  out << "forwarded=" << s.flits_forwarded << " now=" << net.now()
      << " in_flight=" << net.FlitsInFlight() << '\n';
  const QosReport qr = net.QosResults();
  for (const QosClassReport& c : qr.classes) {
    out << c.name << ": delivered " << c.packets_delivered << " p99 "
        << c.p99_latency << " slo " << c.slo_windows << '/'
        << c.slo_violation_windows << '/' << c.slo_time_in_violation << '\n';
  }
  net.TelemetryResults().WriteCsv(out);
  return out.str();
}

// Strict and WRR arbitration must give bit-identical results four ways:
// under both schedulers, and resumed from the other scheduler's mid-run
// snapshot (token buckets and WRR credits ride in the snapshot; the soa
// bits are rebuilt on load). Both schedulers call the same Router
// arbitration stages, so this checks the schedulers, not the rules.
TEST(QosSchedulingBitIdentityTest, FourWayMatchesFullMode) {
  for (QosArbitration arb :
       {QosArbitration::kStrict, QosArbitration::kWrr}) {
    const std::string label =
        std::string(" (arb=") + QosArbitrationName(arb) + ")";
    Serializer full_snap;
    Serializer soa_snap;
    const std::string full =
        QosFingerprint(arb, SchedulingMode::kFull, &full_snap);
    EXPECT_EQ(full, QosFingerprint(arb, SchedulingMode::kSoa, &soa_snap))
        << "soa diverged" << label;
    EXPECT_EQ(full,
              QosFingerprint(arb, SchedulingMode::kSoa, nullptr, &full_snap))
        << "full snapshot resumed under soa diverged" << label;
    EXPECT_EQ(full,
              QosFingerprint(arb, SchedulingMode::kFull, nullptr, &soa_snap))
        << "soa snapshot resumed under full diverged" << label;
  }
}

// The unified run report of a QoS-enabled GPU run carries the class
// identities and agrees with the network's per-subsystem results.
TEST(RunReportTest, UnifiedCollectorAgreesWithNetworkResults) {
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_mcs = 4;
  cfg.num_vcs = 4;
  cfg.telemetry = true;
  cfg.telemetry_interval = 100;
  cfg.audit = true;
  cfg.qos.arbitration = QosArbitration::kStrict;
  cfg.qos.classes[0].name = "critical";
  cfg.qos.classes[0].priority = 2;
  cfg.qos.classes[0].p99_target = 5000.0;
  cfg.qos.classes[1].name = "bulk";
  GpuSystem gpu(cfg, FindWorkload("BFS"));
  const GpuRunStats stats = gpu.Run(200, 600);

  EXPECT_TRUE(stats.qos.enabled);
  EXPECT_EQ(stats.qos.arbitration, QosArbitration::kStrict);
  EXPECT_EQ(stats.qos.classes[0].name, "critical");
  EXPECT_EQ(stats.qos.classes[1].name, "bulk");
  EXPECT_GT(stats.qos.classes[0].packets_delivered, 0u);

  const RunReport report = gpu.fabric().CollectRunReport();
  const AuditReport audit = gpu.network().AuditResults();
  const TelemetryReport telemetry = gpu.network().TelemetryResults();
  EXPECT_EQ(report.audit.checks, audit.checks);
  EXPECT_EQ(report.audit.violations, audit.violations);
  EXPECT_EQ(report.telemetry.sampled_until, telemetry.sampled_until);
  EXPECT_EQ(report.qos.classes[0].name, "critical");
}

}  // namespace
}  // namespace gnoc
