// QoS starvation study (DESIGN.md §15): a latency-critical class of short
// packets sharing every link with a saturating bulk class of long
// wormholes, the textbook guaranteed-service scenario.
//
// Open-loop on the NoC alone (no GPU model): the critical class injects
// 1-flit packets at a trickle; the bulk class offers 5-flit packets well
// past saturation. With QoS off the bulk wormholes crowd the shared
// switches and the critical p99 blows through its SLO target; with strict
// priority arbitration, one reserved escape VC per class and a token-bucket
// rate cap on bulk injection, the critical class holds its target while
// bulk degrades gracefully (visible as qos_throttle_cycles).
//
// The harness is also an acceptance gate: each variant runs on both
// scheduling backends (full, soa) plus three mid-measure snapshot
// save/resume legs whose pre-restore history deliberately diverges — soa
// into soa, full into soa and soa into full, since snapshots carry no
// scheduler state — and the measured statistics must be byte-identical
// across all five legs.
// Any divergence — or a variant landing on the wrong side of its SLO
// verdict — exits non-zero, so CI pins this binary directly
// (bench/check_regression.py).
#include <array>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/serialize.hpp"
#include "noc/traffic.hpp"

namespace {

using namespace gnoc;

constexpr double kP99Target = 200.0;  ///< cycles; pinned after measurement

struct VariantResult {
  NetworkSummary summary;
  QosReport qos;
  bool bit_identical = true;
  bool deadlocked = false;
};

struct Scenario {
  NetworkConfig net;
  OpenLoopConfig critical;
  OpenLoopConfig bulk;
  RunLengths lengths;
};

/// Everything observable about one run, in bytes: measured counters, the
/// QoS report, and the full telemetry CSV.
std::string ResultBytes(const Network& net) {
  Serializer s;
  net.Summarize().Save(s);
  net.QosResults().Save(s);
  std::ostringstream csv;
  csv.precision(17);
  net.TelemetryResults().WriteCsv(csv);
  s.Str(csv.str());
  return s.bytes();
}

/// Runs the scenario once under `mode`: warmup, stats reset, measure.
/// When `snap` is non-null, the post-warmup state at measure/2 is saved
/// into it.
std::string RunLeg(const Scenario& sc, SchedulingMode mode,
                   VariantResult* out, Serializer* snap) {
  NetworkConfig cfg = sc.net;
  cfg.scheduling = mode;
  Network net(cfg);
  OpenLoopTraffic critical(net, sc.critical);
  OpenLoopTraffic bulk(net, sc.bulk);
  const auto step = [&] {
    critical.Tick();
    bulk.Tick();
    net.Tick();
  };
  for (Cycle c = 0; c < sc.lengths.warmup; ++c) step();
  net.ResetStats();
  for (Cycle c = 0; c < sc.lengths.measure; ++c) {
    if (snap != nullptr && c == sc.lengths.measure / 2) net.Save(*snap);
    step();
  }
  if (out != nullptr) {
    out->summary = net.Summarize();
    out->qos = net.QosResults();
    out->deadlocked = net.Deadlocked();
  }
  return ResultBytes(net);
}

/// Resumes the scenario from `snap` in a freshly built network whose
/// pre-restore history diverged on purpose: the twin's traffic sources are
/// advanced to the snapshot cycle WITHOUT ticking the network (injections
/// pile up and drop), so Load must restore every piece of state, not just
/// patch a look-alike. The traffic RNG streams draw a state-independent
/// number of randoms per cycle, which is what makes the twin's generators
/// land on exactly the source run's stream position.
std::string ResumeLeg(const Scenario& sc, SchedulingMode mode,
                      const Serializer& snap) {
  NetworkConfig cfg = sc.net;
  cfg.scheduling = mode;
  Network net(cfg);
  OpenLoopTraffic critical(net, sc.critical);
  OpenLoopTraffic bulk(net, sc.bulk);
  const Cycle half = sc.lengths.measure / 2;
  for (Cycle c = 0; c < sc.lengths.warmup + half; ++c) {
    critical.Tick();
    bulk.Tick();
  }
  Deserializer d(snap.bytes());
  net.Load(d);
  for (Cycle c = half; c < sc.lengths.measure; ++c) {
    critical.Tick();
    bulk.Tick();
    net.Tick();
  }
  return ResultBytes(net);
}

/// Runs both scheduling backends plus the snapshot save/resume legs,
/// byte-comparing every run's results against the full-scheduling
/// reference.
VariantResult RunAllLegs(const Scenario& sc, const std::string& label) {
  VariantResult out;
  Serializer full_snap;
  Serializer soa_snap;
  const std::string reference =
      RunLeg(sc, SchedulingMode::kFull, &out, &full_snap);
  const auto expect_reference = [&](const std::string& leg,
                                    const std::string& got) {
    if (got == reference) return;
    std::cerr << label << ": " << leg << " diverged from full\n";
    out.bit_identical = false;
  };
  expect_reference("soa scheduling",
                   RunLeg(sc, SchedulingMode::kSoa, nullptr, &soa_snap));
  expect_reference("soa snapshot resumed under soa",
                   ResumeLeg(sc, SchedulingMode::kSoa, soa_snap));
  expect_reference("full snapshot resumed under soa",
                   ResumeLeg(sc, SchedulingMode::kSoa, full_snap));
  expect_reference("soa snapshot resumed under full",
                   ResumeLeg(sc, SchedulingMode::kFull, soa_snap));
  return out;
}

void AddRows(TextTable& table, const std::string& variant,
             const VariantResult& result) {
  for (int c = 0; c < kNumClasses; ++c) {
    const QosClassReport& cls = result.qos.classes[static_cast<std::size_t>(c)];
    table.AddRow({variant, cls.name, FormatDouble(cls.p99_latency, 1),
                  cls.p99_target > 0.0 ? FormatDouble(cls.p99_target, 0) : "-",
                  std::to_string(cls.slo_violation_windows) + "/" +
                      std::to_string(cls.slo_windows),
                  std::to_string(cls.packets_delivered),
                  std::to_string(cls.throttle_cycles)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "qos_starvation",
      "QoS starvation study: a latency-critical class vs saturating bulk"
      " wormholes, with full-vs-soa and snapshot-resume bit-identity checks",
      // Its own open-loop traffic, run in sequence and never checkpointed.
      kGridKeys, {"scale", "csv", "json"}, [](FlagSet& flags) {
        const auto rate = [](double v) {
          return v < 0.0 ? std::string("must be >= 0") : std::string();
        };
        flags.AddDouble("crit_rate", 0.05,
                        "critical-class offered load, flits/node/cycle", rate);
        flags.AddDouble("bulk_offered", 0.7,
                        "bulk-class offered load, flits/node/cycle", rate);
        flags.AddDouble("bulk_rate", 0.3,
                        "token-bucket rate cap on the bulk class, flits/cycle",
                        rate);
        flags.AddInt("bulk_burst", 10, "token-bucket burst, flits",
                     [](std::int64_t v) {
                       return v < 0 ? std::string("must be >= 0")
                                    : std::string();
                     });
      });
  std::cout << SectionHeader(
      "QoS starvation — latency-critical packets vs saturating bulk"
      " wormholes");

  Scenario sc;
  // Honor the grid keys (topology=, radix=, circulant_s1/s2=, num_vcs=)
  // through the GpuConfig machinery, then lift exactly those fields into
  // the network-only configuration this study drives directly.
  GpuConfig grid = GpuConfig::Baseline();
  grid.num_vcs = 4;
  grid = WithGridOverrides(grid, opts);
  sc.net.topology = grid.topology;
  sc.net.width = grid.width;
  sc.net.height = grid.height;
  sc.net.circulant_s1 = grid.circulant_s1;
  sc.net.circulant_s2 = grid.circulant_s2;
  sc.net.num_vcs = grid.num_vcs;
  sc.net.vc_depth = 4;
  sc.net.routing = RoutingAlgorithm::kXY;
  // Full monopolizing is what makes starvation possible at all: both
  // classes compete for every VC, so bulk wormholes can occupy all of them
  // and critical packets queue behind multi-flit packets at VC allocation.
  // (Open-loop sinks always accept, so the request-reply protocol cycle
  // that makes this policy dangerous in the GPU does not exist here.)
  sc.net.vc_policy = VcPolicyKind::kFullMonopolize;
  sc.net.telemetry = true;
  sc.net.telemetry_interval = 100;
  sc.lengths = opts.sweep.lengths;

  sc.critical.pattern = TrafficPattern::kUniformRandom;
  sc.critical.injection_rate = opts.raw.GetDouble("crit_rate", 0.05);
  sc.critical.packet_size = 1;
  sc.critical.cls = TrafficClass::kRequest;
  sc.critical.seed = 11;
  sc.bulk.pattern = TrafficPattern::kUniformRandom;
  sc.bulk.injection_rate = opts.raw.GetDouble("bulk_offered", 0.7);
  sc.bulk.packet_size = 5;
  sc.bulk.cls = TrafficClass::kReply;
  sc.bulk.seed = 22;

  // The control: identical traffic and allocators — only the SLO target is
  // declared, which is accounting-only. This is the starved baseline.
  Scenario off = sc;
  off.net.qos.classes[0].name = "critical";
  off.net.qos.classes[0].p99_target = kP99Target;
  off.net.qos.classes[1].name = "bulk";

  // The contract: strict priority for the critical class, one reserved
  // escape VC each, and a token-bucket cap on bulk injection.
  Scenario on = off;
  on.net.qos.arbitration = QosArbitration::kStrict;
  on.net.qos.classes[0].priority = 2;
  on.net.qos.classes[0].reserved_vcs = 1;
  on.net.qos.classes[1].priority = 1;
  on.net.qos.classes[1].reserved_vcs = 1;
  on.net.qos.classes[1].rate = opts.raw.GetDouble("bulk_rate", 0.3);
  on.net.qos.classes[1].burst =
      static_cast<int>(opts.raw.GetInt("bulk_burst", 10));

  std::cout << sc.net.width << "x" << sc.net.height << " "
            << TopologyName(sc.net.topology) << ", " << sc.net.num_vcs
            << " VCs, critical " << sc.critical.injection_rate
            << " + bulk " << sc.bulk.injection_rate
            << " flits/node/cycle, warmup " << sc.lengths.warmup
            << " + measure " << sc.lengths.measure << " cycles\n";

  const VariantResult qos_off = RunAllLegs(off, "qos-off");
  const VariantResult qos_on = RunAllLegs(on, "qos-on");

  TextTable table({"variant", "class", "p99", "target", "viol/windows",
                   "delivered", "throttle"});
  AddRows(table, "qos-off", qos_off);
  AddRows(table, "qos-on", qos_on);
  Emit(table, opts.csv);

  const QosClassReport& off_crit = qos_off.qos.classes[0];
  const QosClassReport& on_crit = qos_on.qos.classes[0];
  const QosClassReport& on_bulk = qos_on.qos.classes[1];

  BenchReport report("qos_starvation", opts);
  report.Table("per_class", table);
  report.Metric("qos_off_critical_p99", off_crit.p99_latency);
  report.Metric("qos_on_critical_p99", on_crit.p99_latency);
  report.Metric("qos_off_violation_windows",
                static_cast<double>(off_crit.slo_violation_windows));
  report.Metric("qos_on_violation_windows",
                static_cast<double>(on_crit.slo_violation_windows));
  report.Metric("qos_on_bulk_throttle_cycles",
                static_cast<double>(on_bulk.throttle_cycles));
  report.Metric("qos_off_bulk_delivered",
                static_cast<double>(qos_off.qos.classes[1].packets_delivered));
  report.Metric("qos_on_bulk_delivered",
                static_cast<double>(on_bulk.packets_delivered));

  bool ok = qos_off.bit_identical && qos_on.bit_identical;
  if (!ok) std::cerr << "FAIL: scheduling backends are not bit-identical\n";
  if (qos_off.deadlocked || qos_on.deadlocked) {
    std::cerr << "FAIL: a variant deadlocked\n";
    ok = false;
  }
  // The study's point, enforced: the contract-free control violates the
  // target; the QoS contract holds it (and visibly throttled bulk).
  if (!(off_crit.p99_latency > kP99Target)) {
    std::cerr << "FAIL: qos-off critical p99 " << off_crit.p99_latency
              << " does not violate the target " << kP99Target << "\n";
    ok = false;
  }
  if (!(on_crit.p99_latency <= kP99Target)) {
    std::cerr << "FAIL: qos-on critical p99 " << on_crit.p99_latency
              << " misses the target " << kP99Target << "\n";
    ok = false;
  }
  if (on_bulk.throttle_cycles == 0) {
    std::cerr << "FAIL: qos-on bulk class was never throttled\n";
    ok = false;
  }

  std::cout << "\ncritical p99: " << FormatDouble(off_crit.p99_latency, 1)
            << " (no QoS) vs " << FormatDouble(on_crit.p99_latency, 1)
            << " (QoS) against target " << FormatDouble(kP99Target, 0)
            << "; verdict: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
