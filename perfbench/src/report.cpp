// Metric computation, the self-time table and the expected-value diff.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "noc/network.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The q-quantile (0 < q <= 1) by nearest rank.
double Quantile(std::vector<std::uint32_t> values, double q) {
  if (values.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double MedianNs(const std::vector<std::int64_t>& ns) {
  std::vector<double> v(ns.begin(), ns.end());
  return Median(std::move(v));
}

/// Tick-loop time not covered by any top-level span.
std::int64_t Unattributed(const LayerAggregate& a) {
  const LayerTotals& t = a.totals;
  return a.loop_ns - t.total(Layer::kSm) - t.total(Layer::kMc) -
         t.total(Layer::kSource) - t.total(Layer::kFabric);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LayerAggregate::LayerAggregate()
    : latency(gnoc::kNumClasses,
              gnoc::Histogram(gnoc::kLatencyBucketWidth,
                              gnoc::kLatencyBuckets)) {}

void LayerAggregate::AddNetwork(const gnoc::Network& net, gnoc::Cycle window,
                                std::uint64_t steps) {
  ++networks;
  tick_steps += steps;
  router_cycles += static_cast<std::uint64_t>(net.num_routers()) * window;
  for (int r = 0; r < net.num_routers(); ++r) {
    const gnoc::RouterStats& st = net.router(r).stats();
    flits_forwarded += st.flits_forwarded;
    sa_stalls += st.sa_stalls;
    va_failures += st.va_failures;
    buffered_flit_cycles += st.buffered_flit_cycles;
  }
  nic_cycles += static_cast<std::uint64_t>(net.num_nodes()) * window;
  for (int n = 0; n < net.num_nodes(); ++n) {
    const gnoc::NicStats& st = net.nic(n).stats();
    for (std::size_t c = 0; c < latency.size(); ++c) {
      packets_ejected += st.packets_ejected[c];
      latency[c].Merge(st.latency_histogram[c]);
    }
    inject_stall_cycles += st.inject_stall_cycles;
    bulk_throttle_cycles += st.qos_throttle_cycles[static_cast<std::size_t>(
        gnoc::ClassIndex(gnoc::TrafficClass::kReply))];
  }
  critical_slo_violations +=
      net.QosResults()
          .classes[static_cast<std::size_t>(
              gnoc::ClassIndex(gnoc::TrafficClass::kRequest))]
          .slo_violation_windows;
}

WorkloadReport RunPasses(const std::string& workload,
                         const RunOptions& options, const PassFn& run_pass,
                         const ExpectedFn& expected_errors) {
  WorkloadReport report;
  Tracer tracer;
  LayerAggregate agg;
  std::vector<PassTiming> untraced;
  std::vector<std::string> reference;  // per operation, first pass
  std::vector<std::string> expected;   // per operation, first pass
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::size_t traced_passes = 0;
  std::vector<std::string> failures;
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    const PassOutcome out = run_pass(traced ? &tracer : nullptr, agg,
                                     traced && traced_passes == 0);
    if (pass == 0) {
      for (const Operation& op : out.ops) reference.push_back(op.stats_bytes);
      report.stats_json = out.stats_json;
      if (options.expected != nullptr && options.seed == kDefaultSeed) {
        expected = expected_errors(*options.expected, out.stats_json);
      }
      expected.resize(out.ops.size());
    }
    for (std::size_t i = 0; i < out.ops.size(); ++i) {
      std::string error = out.ops[i].error;
      if (i >= reference.size() || out.ops[i].stats_bytes != reference[i]) {
        error += traced ? "traced stats differ from the untraced run; "
                        : "stats differ from the first pass; ";
      }
      if (!expected[i].empty()) error += "expected values: " + expected[i];
      if (error.empty()) continue;
      ++report.failed;
      if (failures.size() < 10) {
        failures.push_back("FAILED pass " + std::to_string(pass) + " op " +
                           std::to_string(i) + ": " + error);
      }
    }
    report.attempted += out.ops.size();
    if (traced) {
      ++traced_passes;
      agg.traced_tick_ns.push_back(out.timing.tick_ns);
    } else {
      untraced.push_back(out.timing);
      agg.untraced_tick_ns.push_back(out.timing.tick_ns);
    }
    if (NowNs() >= deadline && (!options.trace || traced_passes > 0)) break;
  }

  std::ostringstream passes;
  passes << workload << ": " << untraced.size() << " untraced";
  if (options.trace) passes << " + " << traced_passes << " traced";
  passes << " passes of " << reference.size() << " operations, seed "
         << options.seed << "; sim_cycles_per_s by untraced pass:";
  for (const PassTiming& p : untraced) {
    passes << " " << static_cast<double>(p.cycles) * 1e9 /
                         static_cast<double>(p.tick_ns);
  }
  report.notes.push_back(passes.str());
  if (options.trace) {
    report.metrics = PerLayerMetrics(agg);
    report.notes.push_back(SelfTimeTable(workload, agg));
    if (!options.trace_path.empty()) {
      std::ofstream out(options.trace_path);
      tracer.WriteChromeTrace(out);
      out.flush();
      if (!out) {
        throw std::runtime_error("cannot write " + options.trace_path);
      }
      report.notes.push_back("chrome trace: " + options.trace_path + " (" +
                             std::to_string(tracer.spans().size()) +
                             " spans)");
    }
  } else {
    report.metrics = EndToEndMetrics(untraced);
  }
  for (std::string& f : failures) report.notes.push_back(std::move(f));
  return report;
}

std::vector<Metric> EndToEndMetrics(const std::vector<PassTiming>& passes) {
  std::vector<double> rate;
  std::vector<double> wall;
  std::vector<double> setup;
  for (const PassTiming& p : passes) {
    rate.push_back(Ratio(static_cast<double>(p.cycles),
                         static_cast<double>(p.tick_ns) / 1e9));
    wall.push_back(static_cast<double>(p.wall_ns) / 1e9);
    setup.push_back(static_cast<double>(p.setup_ns) / 1e9);
  }
  return {{"sim_cycles_per_s", Median(rate), "1/s"},
          {"wall_s", Median(wall), "s"},
          {"setup_s", Median(setup), "s"}};
}

std::vector<Metric> PerLayerMetrics(const LayerAggregate& a) {
  const LayerTotals& t = a.totals;
  const auto cycles = static_cast<double>(a.cycles);
  const auto fabric = static_cast<double>(t.self(Layer::kFabric));
  const auto inject_calls = static_cast<double>(t.count(Layer::kInject));
  const auto flits = static_cast<double>(a.flits_forwarded);
  const auto steps = static_cast<double>(a.tick_steps);
  const double untraced = MedianNs(a.untraced_tick_ns);
  const double traced = MedianNs(a.traced_tick_ns);
  const std::size_t req = static_cast<std::size_t>(
      gnoc::ClassIndex(gnoc::TrafficClass::kRequest));
  const std::size_t rep = static_cast<std::size_t>(
      gnoc::ClassIndex(gnoc::TrafficClass::kReply));
  return {
      {"sim.setup_ms", MedianNs(a.setup_ns) / 1e6, "ms"},
      {"gpgpu.sm.ns_per_cycle",
       Ratio(static_cast<double>(t.self(Layer::kSm)), cycles), "ns"},
      {"gpgpu.mc.ns_per_cycle",
       Ratio(static_cast<double>(t.self(Layer::kMc)), cycles), "ns"},
      {"gpgpu.sm.ipc", Ratio(static_cast<double>(a.instructions), cycles),
       "insn/cycle"},
      {"gpgpu.mc.l2_hit_rate",
       Ratio(static_cast<double>(a.l2_hits),
             static_cast<double>(a.l2_hits + a.l2_misses)),
       "ratio"},
      {"gpgpu.mc.dram_row_hit_rate",
       Ratio(static_cast<double>(a.dram_row_hits),
             static_cast<double>(a.dram_accesses)),
       "ratio"},
      {"gpgpu.mc.stall_frac",
       Ratio(static_cast<double>(a.mc_stall_cycles),
             static_cast<double>(a.mc_cycles)),
       "ratio"},
      {"noc.inject.ns_per_call",
       Ratio(static_cast<double>(t.total(Layer::kInject)), inject_calls), "ns"},
      {"noc.inject.calls_per_cycle", Ratio(inject_calls, cycles),
       "calls/cycle"},
      {"noc.inject.refused_frac",
       Ratio(static_cast<double>(t.inject_refused), inject_calls), "ratio"},
      {"noc.fabric.ns_per_cycle", Ratio(fabric, cycles), "ns"},
      {"noc.fabric.cycle_us_p50", Quantile(a.fabric_cycle_ns, 0.50) / 1e3,
       "us"},
      {"noc.fabric.cycle_us_p99", Quantile(a.fabric_cycle_ns, 0.99) / 1e3,
       "us"},
      {"noc.fabric.cycle_samples",
       static_cast<double>(a.fabric_cycle_ns.size()), "count"},
      {"noc.sched.steps_per_cycle", Ratio(steps, cycles), "steps/cycle"},
      {"noc.sched.ns_per_step", Ratio(fabric, steps), "ns"},
      {"noc.router.flits_per_cycle", Ratio(flits, cycles), "flits/cycle"},
      {"noc.router.ns_per_flit", Ratio(fabric, flits), "ns"},
      {"noc.router.sa_win_ratio",
       Ratio(flits, flits + static_cast<double>(a.sa_stalls)), "ratio"},
      {"noc.router.va_fail_per_cycle",
       Ratio(static_cast<double>(a.va_failures), cycles), "count/cycle"},
      {"noc.router.occupancy",
       Ratio(static_cast<double>(a.buffered_flit_cycles),
             static_cast<double>(a.router_cycles)),
       "flits"},
      {"noc.nic.packets_per_cycle",
       Ratio(static_cast<double>(a.packets_ejected), cycles), "packets/cycle"},
      {"noc.nic.latency_p50.request", a.latency[req].Percentile(50.0),
       "cycles"},
      {"noc.nic.latency_p99.request", a.latency[req].Percentile(99.0),
       "cycles"},
      {"noc.nic.latency_p50.reply", a.latency[rep].Percentile(50.0),
       "cycles"},
      {"noc.nic.latency_p99.reply", a.latency[rep].Percentile(99.0),
       "cycles"},
      {"noc.nic.inject_stall_frac",
       Ratio(static_cast<double>(a.inject_stall_cycles),
             static_cast<double>(a.nic_cycles)),
       "ratio"},
      {"noc.qos.bulk_throttle_frac",
       Ratio(static_cast<double>(a.bulk_throttle_cycles),
             static_cast<double>(a.nic_cycles)),
       "ratio"},
      {"noc.qos.critical_slo_violations",
       Ratio(static_cast<double>(a.critical_slo_violations),
             static_cast<double>(a.networks)),
       "windows/run"},
      {"trace.overhead_frac", untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
       "ratio"},
      {"trace.unattributed_frac",
       Ratio(static_cast<double>(Unattributed(a)),
             static_cast<double>(a.loop_ns)),
       "ratio"},
  };
}

std::string SelfTimeTable(const std::string& workload,
                          const LayerAggregate& a) {
  std::ostringstream out;
  char line[160];
  const auto cycles = static_cast<double>(a.cycles);
  const auto loop = static_cast<double>(a.loop_ns);
  out << "self time per layer, " << workload << ", " << a.cycles
      << " measured cycles (tick loop " << loop / 1e6 << " ms):\n";
  std::snprintf(line, sizeof(line), "  %-14s %12s %12s %12s %8s\n", "layer",
                "calls", "self_ms", "ns/cycle", "share");
  out << line;
  const auto row = [&](const char* name, double calls, double self_ns) {
    std::snprintf(line, sizeof(line), "  %-14s %12.0f %12.3f %12.1f %7.2f%%\n",
                  name, calls, self_ns / 1e6, Ratio(self_ns, cycles),
                  100.0 * Ratio(self_ns, loop));
    out << line;
  };
  for (Layer l : {Layer::kSm, Layer::kMc, Layer::kSource, Layer::kInject,
                  Layer::kFabric}) {
    if (a.totals.count(l) == 0) continue;
    row(LayerName(l), static_cast<double>(a.totals.count(l)),
        static_cast<double>(a.totals.self(l)));
  }
  row("(unattributed)", 0.0, static_cast<double>(Unattributed(a)));
  std::snprintf(line, sizeof(line),
                "  sim.setup median %.3f ms over %zu constructions\n",
                MedianNs(a.setup_ns) / 1e6, a.setup_ns.size());
  out << line;
  return out.str();
}

std::vector<std::string> DiffJson(const gnoc::JsonValue& expected,
                                  const gnoc::JsonValue& actual,
                                  const std::string& path) {
  using Kind = gnoc::JsonValue::Kind;
  if (expected.kind() != actual.kind()) return {path + ": kind differs"};
  std::vector<std::string> diffs;
  switch (expected.kind()) {
    case Kind::kObject:
      for (const auto& [key, value] : expected.AsObject()) {
        const gnoc::JsonValue* other = actual.Find(key);
        if (other == nullptr) {
          diffs.push_back(path + "." + key + ": missing");
          continue;
        }
        for (std::string& d : DiffJson(value, *other, path + "." + key)) {
          diffs.push_back(std::move(d));
        }
      }
      for (const auto& [key, value] : actual.AsObject()) {
        if (expected.Find(key) == nullptr) {
          diffs.push_back(path + "." + key + ": not expected");
        }
      }
      return diffs;
    case Kind::kArray: {
      const auto& e = expected.AsArray();
      const auto& a = actual.AsArray();
      if (e.size() != a.size()) return {path + ": length differs"};
      for (std::size_t i = 0; i < e.size(); ++i) {
        for (std::string& d :
             DiffJson(e[i], a[i], path + "[" + std::to_string(i) + "]")) {
          diffs.push_back(std::move(d));
        }
      }
      return diffs;
    }
    case Kind::kNumber: {
      const double e = expected.AsNumber();
      const double a = actual.AsNumber();
      const bool integral = std::floor(e) == e && std::floor(a) == a;
      const bool same =
          integral ? e == a
                   : std::fabs(e - a) <=
                         std::max(1e-6 * std::max(std::fabs(e), std::fabs(a)),
                                  1e-12);
      if (!same) {
        std::ostringstream msg;
        msg.precision(17);
        msg << path << ": expected " << e << ", got " << a;
        diffs.push_back(msg.str());
      }
      return diffs;
    }
    case Kind::kString:
      if (expected.AsString() != actual.AsString()) {
        diffs.push_back(path + ": expected \"" + expected.AsString() +
                        "\", got \"" + actual.AsString() + "\"");
      }
      return diffs;
    case Kind::kBool:
      if (expected.AsBool() != actual.AsBool()) {
        diffs.push_back(path + ": boolean differs");
      }
      return diffs;
    case Kind::kNull:
      return diffs;
  }
  return diffs;
}

}  // namespace perfbench
