// Example: record the packet trace of a full-system run, then replay it
// against NoC variants without re-running the GPGPU cores — the standard
// trace-driven NoC evaluation workflow.
//
// Usage: trace_replay [workload=SRAD] [measure=6000] [trace_file=...]
//                     [trace_out=replay]
//
// trace_out=<prefix> replays the baseline variant with telemetry on and
// writes <prefix>.trace.json — a Chrome trace (chrome://tracing / Perfetto)
// of per-link utilization and latency over the replayed run.
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "noc/deadlock.hpp"
#include "noc/trace.hpp"
#include "sim/gpu_system.hpp"

namespace {

using namespace gnoc;

/// Replays `records` on a network configured with (routing, policy) and
/// returns cycles-to-completion and mean packet latency.
std::pair<Cycle, double> ReplayOn(const std::vector<TraceRecord>& records,
                                  RoutingAlgorithm routing,
                                  VcPolicyKind policy,
                                  const std::string& trace_out = "") {
  NetworkConfig cfg;
  cfg.routing = routing;
  cfg.vc_policy = policy;
  cfg.telemetry = !trace_out.empty();
  Network net(cfg);
  const TilePlan plan(8, 8, 8, McPlacement::kBottom);
  net.ConfigureLinkModes(AnalyzeLinkUsage(net.topology(), plan, routing));

  struct AcceptAll : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);

  TraceReplay replay(net, records);
  while (!(replay.Done() && net.FlitsInFlight() == 0)) {
    replay.Tick();
    net.Tick();
    if (net.Deadlocked()) break;
  }
  if (!trace_out.empty()) {
    const std::string path = trace_out + ".trace.json";
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    net.TelemetryResults().WriteChromeTrace(out);
    std::cout << "Chrome trace of the replay written to " << path
              << " (open in chrome://tracing or Perfetto).\n";
  }
  const NetworkSummary s = net.Summarize();
  RunningStats latency;
  latency.Merge(s.packet_latency[0]);
  latency.Merge(s.packet_latency[1]);
  return {net.now(), latency.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("trace_replay",
                "Record a full-system packet trace, then replay it against "
                "NoC variants without the cores");
  flags.AddString("workload", "SRAD", "the workload profile to record");
  flags.AddInt("measure", 6000, "recorded cycles",
               [](std::int64_t v) {
                 return v < 1 ? std::string("must be >= 1") : std::string();
               });
  flags.AddString("trace_file", "", "write the recorded trace to this file");
  flags.AddString("trace_out", "",
                  "replay the baseline with telemetry and write "
                  "<prefix>.trace.json (Chrome trace)");

  Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << "trace_replay: " << e.what() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  const std::string workload = args.GetString("workload", "SRAD");
  const Cycle measure = static_cast<Cycle>(args.GetInt("measure", 6000));

  // 1. Record.
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.record_trace = true;
  GpuSystem gpu(cfg, FindWorkload(workload));
  gpu.Run(/*warmup=*/0, measure);
  const auto& trace = *gpu.trace();
  std::cout << "Recorded " << trace.size() << " packets from " << workload
            << " over " << measure << " cycles.\n";

  const std::string trace_file = args.GetString("trace_file", "");
  if (!trace_file.empty()) {
    trace.WriteFile(trace_file);
    std::cout << "Trace written to " << trace_file << "\n";
  }

  // 2. Optional: one instrumented baseline replay, exported as a Chrome
  // trace of the run's per-link utilization timeline.
  const std::string trace_out = args.GetString("trace_out", "");
  if (!trace_out.empty()) {
    ReplayOn(trace.records(), RoutingAlgorithm::kXY, VcPolicyKind::kSplit,
             trace_out);
  }

  // 3. Replay against NoC variants.
  std::cout << "\nTrace-driven comparison (same packets, different NoCs):\n\n";
  TextTable table({"NoC variant", "cycles to drain", "mean packet latency"});
  struct Variant {
    const char* label;
    RoutingAlgorithm routing;
    VcPolicyKind policy;
  };
  const Variant variants[] = {
      {"XY + split (baseline)", RoutingAlgorithm::kXY, VcPolicyKind::kSplit},
      {"YX + split", RoutingAlgorithm::kYX, VcPolicyKind::kSplit},
      {"XY-YX + partial mono", RoutingAlgorithm::kXYYX,
       VcPolicyKind::kPartialMonopolize},
      {"YX + full mono", RoutingAlgorithm::kYX,
       VcPolicyKind::kFullMonopolize},
  };
  for (const Variant& v : variants) {
    const auto [cycles, latency] =
        ReplayOn(trace.records(), v.routing, v.policy);
    table.AddRow({v.label, std::to_string(cycles),
                  FormatDouble(latency, 1)});
  }
  std::cout << table.Render();
  std::cout << "\nNote: replay is open-loop (fixed packet stream), so it\n"
               "understates closed-loop gains — slow networks would have\n"
               "throttled the cores and changed the stream. Use GpuSystem\n"
               "for closed-loop comparisons.\n";
  return 0;
}
