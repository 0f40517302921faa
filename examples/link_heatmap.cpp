// Example: measured per-link utilization heatmaps — the empirical
// counterpart of the paper's Fig. 4/6 coefficient diagrams. Runs one
// workload with the telemetry sampler on and prints, for each directed link
// orientation, the fraction of cycles the link carried a flit.
//
// The heatmap is built from the telemetry time series (noc/telemetry.hpp),
// so it can render either the whole-run aggregate (default) or any single
// sampling window — watch the south-link gradient build up over time by
// stepping window= through the run.
//
// Usage: link_heatmap [workload=KMN] [routing=xy] [vc_policy=split]
//                     [placement=bottom] [measure=8000]
//                     [telemetry_interval=500] [window=-1]
//
//   window=-1  (default) aggregate over the full run, warm-up included
//   window=K   just sampling window K (listed as "windows: N x W cycles")
//
// Run with help= for the full generated flag list.
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "sim/gpu_system.hpp"

namespace {

using namespace gnoc;

/// Busy fraction of the link leaving `node` through `port`: whole-run when
/// `window` < 0, else just that sampling window.
double LinkBusy(const TelemetryReport& report, NodeId node, Port port,
                int window) {
  const TelemetryTrack* track = report.FindLink("link_busy", node, port);
  if (track == nullptr || report.sampled_until == 0) return 0.0;
  if (window < 0) {
    return track->series.Total() /
           static_cast<double>(report.sampled_until);
  }
  const auto w = static_cast<std::size_t>(window);
  if (w >= track->series.num_windows()) return 0.0;
  const Cycle start = track->series.WindowStart(w);
  if (start >= report.sampled_until) return 0.0;
  const Cycle end = start + track->series.window_width();
  const Cycle cycles =
      (report.sampled_until < end ? report.sampled_until : end) - start;
  return track->series.Sum(w) / static_cast<double>(cycles);
}

/// Renders one orientation's utilization as a grid of percentages, with MC
/// tiles marked.
std::string RenderHeat(const GpuSystem& gpu, const TelemetryReport& report,
                       Port port, int window) {
  const Network& net = gpu.network();
  std::ostringstream oss;
  for (int y = 0; y < net.height(); ++y) {
    for (int x = 0; x < net.width(); ++x) {
      const NodeId n = net.NodeAt({x, y});
      const double util = 100.0 * LinkBusy(report, n, port, window);
      oss << std::setw(5) << std::fixed << std::setprecision(0) << util
          << (gpu.plan().IsMc(n) ? "*" : " ");
    }
    oss << '\n';
  }
  return oss.str();
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("link_heatmap",
                "Measured per-link utilization heatmaps from the telemetry "
                "sampler (empirical Fig. 4/6)");
  flags.AddString("workload", "KMN", "the workload profile to run");
  flags.AddInt("measure", 8000, "measured cycles");
  flags.AddInt("window", -1,
               "telemetry window to render (-1 = whole-run aggregate)");
  RegisterGpuConfigFlags(flags);

  Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << "link_heatmap: " << e.what() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(args);
  cfg.telemetry = true;  // the heatmap is read from the telemetry windows
  if (cfg.telemetry_interval == 100 && !args.Contains("telemetry_interval")) {
    cfg.telemetry_interval = 500;  // coarser default suits a printed map
  }
  const WorkloadProfile& workload =
      FindWorkload(args.GetString("workload", "KMN"));
  const Cycle measure = static_cast<Cycle>(args.GetInt("measure", 8000));
  const int window = static_cast<int>(args.GetInt("window", -1));

  GpuSystem gpu(cfg, workload);
  gpu.Run(/*warmup=*/2000, measure);
  const TelemetryReport report = gpu.fabric().CollectRunReport().telemetry;

  std::size_t num_windows = 0;
  Cycle window_cycles = 0;
  for (const TelemetryTrack& t : report.tracks) {
    if (t.series.num_windows() > num_windows) {
      num_windows = t.series.num_windows();
      window_cycles = t.series.window_width();
    }
  }
  std::cout << "Link utilization (% of cycles busy), " << cfg.Describe()
            << ", workload " << workload.name << ".\n"
            << "Each cell is the link leaving that tile; '*' marks MC tiles."
            << "\nwindows: " << num_windows << " x " << window_cycles
            << " cycles (" << report.sampled_until << " cycles sampled)";
  if (window < 0) {
    std::cout << "; showing the whole-run aggregate (pick one with "
                 "window=K).\n\n";
  } else {
    std::cout << "; showing window " << window << " (cycles "
              << static_cast<Cycle>(window) * window_cycles << "..)."
              << "\n\n";
  }

  struct Dir {
    Port port;
    const char* label;
  };
  const Dir dirs[] = {{Port::kSouth, "southbound"},
                      {Port::kNorth, "northbound"},
                      {Port::kEast, "eastbound"},
                      {Port::kWest, "westbound"},
                      {Port::kLocal, "ejection (to tile)"}};
  for (const Dir& d : dirs) {
    std::cout << "--- " << d.label << " ---\n"
              << RenderHeat(gpu, report, d.port, window) << '\n';
  }
  std::cout << "Compare routing=xy vs routing=yx vs routing=xy-yx to see the\n"
               "paper's congestion argument: XY piles reply traffic onto the\n"
               "MC row; YX/XY-YX spread it across the columns. Step window=\n"
               "through early windows to watch the gradient build up.\n";
  return 0;
}
