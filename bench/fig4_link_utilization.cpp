// Reproduces Figs. 4 & 6: per-link traffic coefficient maps (Eq. 2).
//
// Fig. 4 shows, for a 4x4 mesh with bottom MCs and XY routing, how many
// (source, destination) pairs cross each link: request and reply traffic use
// disjoint links. Fig. 6 repeats the analysis for XY-YX routing, where the
// classes mix on horizontal links only. This harness prints the analytic
// maps and then validates them against link flit counters measured on the
// cycle-accurate simulator.
#include <iostream>

#include "bench_util.hpp"
#include "noc/deadlock.hpp"
#include "sim/gpu_system.hpp"

namespace {

using namespace gnoc;

void PrintMaps(const TilePlan& plan, RoutingAlgorithm routing) {
  std::cout << "\n--- " << RoutingName(routing)
            << " routing, bottom MCs, idealized cores (paper Eq. 2) ---\n";
  const Topology mesh = Topology::Mesh(plan.width(), plan.height());
  const LinkUsage coef =
      AnalyzeLinkUsage(mesh, plan, routing, /*idealized=*/true);
  for (auto cls : {TrafficClass::kRequest, TrafficClass::kReply}) {
    std::cout << ClassName(cls) << " south-link coefficients:\n"
              << coef.RenderGrid(Port::kSouth, cls)
              << ClassName(cls) << " north-link coefficients:\n"
              << coef.RenderGrid(Port::kNorth, cls)
              << ClassName(cls) << " east-link coefficients:\n"
              << coef.RenderGrid(Port::kEast, cls) << '\n';
  }
  // Mixed links count the simulated traffic: cores on core tiles only.
  const LinkUsage usage = AnalyzeLinkUsage(mesh, plan, routing);
  std::cout << "mixed (request+reply) directed links: "
            << usage.NumMixedLinks();
  if (usage.NumMixedLinks() > 0) {
    std::cout << (usage.MixedLinksAllHorizontal() ? " (all horizontal)"
                                                  : " (incl. vertical!)");
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig4_link_utilization",
      "Figs. 4 & 6: analytic link-utilization coefficient maps",
      // The validation compares against the 8x8 analytic map, so the grid
      // stays Table 2's, and it runs one KMN cell, not a sweep.
      kRunKeys, {"scale", "csv", "json"});
  std::cout << SectionHeader(
      "Figs. 4 & 6 — Link utilization coefficient maps (Eq. 2, N=4)");

  const TilePlan plan(4, 4, 4, McPlacement::kBottom);
  PrintMaps(plan, RoutingAlgorithm::kXY);    // Fig. 4
  PrintMaps(plan, RoutingAlgorithm::kXYYX);  // Fig. 6

  // Validation: measured link flit counts on the full simulator must be
  // proportional to the analytic coefficients (requests, XY, bottom MCs).
  std::cout << "\n--- validation against the cycle-accurate simulator "
               "(8x8, KMN workload) ---\n";
  GpuSystem gpu(WithGridOverrides(GpuConfig::Baseline(), opts),
                FindWorkload("KMN"));
  gpu.Run(opts.sweep.lengths.warmup, opts.sweep.lengths.measure);

  const TilePlan plan8(8, 8, 8, McPlacement::kBottom);
  const LinkUsage coef =
      AnalyzeLinkUsage(Topology::Mesh(8, 8), plan8, RoutingAlgorithm::kXY);
  // Compare row sums of south-link coefficients vs measured flits: both
  // must grow towards the MCs (the paper's congestion argument).
  TextTable table({"mesh row", "analytic south coef (row sum)",
                   "measured south flits (row sum)"});
  for (int y = 0; y < 7; ++y) {
    long long analytic = 0;
    std::uint64_t measured = 0;
    for (int x = 0; x < 8; ++x) {
      const NodeId node = plan8.NodeAt({x, y});
      analytic += coef.Count(node, Port::kSouth, TrafficClass::kRequest);
      measured += gpu.network().LinkFlits(node, Port::kSouth,
                                          TrafficClass::kRequest);
    }
    table.AddRow({std::to_string(y), std::to_string(analytic),
                  std::to_string(measured)});
  }
  Emit(table, opts.csv);

  BenchReport report("fig4_link_utilization", opts);
  report.Table("south_link_validation", table);

  // telemetry_out=prefix: export the validation run's time-resolved link
  // map (windowed CSV + Chrome trace; load the trace in Perfetto to watch
  // the south-link gradient build up towards the MC rows).
  WriteTelemetryFiles(gpu.fabric().CollectRunReport().telemetry,
                      opts.telemetry_path);
  std::cout << "\nPaper reports: request and reply traffic never mix on any\n"
               "link under XY/bottom (enabling VC monopolizing); under XY-YX\n"
               "they mix on horizontal links only (partial monopolizing).\n";
  return 0;
}
