// Reproduces Fig. 7: speed-up of YX and XY-YX routing over the XY baseline
// (bottom MCs, 2 VCs split between request and reply).
//
// Paper geomeans: YX = 1.393, XY-YX = 1.647.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig7_routing_speedup",
      "Fig. 7: speed-up of YX and XY-YX routing over XY");
  std::cout << SectionHeader(
      "Fig. 7 — Speed-up with routing algorithms (normalized to XY baseline)");

  GpuConfig xy = WithGridOverrides(GpuConfig::Baseline(), opts);
  GpuConfig yx = xy;
  yx.routing = RoutingAlgorithm::kYX;
  GpuConfig xyyx = xy;
  xyyx.routing = RoutingAlgorithm::kXYYX;

  const std::vector<SchemeSpec> schemes{
      {"XY (Baseline)", xy}, {"YX", yx}, {"XY-YX", xyyx}};
  const SweepResult result = RunBenchSweep(schemes, opts);

  PrintSpeedupFigure(result, "XY (Baseline)", {"YX", "XY-YX"}, opts.csv);

  BenchReport report("fig7_routing_speedup", opts);
  report.Sweep("routing_speedup", result, "XY (Baseline)");
  report.Metric("geomean_yx", result.GeomeanSpeedup("YX", "XY (Baseline)"));
  report.Metric("geomean_xyyx",
                result.GeomeanSpeedup("XY-YX", "XY (Baseline)"));

  std::cout << "\nPaper reports geomean speed-ups: YX = 1.393, XY-YX = 1.647"
               " (XY-YX best because it removes reply traffic from the MC"
               " row AND request traffic from the MC row).\n"
            << "Measured geomeans: YX = "
            << FormatDouble(result.GeomeanSpeedup("YX", "XY (Baseline)"), 3)
            << ", XY-YX = "
            << FormatDouble(result.GeomeanSpeedup("XY-YX", "XY (Baseline)"), 3)
            << "\n";
  return 0;
}
