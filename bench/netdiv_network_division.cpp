// Reproduces the Sec. 4.2 "Impact of Network Division" result: a single
// physical network whose VCs are split into two virtual networks performs
// within a fraction of a percent of two parallel physical networks (one per
// traffic class) at roughly half the router/wire cost.
//
// Paper: "two separate VCs under a single physical network degrades system
// performance less than 0.03% in geometric mean across 25 benchmarks."
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "netdiv_network_division",
      "Sec. 4.2: virtual vs physical network division");
  std::cout << SectionHeader(
      "Sec. 4.2 — Impact of network division (virtual vs physical)");

  GpuConfig virt =
      WithGridOverrides(GpuConfig::Baseline(), opts);  // 1 net, 2 VCs split

  GpuConfig phys = virt;  // 2 nets, 1 VC each (equal total buffering)
  phys.division = NetworkDivision::kPhysical;

  const std::vector<SchemeSpec> schemes{
      {"Two physical networks", phys},
      {"Single net, virtual division", virt}};
  const SweepResult result = RunBenchSweep(schemes, opts);

  PrintSpeedupFigure(result, "Two physical networks",
                     {"Single net, virtual division"}, opts.csv);

  const double geomean = result.GeomeanSpeedup("Single net, virtual division",
                                               "Two physical networks");
  BenchReport report("netdiv_network_division", opts);
  report.Sweep("network_division", result, "Two physical networks");
  report.Metric("geomean_virtual_vs_physical", geomean);
  std::cout << "\nPaper reports: virtual division within 0.03% of two"
               " physical networks (so the cheap design suffices).\n"
            << "Measured: virtual/physical geomean speedup = "
            << FormatDouble(geomean, 4) << " ("
            << FormatDouble((geomean - 1.0) * 100.0, 2) << "%)\n";
  return 0;
}
