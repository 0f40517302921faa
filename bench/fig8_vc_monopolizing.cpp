// Reproduces Fig. 8: speed-up with the VC monopolizing scheme (normalized to
// XY routing with VCs split between request and reply traffic).
//
// Paper geomeans: XY monopolized = 1.438, YX monopolized = 1.889,
// XY-YX partially monopolized = 1.854. Monopolizing is protocol-deadlock
// safe because bottom-placement XY/YX keeps the two classes on disjoint
// links (Fig. 4); XY-YX can only monopolize vertical links (Fig. 6).
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig8_vc_monopolizing",
      "Fig. 8: speed-up with VC monopolizing schemes");
  std::cout << SectionHeader(
      "Fig. 8 — Speed-up with VC monopolizing (normalized to XY + split VCs)");

  GpuConfig base = WithGridOverrides(GpuConfig::Baseline(), opts);  // XY, split

  // Full monopolizing relies on the mesh property that DOR keeps request and
  // reply traffic on disjoint links (Fig. 4). Wrap links break that, so on
  // other topologies the scheme degrades to link-aware partial monopolizing
  // (monopolize exactly the links the analysis proves single-class).
  const VcPolicyKind mono = base.topology == TopologyKind::kMesh
                                ? VcPolicyKind::kFullMonopolize
                                : VcPolicyKind::kPartialMonopolize;
  if (mono != VcPolicyKind::kFullMonopolize) {
    std::cout << "note: " << TopologyName(base.topology)
              << " mixes the classes on some links; monopolized schemes use"
                 " link-aware partial monopolizing\n";
  }

  GpuConfig xy_mono = base;
  xy_mono.vc_policy = mono;

  GpuConfig yx_mono = base;
  yx_mono.routing = RoutingAlgorithm::kYX;
  yx_mono.vc_policy = mono;

  GpuConfig xyyx_pm = base;
  xyyx_pm.routing = RoutingAlgorithm::kXYYX;
  xyyx_pm.vc_policy = VcPolicyKind::kPartialMonopolize;

  const std::vector<SchemeSpec> schemes{{"XY (Baseline)", base},
                                        {"XY (Monopolized)", xy_mono},
                                        {"YX (Monopolized)", yx_mono},
                                        {"XY-YX (Partially Mono)", xyyx_pm}};
  const SweepResult result = RunBenchSweep(schemes, opts);

  BenchReport report("fig8_vc_monopolizing", opts);
  report.Sweep("vc_monopolizing", result, "XY (Baseline)");
  report.Metric("geomean_xy_mono",
                result.GeomeanSpeedup("XY (Monopolized)", "XY (Baseline)"));
  report.Metric("geomean_yx_mono",
                result.GeomeanSpeedup("YX (Monopolized)", "XY (Baseline)"));
  report.Metric("geomean_xyyx_pm", result.GeomeanSpeedup(
                                       "XY-YX (Partially Mono)",
                                       "XY (Baseline)"));

  PrintSpeedupFigure(
      result, "XY (Baseline)",
      {"XY (Monopolized)", "YX (Monopolized)", "XY-YX (Partially Mono)"},
      opts.csv);

  std::cout << "\nPaper reports geomeans: XY mono = 1.438, YX mono = 1.889,"
               " XY-YX partial mono = 1.854 (fully-monopolized YX best).\n"
            << "Measured geomeans: XY mono = "
            << FormatDouble(
                   result.GeomeanSpeedup("XY (Monopolized)", "XY (Baseline)"),
                   3)
            << ", YX mono = "
            << FormatDouble(
                   result.GeomeanSpeedup("YX (Monopolized)", "XY (Baseline)"),
                   3)
            << ", XY-YX PM = "
            << FormatDouble(result.GeomeanSpeedup("XY-YX (Partially Mono)",
                                                  "XY (Baseline)"),
                            3)
            << "\n";
  return 0;
}
