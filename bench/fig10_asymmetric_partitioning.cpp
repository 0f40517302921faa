// Reproduces Fig. 10: speed-up with asymmetric VC partitioning.
//
// Configuration: 4 VCs per port, XY-YX routing, bottom MCs (classes mix on
// horizontal links, so monopolizing is limited and partitioning matters).
// Baseline splits VCs 2:2 between request and reply; the proposed scheme
// assigns 1:3 in favour of the heavier reply traffic.
// Paper: +3.9% geomean for XY-YX, effective across all MC placements.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig10_asymmetric_partitioning",
      "Fig. 10: asymmetric request:reply VC partitioning");

  GpuConfig base = WithGridOverrides(GpuConfig::Baseline(), opts);
  base.routing = RoutingAlgorithm::kXYYX;
  if (!opts.raw.Contains("num_vcs")) base.num_vcs = 4;
  base.vc_policy = VcPolicyKind::kSplit;  // 2:2

  GpuConfig asym = base;
  asym.vc_policy = VcPolicyKind::kAsymmetric;  // 1:3

  const std::vector<SchemeSpec> schemes{{"Baseline (2:2)", base},
                                        {"VC Partitioned (1:3)", asym}};

  // The paper notes the scheme is effective across MC placements; verify on
  // the diamond placement as well.
  GpuConfig d_base = WithGridOverrides(GpuConfig::Baseline(), opts);
  d_base.placement = McPlacement::kDiamond;
  if (!opts.raw.Contains("num_vcs")) d_base.num_vcs = 4;
  GpuConfig d_asym = d_base;
  d_asym.vc_policy = VcPolicyKind::kAsymmetric;
  const std::vector<SchemeSpec> d_schemes{{"Diamond (2:2)", d_base},
                                          {"Diamond (1:3)", d_asym}};
  // Both studies are checked before the first runs.
  CheckBenchSchemes(schemes, opts);
  CheckBenchSchemes(d_schemes, opts);

  std::cout << SectionHeader(
      "Fig. 10 — Asymmetric VC partitioning (4 VCs, request:reply = 1:3 vs "
      "2:2, XY-YX routing)");
  const SweepResult result = RunBenchSweep(schemes, opts);

  BenchReport report("fig10_asymmetric_partitioning", opts);
  report.Sweep("xyyx_partitioning", result, "Baseline (2:2)");

  PrintSpeedupFigure(result, "Baseline (2:2)", {"VC Partitioned (1:3)"},
                     opts.csv);

  std::cout << "\nPaper reports: +3.9% geomean for XY-YX routing (assigning"
               " more VCs to the heavier reply class).\n"
            << "Measured geomean: "
            << FormatDouble(result.GeomeanSpeedup("VC Partitioned (1:3)",
                                                  "Baseline (2:2)"),
                            3)
            << "\n";

  std::cout << SectionHeader("Asymmetric partitioning on the diamond "
                             "placement (XY routing)");
  const SweepResult d_result = RunBenchSweep(d_schemes, opts);
  report.Sweep("diamond_partitioning", d_result, "Diamond (2:2)");
  report.Metric("geomean_xyyx",
                result.GeomeanSpeedup("VC Partitioned (1:3)",
                                      "Baseline (2:2)"));
  report.Metric("geomean_diamond",
                d_result.GeomeanSpeedup("Diamond (1:3)", "Diamond (2:2)"));
  std::cout << "Measured geomean (diamond): "
            << FormatDouble(
                   d_result.GeomeanSpeedup("Diamond (1:3)", "Diamond (2:2)"), 3)
            << "\n";
  return 0;
}
