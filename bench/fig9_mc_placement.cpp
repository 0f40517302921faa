// Reproduces Fig. 9: speed-up with different MC placements combined with
// routing algorithms and VC monopolizing, normalized to bottom MCs + XY.
//
// The figure pairs each placement with plain XY and with its best
// routing+monopolizing combination:
//   Edge (XY)        Diamond (XY)      Top-Bottom (XY)     Bottom (XY)=1
//   Edge (XY-YX PM)  Diamond (XY PM)   Top-Bottom (XY-YX PM) Bottom (YX FM)
// Paper geomeans for the second row: 1.65, 1.76, 1.87, 1.89 — the simple
// bottom placement with fully monopolized YX wins, beating the diamond
// placement (best prior work) by 25% despite its larger hop count.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig9_mc_placement",
      "Fig. 9: MC placement x routing speed-ups");
  std::cout << SectionHeader(
      "Fig. 9 — Speed-up with MC placements x routing (normalized to "
      "bottom + XY)");

  auto scheme = [&opts](McPlacement placement, RoutingAlgorithm routing,
                        VcPolicyKind policy) {
    GpuConfig cfg = WithGridOverrides(GpuConfig::Baseline(), opts);
    cfg.placement = placement;
    cfg.routing = routing;
    // Off-mesh, wrap links mix the classes, so full monopolizing degrades to
    // the link-aware partial scheme (see fig8 for the reasoning).
    if (policy == VcPolicyKind::kFullMonopolize &&
        cfg.topology != TopologyKind::kMesh) {
      policy = VcPolicyKind::kPartialMonopolize;
    }
    cfg.vc_policy = policy;
    return cfg;
  };

  const std::vector<SchemeSpec> schemes{
      {"Bottom (XY)", scheme(McPlacement::kBottom, RoutingAlgorithm::kXY,
                             VcPolicyKind::kSplit)},
      {"Edge (XY)", scheme(McPlacement::kEdge, RoutingAlgorithm::kXY,
                           VcPolicyKind::kSplit)},
      {"Diamond (XY)", scheme(McPlacement::kDiamond, RoutingAlgorithm::kXY,
                              VcPolicyKind::kSplit)},
      {"Top-Bottom (XY)", scheme(McPlacement::kTopBottom,
                                 RoutingAlgorithm::kXY, VcPolicyKind::kSplit)},
      // Fig. 9 methodology: "we pick the routing algorithm showing the
      // highest performance improvement for each MC placement scheme". The
      // winners below are this simulator's empirical best (probed over the
      // memory-bound workloads); the paper's own winners were edge:XY-YX,
      // diamond:XY, top-bottom:XY-YX. Distributed placements mix the
      // classes on some links, so they use link-aware partial monopolizing
      // (PM); bottom + YX keeps the classes fully disjoint and can
      // monopolize everything (FM).
      {"Edge (XY PM)", scheme(McPlacement::kEdge, RoutingAlgorithm::kXY,
                              VcPolicyKind::kPartialMonopolize)},
      {"Diamond (YX PM)", scheme(McPlacement::kDiamond, RoutingAlgorithm::kYX,
                                 VcPolicyKind::kPartialMonopolize)},
      {"Top-Bottom (YX PM)",
       scheme(McPlacement::kTopBottom, RoutingAlgorithm::kYX,
              VcPolicyKind::kPartialMonopolize)},
      {"Bottom (YX FM)", scheme(McPlacement::kBottom, RoutingAlgorithm::kYX,
                                VcPolicyKind::kFullMonopolize)},
  };

  const SweepResult result = RunBenchSweep(schemes, opts);

  BenchReport report("fig9_mc_placement", opts);
  report.Sweep("mc_placement", result, "Bottom (XY)");
  report.Metric("geomean_bottom_yx_fm",
                result.GeomeanSpeedup("Bottom (YX FM)", "Bottom (XY)"));
  report.Metric("geomean_diamond_yx_pm",
                result.GeomeanSpeedup("Diamond (YX PM)", "Bottom (XY)"));

  std::vector<std::string> columns;
  for (const auto& s : schemes) {
    if (s.label != "Bottom (XY)") columns.push_back(s.label);
  }
  PrintSpeedupFigure(result, "Bottom (XY)", columns, opts.csv);

  std::cout
      << "\nPaper reports (geomean vs bottom+XY): edge 1.37 / diamond 1.64 /"
         " top-bottom 1.40 with XY; with monopolizing+best routing:"
         " edge 1.65, diamond 1.76, top-bottom 1.87, bottom (YX FM) 1.89 —"
         " the bottom placement with fully monopolized VCs wins overall,"
         " outperforming the diamond placement by ~25%.\n"
      << "Measured: Bottom (YX FM) geomean = "
      << FormatDouble(result.GeomeanSpeedup("Bottom (YX FM)", "Bottom (XY)"), 3)
      << ", Diamond (YX PM) geomean = "
      << FormatDouble(result.GeomeanSpeedup("Diamond (YX PM)", "Bottom (XY)"),
                      3)
      << "\n";
  return 0;
}
