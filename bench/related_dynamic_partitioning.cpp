// Related-work comparison (paper Sec. 5): Lee et al. [13] propose
// feedback-driven dynamic VC partitioning; the paper argues that for
// GPGPUs — one massively threaded application, stable request/reply skew —
// "static VC partitioning between request and reply is enough".
//
// This harness runs, with 4 VCs and XY-YX routing (the Fig. 10 setup):
//   * the 2:2 static split,
//   * the paper's static asymmetric 1:3 partition,
//   * our implementation of dynamic feedback partitioning (per-router,
//     per-port boundaries adapted every epoch).
// The expected outcome (and the paper's argument): dynamic partitioning
// converges to roughly the same division as the static asymmetric scheme,
// so it buys little despite its hardware cost.
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "related_dynamic_partitioning",
      "Related work: static vs dynamic (feedback) VC partitioning");
  std::cout << SectionHeader(
      "Related work — static vs dynamic (feedback) VC partitioning "
      "(4 VCs, XY-YX)");

  GpuConfig base = WithGridOverrides(GpuConfig::Baseline(), opts);
  base.routing = RoutingAlgorithm::kXYYX;
  if (!opts.raw.Contains("num_vcs")) base.num_vcs = 4;

  GpuConfig asym = base;
  asym.vc_policy = VcPolicyKind::kAsymmetric;

  GpuConfig dynamic = base;
  dynamic.vc_policy = VcPolicyKind::kDynamic;
  dynamic.dynamic_epoch = 512;

  const std::vector<SchemeSpec> schemes{{"Static 2:2", base},
                                        {"Static 1:3 (paper)", asym},
                                        {"Dynamic (Lee et al.)", dynamic}};
  const SweepResult result = RunBenchSweep(schemes, opts);

  PrintSpeedupFigure(result, "Static 2:2",
                     {"Static 1:3 (paper)", "Dynamic (Lee et al.)"}, opts.csv);

  const double asym_gain = result.GeomeanSpeedup("Static 1:3 (paper)",
                                                 "Static 2:2");
  const double dyn_gain =
      result.GeomeanSpeedup("Dynamic (Lee et al.)", "Static 2:2");
  BenchReport report("related_dynamic_partitioning", opts);
  report.Sweep("vc_partitioning", result, "Static 2:2");
  report.Metric("geomean_static_1_3", asym_gain);
  report.Metric("geomean_dynamic", dyn_gain);
  std::cout << "\nPaper's argument (Sec. 5): a static request/reply partition"
               " captures the benefit; a dynamic feedback mechanism adds"
               " hardware without meaningful gain in GPGPUs.\n"
            << "Measured geomeans vs 2:2: static 1:3 = "
            << FormatDouble(asym_gain, 3)
            << ", dynamic = " << FormatDouble(dyn_gain, 3) << "\n";
  return 0;
}
