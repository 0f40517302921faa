// Reproduces Fig. 2: normalized traffic volumes between cores and MCs.
//
// The paper plots, per benchmark, the flit volume of the request network
// (core-to-MC) and the reply network (MC-to-core), normalized per benchmark
// so the request bar is 1. The headline observation: reply traffic is ~2x
// request traffic on average, with RAY the write-heavy exception (<1).
#include <iostream>

#include "bench_util.hpp"
#include "sim/gpu_system.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig2_traffic_volumes",
      "Fig. 2: normalized request/reply traffic volumes per benchmark");
  std::cout << SectionHeader(
      "Fig. 2 — Normalized traffic volumes between cores and MCs "
      "(baseline: bottom MCs, XY routing, 2 split VCs)");

  // A one-scheme sweep: the engine parallelizes the 25 baseline runs.
  const std::vector<SchemeSpec> schemes{
      {"Baseline", WithGridOverrides(GpuConfig::Baseline(), opts)}};
  const SweepResult result = RunBenchSweep(schemes, opts);

  TextTable table({"benchmark", "request (core-to-MC)", "reply (MC-to-core)",
                   "reply:request"});
  std::vector<double> ratios;
  for (const WorkloadProfile& workload : opts.workloads) {
    const GpuRunStats& stats = result.Get("Baseline", workload.name);
    const double req = static_cast<double>(stats.request_flits);
    const double rep = static_cast<double>(stats.reply_flits);
    const double ratio = req > 0.0 ? rep / req : 0.0;
    ratios.push_back(ratio);
    table.AddRow(workload.name, {1.0, ratio, ratio}, 2);
  }
  table.AddRow("GEOMEAN", {1.0, GeometricMean(ratios), GeometricMean(ratios)},
               2);
  Emit(table, opts.csv);

  BenchReport report("fig2_traffic_volumes", opts);
  report.Sweep("baseline", result);
  report.Table("traffic_volumes", table);
  report.Metric("geomean_reply_to_request", GeometricMean(ratios));

  std::cout << "\nPaper reports: reply volume ~2x request volume on average"
               " (R ~ 2 from Eq. 1); RAY is the write-heavy exception with"
               " more request than reply traffic.\n"
            << "Measured geomean reply:request = "
            << FormatDouble(GeometricMean(ratios), 2) << "\n";
  return 0;
}
