// Reproduces Fig. 3: packet type distribution for GPGPU benchmarks.
//
// The paper stacks, per benchmark, the share of READ-REQUEST, WRITE-REQUEST,
// READ-REPLY and WRITE-REPLY packets, observing ~63% read replies... of the
// reply network's packets and a read-dominated mix overall; RAY stands out
// with a write-dominated mix.
#include <iostream>

#include "bench_util.hpp"
#include "sim/gpu_system.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "fig3_packet_distribution",
      "Fig. 3: packet-type distribution of the baseline");
  std::cout << SectionHeader(
      "Fig. 3 — Packet type distribution (percent of all packets)");

  // A one-scheme sweep: the engine parallelizes the 25 baseline runs.
  const std::vector<SchemeSpec> schemes{
      {"Baseline", WithGridOverrides(GpuConfig::Baseline(), opts)}};
  const SweepResult result = RunBenchSweep(schemes, opts);

  TextTable table({"benchmark", "READ-REQ %", "WRITE-REQ %", "READ-REPLY %",
                   "WRITE-REPLY %"});
  double read_reply_share_sum = 0.0;
  for (const WorkloadProfile& workload : opts.workloads) {
    const GpuRunStats& stats = result.Get("Baseline", workload.name);
    double total = 0.0;
    for (const auto count : stats.packets_by_type) {
      total += static_cast<double>(count);
    }
    std::vector<double> shares;
    for (int t = 0; t < kNumPacketTypes; ++t) {
      shares.push_back(total > 0.0
                           ? 100.0 * static_cast<double>(
                                         stats.packets_by_type[
                                             static_cast<std::size_t>(t)]) /
                                 total
                           : 0.0);
    }
    read_reply_share_sum +=
        shares[static_cast<int>(PacketType::kReadReply)];
    table.AddRow(workload.name, shares, 1);
  }
  Emit(table, opts.csv);

  BenchReport report("fig3_packet_distribution", opts);
  report.Sweep("baseline", result);
  report.Table("packet_distribution", table);

  const double avg_read_reply =
      read_reply_share_sum / static_cast<double>(opts.workloads.size());
  report.Metric("avg_read_reply_share_pct", avg_read_reply);
  std::cout << "\nPaper reports: on average ~63% of reply-network packets are"
               " read replies (read-dominated mixes); RAY is write-heavy.\n"
            << "Measured: read replies are " << FormatDouble(avg_read_reply, 1)
            << "% of ALL packets (" << FormatDouble(2 * avg_read_reply, 1)
            << "% of reply packets, since requests and replies pair 1:1).\n";
  return 0;
}
