// Ablation harness for the design decisions DESIGN.md calls out:
//
//  1. Atomic vs non-atomic VC reallocation — atomic reallocation makes
//     per-VC buffering the throughput limiter on saturated links, which is
//     what VC monopolizing exploits; non-atomic reallocation weakens the
//     effect.
//  2. VC buffer depth — deeper buffers substitute for extra VCs.
//  3. MC ejection-queue capacity — smaller queues couple the request and
//     reply networks more tightly.
//
// Each ablation reports IPC on one memory-bound workload for the baseline
// and the proposed (YX + fully monopolized) configuration. Sections 1-6
// vary the configuration and run as one sweep, so every variant runs in
// parallel (threads=N) and a variant several sections share (the baseline
// and its monopolized twin) runs once; section 7 varies the workload and
// is a second sweep.
#include <iostream>

#include "bench_util.hpp"

namespace {

using namespace gnoc;
using namespace gnoc::bench;

GpuConfig Monopolized(GpuConfig base) {
  base.routing = RoutingAlgorithm::kYX;
  base.vc_policy = VcPolicyKind::kFullMonopolize;
  return base;
}

constexpr int kDepths[] = {2, 4, 8, 16};
constexpr int kEjectCapacities[] = {8, 16, 32, 64};
constexpr ArbiterKind kArbiters[] = {ArbiterKind::kRoundRobin,
                                     ArbiterKind::kMatrix};
constexpr McScheduler kSchedulers[] = {McScheduler::kInOrder,
                                       McScheduler::kFrFcfs};
constexpr int kInjectBandwidths[] = {1, 2, 4};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "ablation_design_choices",
      "Ablation: one-at-a-time design choices on a single workload",
      // The fully monopolized variants need the Table 2 mesh, and workload=
      // names the one workload.
      kRunKeys, RunFlagsExcept({"workloads"}), [](FlagSet& flags) {
        flags.AddString("workload", "KMN", "the workload to ablate on",
                        FlagSet::ParsedBy(FindWorkload));
      });
  const WorkloadProfile& workload =
      FindWorkload(opts.raw.GetString("workload", "KMN"));
  std::cout << SectionHeader("Ablation — design choices (workload: " +
                             workload.name + ")");
  BenchReport report("ablation_design_choices", opts);
  const GpuConfig baseline = WithGridOverrides(GpuConfig::Baseline(), opts);

  const auto ipc = [&workload](const SweepResult& r, const std::string& s) {
    return r.Get(s, workload.name).ipc;
  };

  // Sections 1-6: every configuration variant, one sweep.
  std::vector<SchemeSpec> schemes;
  for (bool atomic : {true, false}) {
    GpuConfig base = baseline;
    base.atomic_vc_realloc = atomic;
    const std::string tag = atomic ? "atomic" : "non-atomic";
    schemes.push_back({"base " + tag, base});
    schemes.push_back({"mono " + tag, Monopolized(base)});
  }
  for (int depth : kDepths) {
    GpuConfig base = baseline;
    base.vc_depth = depth;
    schemes.push_back({"base d" + std::to_string(depth), base});
    schemes.push_back({"mono d" + std::to_string(depth), Monopolized(base)});
  }
  for (int capacity : kEjectCapacities) {
    GpuConfig base = baseline;
    base.eject_capacity = capacity;
    schemes.push_back({"base e" + std::to_string(capacity), base});
  }
  for (ArbiterKind kind : kArbiters) {
    GpuConfig base = baseline;
    base.arbiter = kind;
    const std::string tag = ArbiterKindName(kind);
    schemes.push_back({"base " + tag, base});
    schemes.push_back({"mono " + tag, Monopolized(base)});
  }
  for (McScheduler sched : kSchedulers) {
    GpuConfig base = baseline;
    base.mc.scheduler = sched;
    schemes.push_back({McSchedulerName(sched), base});
  }
  for (int bw : kInjectBandwidths) {
    GpuConfig base = baseline;
    base.mc_inject_flits_per_cycle = bw;
    schemes.push_back({"base b" + std::to_string(bw), base});
    schemes.push_back({"mono b" + std::to_string(bw), Monopolized(base)});
  }
  SweepOptions sweep_opts = opts.sweep;
  sweep_opts.progress = nullptr;  // sections are short; keep stderr clean
  const SweepResult r = RunSweep(schemes, {workload}, sweep_opts);

  // 1. Atomic VC reallocation.
  {
    TextTable table({"VC reallocation", "XY split IPC", "YX mono IPC",
                     "mono speedup"});
    for (bool atomic : {true, false}) {
      const std::string tag = atomic ? "atomic" : "non-atomic";
      const double base_ipc = ipc(r, "base " + tag);
      const double mono_ipc = ipc(r, "mono " + tag);
      table.AddRow({atomic ? "atomic (default)" : "non-atomic",
                    FormatDouble(base_ipc, 2), FormatDouble(mono_ipc, 2),
                    FormatDouble(base_ipc > 0 ? mono_ipc / base_ipc : 0, 3)});
    }
    Emit(table, opts.csv);
    report.Table("vc_reallocation", table);
    std::cout << "\n";
  }

  // 2. VC depth sweep under the baseline and the proposed scheme.
  {
    TextTable table({"vc_depth", "XY split IPC", "YX mono IPC"});
    for (int depth : kDepths) {
      const std::string d = std::to_string(depth);
      table.AddRow({d, FormatDouble(ipc(r, "base d" + d), 2),
                    FormatDouble(ipc(r, "mono d" + d), 2)});
    }
    Emit(table, opts.csv);
    report.Table("vc_depth", table);
    std::cout << "\n";
  }

  // 3. MC ejection capacity (protocol coupling strength).
  {
    TextTable table({"eject_capacity (flits)", "XY split IPC"});
    for (int capacity : kEjectCapacities) {
      const std::string e = std::to_string(capacity);
      table.AddRow({e, FormatDouble(ipc(r, "base e" + e), 2)});
    }
    Emit(table, opts.csv);
    report.Table("eject_capacity", table);
    std::cout << "\n";
  }

  // 4. Arbiter microarchitecture (round-robin vs matrix/LRS).
  {
    TextTable table({"arbiter", "XY split IPC", "YX mono IPC"});
    for (ArbiterKind kind : kArbiters) {
      const std::string tag = ArbiterKindName(kind);
      table.AddRow({tag, FormatDouble(ipc(r, "base " + tag), 2),
                    FormatDouble(ipc(r, "mono " + tag), 2)});
    }
    Emit(table, opts.csv);
    report.Table("arbiter", table);
    std::cout << "\n";
  }

  // 5. MC request scheduler: in-order vs FR-FCFS (Yuan et al. [15] argue a
  // simple in-order scheduler suffices when the NoC preserves row locality
  // — the reason the paper's footnote 1 avoids adaptive routing).
  {
    TextTable table({"MC scheduler", "XY split IPC", "DRAM row hit rate"});
    for (McScheduler sched : kSchedulers) {
      const GpuRunStats& stats = r.Get(McSchedulerName(sched), workload.name);
      table.AddRow({McSchedulerName(sched), FormatDouble(stats.ipc, 2),
                    FormatDouble(stats.dram_row_hit_rate, 3)});
    }
    Emit(table, opts.csv);
    report.Table("mc_scheduler", table);
    std::cout << "\n";
  }

  // 6. MC injection bandwidth (prior work [3, 11] provisions 2x at the few
  // MCs for burst read replies). Matters once VC monopolizing removes the
  // per-VC throughput cap.
  {
    TextTable table({"MC inject bw (flits/cy)", "XY split IPC",
                     "YX mono IPC"});
    for (int bw : kInjectBandwidths) {
      const std::string b = std::to_string(bw);
      table.AddRow({b, FormatDouble(ipc(r, "base b" + b), 2),
                    FormatDouble(ipc(r, "mono b" + b), 2)});
    }
    Emit(table, opts.csv);
    report.Table("mc_inject_bandwidth", table);
    std::cout << "\n";
  }

  // 7. Memory-coalescing degree: divergence multiplies transactions per
  // load, loading the NoC harder and widening the routing/monopolizing gap.
  // Here the *workloads* vary: one divergent profile per degree.
  {
    std::vector<WorkloadProfile> divergent_set;
    for (int degree : {1, 2, 4}) {
      WorkloadProfile divergent = workload;
      divergent.name = workload.name + " x" + std::to_string(degree);
      divergent.coalescing_degree = degree;
      divergent_set.push_back(divergent);
    }
    const std::vector<SchemeSpec> pair{
        {"base", baseline}, {"mono", Monopolized(baseline)}};
    const SweepResult by_degree = RunSweep(pair, divergent_set, sweep_opts);
    TextTable table(
        {"coalescing degree", "XY split IPC", "YX mono IPC", "mono speedup"});
    for (const WorkloadProfile& divergent : divergent_set) {
      const double base_ipc = by_degree.Get("base", divergent.name).ipc;
      const double mono_ipc = by_degree.Get("mono", divergent.name).ipc;
      table.AddRow({std::to_string(divergent.coalescing_degree),
                    FormatDouble(base_ipc, 2), FormatDouble(mono_ipc, 2),
                    FormatDouble(base_ipc > 0 ? mono_ipc / base_ipc : 0, 3)});
    }
    Emit(table, opts.csv);
    report.Table("coalescing_degree", table);
  }
  return 0;
}
