// The simulator's host-performance benchmark: three batch workloads
// (gpu-fig8, noc-sparse, noc-qos-saturated), their output checks, and the
// per-layer split from a separately traced run. See perfbench/README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/experiment.hpp"
#include "tracer.hpp"

namespace gnoc {
class Network;
}

namespace perfbench {

/// The seed at which stored expected values are checked. It is the
/// library's default GpuConfig seed, so gpu-fig8 at this seed reproduces
/// the fig8 regression pin cell for cell.
inline constexpr std::uint64_t kDefaultSeed = 0xC0FFEE;

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  /// Host seconds to keep running passes; at least one pass always runs.
  double seconds = 10.0;
  /// Per-layer mode: alternate untraced and traced passes.
  bool trace = false;
  /// Expected simulated stats at kDefaultSeed (null = no stored values).
  const gnoc::JsonValue* expected = nullptr;
  /// Chrome-trace output file (trace mode; empty = not written).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadReport {
  /// Operations run (one per gpu-fig8 cell, one per NoC pass) and those
  /// that failed an output check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
  /// The simulated stats of the first pass, in the stored-expected format.
  std::string stats_json;
};

/// Host time of one untraced or traced pass: wall time for the whole pass,
/// thread CPU time (CpuNs) for its constructions and tick loops.
struct PassTiming {
  std::int64_t wall_ns = 0;   ///< set-up + every cycle + result collection
  std::int64_t setup_ns = 0;  ///< CPU, summed over constructions
  std::int64_t tick_ns = 0;   ///< CPU, inside the tick loops
  std::uint64_t cycles = 0;   ///< simulated cycles advanced
};

/// Everything the per-layer metrics are computed from, summed over the
/// measured windows of every traced cell or pass.
struct LayerAggregate {
  LayerTotals totals;            ///< traced spans in measured windows
  std::int64_t loop_ns = 0;      ///< measured-window tick loops, wall
  std::uint64_t cycles = 0;      ///< measured-window cycles
  std::vector<std::uint32_t> fabric_cycle_ns;  ///< one per measured cycle
  std::vector<std::int64_t> setup_ns;  ///< CPU, one per construction
  std::vector<std::int64_t> untraced_tick_ns;  ///< per untraced pass
  std::vector<std::int64_t> traced_tick_ns;    ///< per traced pass
  // noc counters (measured windows)
  std::uint64_t tick_steps = 0;
  std::uint64_t router_cycles = 0;  ///< routers x cycles
  std::uint64_t flits_forwarded = 0;
  std::uint64_t sa_stalls = 0;
  std::uint64_t va_failures = 0;
  std::uint64_t buffered_flit_cycles = 0;
  std::uint64_t nic_cycles = 0;  ///< NICs x cycles
  std::uint64_t packets_ejected = 0;
  std::uint64_t inject_stall_cycles = 0;
  std::uint64_t bulk_throttle_cycles = 0;
  std::uint64_t critical_slo_violations = 0;
  std::uint64_t networks = 0;  ///< traced network runs (cells or passes)
  std::vector<gnoc::Histogram> latency;  ///< per class
  // gpgpu counters (gpu-fig8 only)
  std::uint64_t instructions = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t mc_stall_cycles = 0;
  std::uint64_t mc_cycles = 0;  ///< MCs x cycles

  LayerAggregate();
  /// Adds `net`'s router and NIC counters accumulated since its last
  /// ResetStats, over `cycles` measured cycles, plus `tick_steps`.
  void AddNetwork(const gnoc::Network& net, gnoc::Cycle cycles,
                  std::uint64_t tick_steps);
};

WorkloadReport RunGpuFig8(const RunOptions& options);
/// `name` is "noc-sparse" or "noc-qos-saturated".
WorkloadReport RunNocWorkload(const std::string& name,
                              const RunOptions& options);
bool IsNocWorkload(const std::string& name);

// --- gpu-fig8 cells (exposed for the benchmark's tests) ---

/// The fig8 regression pin's run lengths (scale=0.1).
inline constexpr gnoc::Cycle kFig8Warmup = 300;
inline constexpr gnoc::Cycle kFig8Measure = 1200;

/// Fig. 8's four schemes as bench/fig8_vc_monopolizing builds them, under
/// soa scheduling with the given seed.
std::vector<gnoc::SchemeSpec> Fig8Schemes(std::uint64_t seed);
/// The fig8 pin's profiles: CP, NQU, HOT, BFS, KMN.
std::vector<gnoc::WorkloadProfile> Fig8Profiles();

struct CellRun {
  gnoc::GpuRunStats stats;
  std::string error;  ///< failed output checks (empty = passed)
  PassTiming timing;
};

/// One cell through GpuSystem: warm-up, stats reset, measured window with
/// the deadlock stop — GpuSystem::Run's sequence.
CellRun RunGpuCell(const gnoc::GpuConfig& config,
                   const gnoc::WorkloadProfile& profile,
                   LayerAggregate& agg);
/// The same cell assembled by the benchmark from GpuSystem's public parts
/// and ticked layer by layer under `tracer`; spans of sampled cycles are
/// recorded when `record` is set.
CellRun RunAssembledCell(const gnoc::GpuConfig& config,
                         const gnoc::WorkloadProfile& profile, Tracer& tracer,
                         LayerAggregate& agg, bool record);

// --- the pass loop shared by every workload ---

/// Every span of one cycle in `kSpanSampleEvery` is recorded in the first
/// traced pass.
inline constexpr gnoc::Cycle kSpanSampleEvery = 50;

/// One checked operation of a pass.
struct Operation {
  std::string stats_bytes;  ///< every simulated statistic, serialized
  std::string error;        ///< failed output checks (empty = passed)
};

struct PassOutcome {
  PassTiming timing;
  std::vector<Operation> ops;
  std::string stats_json;  ///< the simulated stats in the expected format
};

/// Runs one pass; `tracer` is null for an untraced pass.
using PassFn = std::function<PassOutcome(Tracer* tracer, LayerAggregate& agg,
                                         bool record)>;
/// Per-operation differences of `stats_json` against stored values.
using ExpectedFn = std::function<std::vector<std::string>(
    const gnoc::JsonValue& expected, const std::string& stats_json)>;

/// Runs passes until `options.seconds` have elapsed (alternating untraced
/// and traced passes in trace mode), checks every operation against the
/// first untraced pass and, at kDefaultSeed, against `options.expected`,
/// and reports the metrics of the mode.
WorkloadReport RunPasses(const std::string& workload,
                         const RunOptions& options, const PassFn& run_pass,
                         const ExpectedFn& expected_errors);

/// End-to-end metrics from the untraced passes (medians over passes).
std::vector<Metric> EndToEndMetrics(const std::vector<PassTiming>& passes);
/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> PerLayerMetrics(const LayerAggregate& agg);
/// Per-layer self-time table of the measured windows.
std::string SelfTimeTable(const std::string& workload,
                          const LayerAggregate& agg);

/// Differences between an expected and an actual JSON document: numbers
/// that are integral in both compare exactly, other numbers within a
/// relative tolerance of 1e-6 (bench/check_regression.py's), everything
/// else exactly. Empty when equal.
std::vector<std::string> DiffJson(const gnoc::JsonValue& expected,
                                  const gnoc::JsonValue& actual,
                                  const std::string& path = "$");

double Median(std::vector<double> values);

}  // namespace perfbench
