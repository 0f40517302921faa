// Experiment harness: runs (configuration x workload) sweeps and computes
// the normalized-IPC speedups the paper's figures report.
//
// Every figure in the evaluation (Figs. 7-10) is "IPC of scheme S on
// workload W, normalized to IPC of the baseline scheme on W", summarized by
// the geometric mean over workloads. This module provides exactly that.
//
// The sweep engine separates sweep *definition* (EnumerateCells: the
// (scheme, workload) grid in deterministic order) from *execution*
// (RunSweep: cells dispatched to a thread pool). Each cell constructs its
// own GpuSystem seeded from its scheme's config and shares no mutable
// state, so results are bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "gpgpu/workload.hpp"
#include "sim/gpu_config.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {

class JsonWriter;

/// Simulation length for one (configuration, workload) run.
struct RunLengths {
  Cycle warmup = 3000;
  Cycle measure = 12000;

  /// Scales both phases (e.g. 0.25 for quick smoke runs).
  RunLengths Scaled(double factor) const;
};

/// One configuration under evaluation, with a display label.
struct SchemeSpec {
  std::string label;
  GpuConfig config;
};

/// One (scheme, workload) grid position, by index into the sweep's scheme
/// and workload lists.
struct SweepCell {
  std::size_t scheme = 0;
  std::size_t workload = 0;
};

/// Result of one (scheme, workload) run.
struct CellResult {
  std::string scheme;
  std::string workload;
  GpuRunStats stats;
};

/// Result matrix of a sweep: one row per workload, one column per scheme.
class SweepResult {
 public:
  SweepResult(std::vector<std::string> schemes,
              std::vector<std::string> workloads);

  void Set(const std::string& scheme, const std::string& workload,
           GpuRunStats stats);
  const GpuRunStats& Get(const std::string& scheme,
                         const std::string& workload) const;

  const std::vector<std::string>& schemes() const { return schemes_; }
  const std::vector<std::string>& workloads() const { return workloads_; }

  /// Every cell in workload-major order (the order RunSweep fills them).
  std::vector<CellResult> Cells() const;

  /// IPC of (scheme, workload) normalized to (baseline_scheme, workload).
  double Speedup(const std::string& scheme, const std::string& workload,
                 const std::string& baseline_scheme) const;

  /// Per-workload speedups of `scheme` vs `baseline_scheme`, in workload
  /// order.
  std::vector<double> Speedups(const std::string& scheme,
                               const std::string& baseline_scheme) const;

  /// Geometric-mean speedup over all workloads.
  double GeomeanSpeedup(const std::string& scheme,
                        const std::string& baseline_scheme) const;

  /// Serializes the sweep as a JSON object: scheme/workload lists, per-cell
  /// GpuRunStats (with per-cell speedup vs `baseline_scheme`), and a
  /// geomean-speedup summary per scheme. An empty `baseline_scheme` means
  /// the first scheme.
  void WriteJson(JsonWriter& w, const std::string& baseline_scheme = "") const;

  /// WriteJson to a stream as a standalone document.
  void WriteJson(std::ostream& out,
                 const std::string& baseline_scheme = "") const;

  /// WriteJson to a file. Throws std::runtime_error when the file cannot be
  /// written.
  void WriteJsonFile(const std::string& path,
                     const std::string& baseline_scheme = "") const;

 private:
  std::size_t SchemeIndex(const std::string& scheme) const;
  std::size_t WorkloadIndex(const std::string& workload) const;

  std::vector<std::string> schemes_;
  std::vector<std::string> workloads_;
  // Name -> position lookups, built once in the constructor so Set/Get do
  // not rescan the name lists (O(schemes x workloads) per sweep otherwise).
  std::map<std::string, std::size_t> scheme_index_;
  std::map<std::string, std::size_t> workload_index_;
  std::vector<GpuRunStats> cells_;  // [workload][scheme] flattened
};

/// Progress callback: (scheme label, workload name, completed count, total).
/// Invoked after a cell's result has been committed, with the number of
/// cells completed so far (1..total). The engine serializes invocations
/// (one at a time, under a lock) and the count is monotonic, so callbacks
/// may keep unsynchronized state.
using ProgressFn =
    std::function<void(const std::string&, const std::string&, int, int)>;

/// Execution knobs for RunSweep.
struct SweepOptions {
  RunLengths lengths;
  /// Worker threads; 0 means one per hardware thread. threads=1 runs the
  /// cells one after another in definition order.
  int threads = 0;
  ProgressFn progress;
  // --- crash-resumable sweeps (DESIGN.md §10) ---
  /// Directory of cell results (empty = checkpointing off, the default;
  /// the per-cell simulation path is then byte-for-byte the
  /// non-checkpointing one). Each finished cell is one cell_<key>.bin
  /// result file and, when checkpoint_interval > 0, each in-flight cell
  /// one snap_<key>.ckpt mid-run snapshot, named and framed by its
  /// CellKey. Any number of sweeps may share a directory.
  std::string checkpoint_dir;
  /// Cycles between mid-cell snapshots (0 = only per-cell completion
  /// files; a killed run then redoes at most one full cell per thread).
  Cycle checkpoint_interval = 0;
  /// Resume from `checkpoint_dir`: a cell whose result file exists is
  /// loaded, an in-flight cell restarts from its snapshot. The resumed
  /// sweep is bit-identical to an uninterrupted one. When false, every
  /// cell runs and overwrites its files.
  bool resume = false;
};

/// Identity of one cell's result: FNV-1a over the cell's
/// GpuConfigFingerprint and its warmup and measure lengths. A cell's
/// checkpoint files are named by it and carry it as their framing
/// fingerprint, so a file loads only as the cell it was computed for.
std::uint64_t CellKey(const GpuConfig& config, const WorkloadProfile& workload,
                      const RunLengths& lengths);

/// Throws std::invalid_argument ("scheme '<label>': <reason>") for the
/// first scheme CheckGpuConfig refuses (e.g. a deadlock-unsafe
/// configuration). RunSweep calls it before its first cell.
void CheckSchemes(const std::vector<SchemeSpec>& schemes);

/// The sweep grid in execution order (workload-major, matching the layout
/// of SweepResult and the original sequential engine).
std::vector<SweepCell> EnumerateCells(std::size_t num_schemes,
                                      std::size_t num_workloads);

/// Runs every scheme on every workload, `options.threads` cells at a time;
/// a resumed sweep loads its finished cells first, on the calling thread.
/// Cells that share a CellKey run once and fill every slot with that key.
/// Deterministic: each cell uses the same seed (from the scheme's config)
/// and shares no state, so the result is bit-identical for any thread
/// count. First, CheckSchemes refuses an unbuildable scheme, before any
/// cell runs or any progress is reported. If a cell throws or the
/// progress callback does (a preempted sweep), no further cell starts and
/// the first exception is rethrown after in-flight cells finish.
SweepResult RunSweep(const std::vector<SchemeSpec>& schemes,
                     const std::vector<WorkloadProfile>& workloads,
                     const SweepOptions& options);

/// Convenience: all 25 paper workloads.
const std::vector<WorkloadProfile>& AllWorkloads();

/// Convenience: a subset of paper workloads by name.
std::vector<WorkloadProfile> WorkloadSubset(
    const std::vector<std::string>& names);

}  // namespace gnoc
