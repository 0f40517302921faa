// Job specifications for the DSE service (DESIGN.md §13).
//
// A job is one JSON document describing either a plain sweep (explicit
// scheme list, the classic RunSweep grid) or a Pareto search (a
// DesignSpace + strategy knobs for ParetoSearch). RunJob executes a spec
// with per-job checkpointing and cooperative preemption, writing the
// result artifact (sweep.json / pareto.json) into the job's result
// directory. The job server (dse/server.hpp) is a thin spool loop around
// Parse + RunJob; tests drive them directly.
//
// Spec format (all keys except "type" optional):
//
//   {"type": "sweep",
//    "workloads": ["BFS", "KMN"], "warmup": 3000, "measure": 12000,
//    "threads": 2, "base": {"width": 8, "height": 8},
//    "schemes": [{"label": "baseline", "config": {"routing": "xy"}},
//                {"label": "mono",     "config": {"vc_policy": "mono"}}],
//    "baseline": "baseline"}
//
//   {"type": "pareto-search",
//    "workloads": ["BFS"], "warmup": 300, "measure": 1500,
//    "strategy": "nsga2", "objectives": ["ipc", "buffer_area"],
//    "population": 8, "max_evaluations": 32, "seed": 7,
//    "space": {"base": {"width": 4, "height": 4, "num_mcs": 4},
//              "placements": ["bottom"], "routings": ["xy", "yx"],
//              "vc_policies": ["split", "mono"], "topologies": ["mesh"],
//              "vc_counts": [2, 4], "vc_depths": [2, 4]}}
//
// "config"/"base" objects hold GpuConfig::ApplyOverrides keys with JSON
// values (numbers/bools/strings). A missing "space" means the full paper
// space (DesignSpace::Default); a present one starts from the baseline
// single-point space and overrides the listed axes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "dse/search.hpp"

namespace gnoc {

class JsonValue;

/// What a job asks for.
enum class JobType : std::uint8_t {
  kSweep = 0,
  kParetoSearch = 1,
};

const char* JobTypeName(JobType t);

/// A parsed job specification.
struct JobSpec {
  std::string id;  ///< assigned by the server (spool filename stem)
  JobType type = JobType::kSweep;

  std::vector<std::string> workloads = {"BFS"};
  RunLengths lengths;
  int threads = 1;
  /// Overrides applied to every scheme / the search base config.
  Config base_overrides;

  // --- type == kSweep ---
  struct SchemeOverride {
    std::string label;
    Config overrides;
  };
  std::vector<SchemeOverride> schemes;
  std::string baseline;  ///< baseline scheme label ("" = first)

  // --- type == kParetoSearch ---
  DesignSpace space;
  SearchStrategy strategy = SearchStrategy::kNsga2;
  std::vector<SearchObjective> objectives = {
      SearchObjective::kIpc, SearchObjective::kMeanLatency,
      SearchObjective::kP99Latency, SearchObjective::kBufferArea};
  int population = 8;
  int max_evaluations = 32;
  std::uint64_t seed = 1;
  double crossover_rate = 0.9;
  double mutation_rate = 0.0;

  /// Parses a spec document. Throws std::invalid_argument on malformed
  /// JSON, unknown enum names, a missing/unknown "type", a "base"/"config"
  /// key or value the command line would refuse (unknown flag, failed
  /// validator), and a count, length or seed that is not an integer in
  /// range.
  static JobSpec Parse(const std::string& json_text);
  static JobSpec Parse(const JsonValue& doc);

  /// The SchemeSpec list a sweep job denotes (base + per-scheme overrides
  /// applied to GpuConfig::Baseline). Throws when a sweep job has no
  /// schemes.
  std::vector<SchemeSpec> BuildSchemes() const;
};

/// Job progress: (work done, work total, human-readable detail). For
/// sweeps the unit is grid cells; for searches, design evaluations
/// (total = budget, 0 when unbounded).
using JobProgressFn = std::function<void(int, int, const std::string&)>;

/// What RunJob produced.
struct JobOutcome {
  /// False when `should_stop` preempted the job; checkpoints (if a
  /// checkpoint_dir was given) let a later RunJob call resume it.
  bool completed = false;
  /// Path of the written artifact (result_dir + "/sweep.json" or
  /// "/pareto.json"); empty when not completed.
  std::string artifact;
};

/// Executes `spec`. Results land in `result_dir`, checkpoints under
/// `checkpoint_dir` (empty = no checkpointing); both directories are
/// created as needed. Always resumes from existing checkpoint state, so
/// re-running a killed job continues instead of restarting — byte-identical
/// to an uninterrupted run. Simulation errors propagate as exceptions.
JobOutcome RunJob(const JobSpec& spec, const std::string& result_dir,
                  const std::string& checkpoint_dir,
                  const std::function<bool()>& should_stop = nullptr,
                  const JobProgressFn& progress = nullptr);

}  // namespace gnoc
