// Multi-objective design-space search over the NoC configuration axes
// (DESIGN.md §13).
//
// ParetoSearch explores a DesignSpace for the Pareto frontier of
// {IPC, mean packet latency, p99 packet latency, buffer area}. Designs are
// evaluated in batches through the existing sweep engine (RunSweep: one
// scheme per design, every workload, thread-pool parallel, bit-identical
// at any thread count), so the search inherits the simulator's
// determinism: same space + options => byte-identical pareto.json.
//
// Three strategies share one batch loop:
//
//   nsga2   NSGA-II: non-dominated sorting + crowding distance select the
//           parents, binary tournaments + uniform crossover + per-axis
//           mutation propose offspring. The default.
//   random  uniform sampling without replacement — the baseline any
//           smarter strategy must beat.
//   grid    exhaustive lexicographic enumeration — ground truth for small
//           spaces (and the brute-force oracle the tests compare against).
//
// Every evaluated design is kept in an append-only archive (deduplicated
// by axis coordinates); the final frontier is ranked over the whole
// archive, so the search never "forgets" a good early design.
//
// Crash resume: with a checkpoint_dir, the search state (RNG, archive,
// pending batch) is snapshotted before and after every batch, and each
// batch's RunSweep keeps its cell files in the same directory, under the
// search's own `resume`. A SIGKILL at any point resumes to a
// byte-identical result.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/enum_registry.hpp"
#include "dse/space.hpp"
#include "sim/experiment.hpp"

namespace gnoc {

class JsonWriter;

/// How the next batch of candidate designs is proposed.
enum class SearchStrategy : std::uint8_t {
  kNsga2 = 0,
  kRandom = 1,
  kGrid = 2,
};

const char* SearchStrategyName(SearchStrategy s);
/// Parses "nsga2" / "random" / "grid" (aliases accepted, case-insensitive).
/// Throws std::invalid_argument on unknown names.
SearchStrategy ParseSearchStrategy(const std::string& name);
/// The strategies' names and aliases, for flag registration.
const EnumRegistry<SearchStrategy>& SearchStrategyRegistry();

/// The objectives the search can optimize. IPC is maximized; the other
/// three are minimized (internally everything is minimized, IPC negated).
enum class SearchObjective : std::uint8_t {
  kIpc = 0,
  kMeanLatency = 1,
  kP99Latency = 2,
  kBufferArea = 3,
};

const char* SearchObjectiveName(SearchObjective o);
/// Parses "ipc" / "mean_latency" / "p99_latency" / "buffer_area" (aliases
/// accepted, case-insensitive). Throws std::invalid_argument on unknown
/// names.
SearchObjective ParseSearchObjective(const std::string& name);
/// Parses an objective list, each name as ParseSearchObjective does.
/// Throws std::invalid_argument on an unknown or repeated objective, or an
/// empty list: what the search itself would refuse.
std::vector<SearchObjective> ParseSearchObjectives(
    const std::vector<std::string>& names);

/// One design the search has looked at, with its aggregated metrics.
struct EvaluatedDesign {
  DesignPoint point;
  std::string label;

  /// False when the design cannot be simulated (deadlock-unsafe combo,
  /// invalid topology, too few VCs, ...); `infeasible_reason` says why.
  /// Infeasible designs cost no simulation and are never ranked.
  bool feasible = true;
  std::string infeasible_reason;

  /// Aggregates over the evaluation workloads: geomean IPC, pooled
  /// request+reply packet-latency mean, pooled p99, and the topology's
  /// buffer area in flit slots.
  double ipc = 0.0;
  double mean_packet_latency = 0.0;
  double p99_packet_latency = 0.0;
  double buffer_area_flits = 0.0;

  /// Filled by the final ranking: Pareto front index (0 = frontier) and
  /// crowding distance within that front. -1 / 0 for infeasible designs.
  int rank = -1;
  double crowding = 0.0;

  /// Checkpoint layout: the evaluated state, not the derived label/rank.
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.point);
    Io(ar, self.feasible);
    Io(ar, self.infeasible_reason);
    Io(ar, self.ipc);
    Io(ar, self.mean_packet_latency);
    Io(ar, self.p99_packet_latency);
    Io(ar, self.buffer_area_flits);
  }
};

/// Per-design progress callback: the committed design, feasible
/// evaluations so far, and the evaluation budget (0 = unbounded).
using DesignProgressFn =
    std::function<void(const EvaluatedDesign&, int, int)>;

/// Execution knobs for ParetoSearch.
struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::kNsga2;
  /// Objective subset to rank by, in order. Must be non-empty and
  /// duplicate-free.
  std::vector<SearchObjective> objectives = {
      SearchObjective::kIpc, SearchObjective::kMeanLatency,
      SearchObjective::kP99Latency, SearchObjective::kBufferArea};
  /// Designs proposed per batch (NSGA-II population size).
  int population = 16;
  /// Feasible designs to simulate before stopping (0 = until the space is
  /// exhausted).
  int max_evaluations = 96;
  std::uint64_t seed = 1;
  /// Probability an offspring mixes two parents (vs cloning the first).
  double crossover_rate = 0.9;
  /// Per-axis mutation probability (0 = the 1/kNumDesignAxes default).
  double mutation_rate = 0.0;

  /// Per-cell simulation length and parallelism (see SweepOptions).
  RunLengths lengths;
  int threads = 0;

  /// Per-sweep-cell progress, forwarded to the inner RunSweep calls.
  ProgressFn progress;
  /// Per-design progress (after each design is committed to the archive).
  DesignProgressFn on_design;
  /// Cooperative preemption: polled between batches and after every sweep
  /// cell. When it returns true the search checkpoints (if enabled) and
  /// returns the partial result with `completed == false`.
  std::function<bool()> should_stop;

  /// Directory for the search checkpoint and its batches' cell files
  /// (empty = off).
  std::string checkpoint_dir;
  /// Resume from `checkpoint_dir` (byte-identical to an uninterrupted
  /// run). When false, the search starts over and every cell runs and
  /// overwrites its file.
  bool resume = false;
};

/// Outcome of a search: the full archive plus frontier labeling.
struct ParetoResult {
  DesignSpace space;  ///< the searched space (axes + base config)
  SearchStrategy strategy = SearchStrategy::kNsga2;
  std::vector<SearchObjective> objectives;
  std::vector<EvaluatedDesign> designs;  ///< archive, in evaluation order
  int evaluations = 0;                   ///< feasible designs simulated
  int generations = 0;                   ///< batches completed
  bool completed = false;                ///< false when preempted

  /// Indices into `designs` of the non-dominated (rank 0) designs, in
  /// archive order.
  std::vector<std::size_t> FrontierIndices() const;

  /// Serializes the archive with frontier labels: per point the axis
  /// values, metrics, rank ("dominated": rank > 0) and crowding. Contains
  /// no timestamps or machine state, so equal searches produce equal
  /// bytes (the resume tests depend on this).
  void WriteJson(JsonWriter& w) const;
  /// Standalone document / atomically-written file.
  void WriteJson(std::ostream& out) const;
  void WriteJsonFile(const std::string& path) const;
};

/// The minimized objective vector of `d` under `objectives` (IPC negated).
std::vector<double> ObjectiveVector(
    const EvaluatedDesign& d, const std::vector<SearchObjective>& objectives);

/// Fingerprint of everything that determines a search's results: the
/// space (axes + base config), workloads, lengths and the strategy knobs.
/// Excludes threads and checkpointing (a resumed search may use different
/// parallelism). Search checkpoints carry it and refuse to load under a
/// different configuration.
std::uint64_t SearchFingerprint(const DesignSpace& space,
                                const std::vector<WorkloadProfile>& workloads,
                                const SearchOptions& options);

/// Runs the search. Throws std::invalid_argument on bad options (empty
/// objective list, population < 1, empty workloads).
ParetoResult ParetoSearch(const DesignSpace& space,
                          const std::vector<WorkloadProfile>& workloads,
                          const SearchOptions& options);

}  // namespace gnoc
