// Pareto design-space search driver (DESIGN.md §13): explores the
// {placement x routing x VC policy x topology x VC count x VC depth}
// space for the frontier of {IPC, mean latency, p99 latency, buffer
// area} and writes the pareto.json artifact.
//
//   pareto_search                              # NSGA-II over the paper
//                                              # space, budget 96
//   pareto_search strategy=grid max_evaluations=0   # exhaustive oracle
//   pareto_search routings=xy,yx vc_counts=2,4 radix=4 workloads=BFS
//       scale=0.1 out=/tmp/pareto.json              # quick sub-space
//
// Shares the sweep flags (scale=, workloads=, threads=, checkpoint_dir=,
// resume=); EXPERIMENTS.md has the full worked example.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dse/search.hpp"

namespace gnoc::bench {
namespace {

int Main(int argc, char** argv) {
  const auto positive = [](std::int64_t v) {
    return v < 1 ? std::string("must be >= 1") : std::string();
  };
  BenchOptions opts = ParseBenchOptions(
      argc, argv, "pareto_search",
      "multi-objective design-space search: NSGA-II / random / grid over "
      "the NoC configuration axes",
      // radix= reshapes the base grid under the axes; the axes themselves
      // carry the topology and VC choices. out= names its artifact, and
      // the search checkpoints per batch and per cell, never mid-cell.
      {"radix"}, RunFlagsExcept({"json", "checkpoint_interval"}),
      [&](FlagSet& f) {
        f.AddEnum("strategy", "nsga2", "batch proposal strategy",
                  SearchStrategyRegistry());
        f.AddString("objectives", "ipc,mean_latency,p99_latency,buffer_area",
                    "comma list: ipc, mean_latency, p99_latency, buffer_area",
                    FlagSet::ParsedBy([](const std::string& v) {
                      ParseSearchObjectives(SplitList(v));
                    }));
        f.AddInt("population", 16, "designs proposed per batch", positive);
        f.AddInt("max_evaluations", 96,
                 "feasible-design budget (0 = exhaust the space)",
                 NonNegative());
        f.AddInt("seed", 1, "search RNG seed", NonNegative());
        f.AddString("out", "pareto.json", "frontier artifact path");
        const char* const examples[kNumDesignAxes] = {
            "bottom,edge", "xy,yx", "split,mono", "mesh,torus", "2,4", "4,8"};
        for (std::size_t axis = 0; axis < kNumDesignAxes; ++axis) {
          const std::string name = kDesignAxisNames[axis];
          f.AddString(name, "",
                      std::string("axis override, e.g. ") + examples[axis] +
                          " (empty = paper axis)",
                      FlagSet::ParsedBy([axis, name](const std::string& v) {
                        DesignSpace scratch;
                        SetAxis(scratch, axis, SplitList(v), name);
                      }));
        }
      });

  DesignSpace space = DesignSpace::Default();
  for (std::size_t axis = 0; axis < kNumDesignAxes; ++axis) {
    const char* name = kDesignAxisNames[axis];
    const std::vector<std::string> values =
        SplitList(opts.raw.GetString(name, ""));
    if (!values.empty()) SetAxis(space, axis, values, name);
  }
  space.base = WithGridOverrides(space.base, opts);

  SearchOptions sopt;
  sopt.strategy = ParseSearchStrategy(opts.raw.GetString("strategy", "nsga2"));
  if (opts.raw.Contains("objectives")) {
    sopt.objectives =
        ParseSearchObjectives(SplitList(opts.raw.GetString("objectives")));
  }
  sopt.population = static_cast<int>(opts.raw.GetInt("population", 16));
  sopt.max_evaluations =
      static_cast<int>(opts.raw.GetInt("max_evaluations", 96));
  sopt.seed = static_cast<std::uint64_t>(opts.raw.GetInt("seed", 1));
  sopt.lengths = opts.sweep.lengths;
  sopt.threads = opts.sweep.threads;
  sopt.progress = opts.sweep.progress;
  sopt.checkpoint_dir = opts.sweep.checkpoint_dir;
  sopt.resume = opts.sweep.resume;

  const std::uint64_t num_points = space.NumPoints();
  std::cerr << "pareto_search: " << SearchStrategyName(sopt.strategy)
            << " over " << num_points << " designs, budget "
            << sopt.max_evaluations << ", " << opts.workloads.size()
            << " workload(s)\n";

  const ParetoResult result = ParetoSearch(space, opts.workloads, sopt);

  TextTable table({"design", "ipc", "mean_lat", "p99_lat", "area_flits"});
  for (const std::size_t i : result.FrontierIndices()) {
    const EvaluatedDesign& d = result.designs[i];
    table.AddRow(d.label, {d.ipc, d.mean_packet_latency, d.p99_packet_latency,
                           d.buffer_area_flits});
  }
  Emit(table, opts.csv);
  std::cerr << "pareto_search: " << result.evaluations << " evaluation(s), "
            << result.generations << " generation(s), frontier "
            << result.FrontierIndices().size() << "/" << result.designs.size()
            << (result.completed ? "" : " [preempted]") << '\n';

  const std::string out = opts.raw.GetString("out", "pareto.json");
  if (!out.empty()) {
    result.WriteJsonFile(out);
    std::cerr << "pareto_search: wrote " << out << '\n';
  }
  return result.completed ? 0 : 3;
}

}  // namespace
}  // namespace gnoc::bench

int main(int argc, char** argv) {
  try {
    return gnoc::bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pareto_search: " << e.what() << '\n';
    return 1;
  }
}
