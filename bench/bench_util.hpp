// Shared helpers for the per-figure benchmark harnesses.
//
// Every harness accepts "key=value" overrides — exactly the run flags it
// applies (its ParseBenchOptions `run_flags`, defined once by
// RegisterRunFlags; the GPU sweep drivers take all eight):
//   scale=0.25        shrink warmup/measure cycles (quick smoke run)
//   workloads=BFS,KMN restrict the benchmark set
//   csv=true          emit CSV instead of aligned tables
//   threads=4         parallel sweep workers (0/default: one per core;
//                     results are identical for any thread count)
//   json=out.json     also write the figure's results as structured JSON
//   checkpoint_dir=d checkpoint_interval=N resume=true
//                     crash-resumable sweeps (EXPERIMENTS.md)
//
// and exactly the GpuConfig keys it applies to its schemes (its
// ParseBenchOptions `config_keys`, defined once by RegisterGpuConfigFlags,
// applied by WithGridOverrides). The GPU sweep drivers take all eleven:
//   topology=torus radix=16 num_vcs=4
//                     re-run the paper matrix on another grid (also
//                     circulant_s1= and circulant_s2=)
//   qos=strict        QoS arbitration discipline (none|strict|wrr)
//   qos_class=...     per-class contract spec, repeatable: the i-th
//                     occurrence configures class i (request, reply), e.g.
//                     qos_class=critical,prio=2,vcs=1,p99=400
//   audit=true        run the NoC invariant auditor (per-cell report lands
//                     in the JSON "audit" field)
//   telemetry=true    run the telemetry sampler (summary in the JSON
//                     "telemetry" field), telemetry_interval=100 cycles
//                     between samples
//   scheduling=full   NoC component scheduling: soa (default) or full (the
//                     tick-everything reference; same results)
// A harness that takes telemetry= also takes telemetry_out=p: write
// <p>.csv and <p>.trace.json for the runs it designates (e.g. fig4's
// standalone KMN run); it implies telemetry=true.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <functional>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

namespace gnoc::bench {

/// GpuConfig keys a harness can take on its command line.
using ConfigKeys = std::vector<std::string>;
/// Keys that reshape the tile grid and its network.
inline const ConfigKeys kGridKeys{"topology", "radix", "circulant_s1",
                                  "circulant_s2", "num_vcs"};
/// Keys that change how a cell is checked, observed or scheduled, never
/// what it computes.
inline const ConfigKeys kRunKeys{"audit", "telemetry", "telemetry_interval",
                                 "scheduling"};
/// All eleven: what the GPU sweep drivers take.
inline const ConfigKeys kSweepConfigKeys = [] {
  ConfigKeys keys = kGridKeys;
  keys.insert(keys.end(), {"qos", "qos_class"});
  keys.insert(keys.end(), kRunKeys.begin(), kRunKeys.end());
  return keys;
}();

/// Run flags (run length, workloads, output, sweep execution) a harness can
/// take; the rest of its flags are GpuConfig keys and its own.
using RunFlags = std::vector<std::string>;
/// All eight: what the GPU sweep drivers apply through RunSweep.
inline const RunFlags kSweepRunFlags = [] {
  RunFlags flags{"scale", "workloads", "csv", "threads", "json"};
  flags.insert(flags.end(),
               {"checkpoint_dir", "checkpoint_interval", "resume"});
  return flags;
}();

/// kSweepRunFlags without `ignored`: what a harness that drives its own
/// cells or search applies.
inline RunFlags RunFlagsExcept(const RunFlags& ignored) {
  RunFlags flags;
  for (const std::string& name : kSweepRunFlags) {
    if (std::find(ignored.begin(), ignored.end(), name) == ignored.end()) {
      flags.push_back(name);
    }
  }
  return flags;
}

/// Parsed common options.
struct BenchOptions {
  std::string program;  ///< the harness name its refusals start with
  /// Run lengths (scale=), threads=, the checkpoint flags and the stderr
  /// progress ticker, as RunSweep takes them.
  SweepOptions sweep;
  std::vector<WorkloadProfile> workloads;
  bool csv = false;
  std::string json_path;  ///< empty = no JSON output
  /// telemetry_out=: prefix for the .csv/.trace.json exports.
  std::string telemetry_path;
  /// The GpuConfig keys this harness takes; WithGridOverrides applies them.
  ConfigKeys config_keys;
  Config raw;
};

/// Stderr progress ticker for long sweeps. Silent when stderr is not a
/// terminal so piped/tee'd harness output stays clean. The sweep engine
/// already serializes progress calls; the ticker carries its own mutex so
/// it also stays safe when shared across concurrent sweeps.
inline ProgressFn StderrProgress() {
  if (isatty(fileno(stderr)) == 0) return nullptr;
  auto mu = std::make_shared<std::mutex>();
  return [mu](const std::string& scheme, const std::string& workload, int done,
              int total) {
    if (total <= 0) return;  // nothing to report on an empty sweep
    const std::lock_guard<std::mutex> lock(*mu);
    // `done` is the number of cells actually committed (the engine reports
    // after each cell completes), so the display never claims a cell early.
    std::cerr << "\r[" << done << "/" << total << "] " << scheme << " / "
              << workload << "          " << std::flush;
    if (done >= total) std::cerr << '\n';
  };
}

/// Strips leading/trailing ASCII whitespace.
inline std::string TrimToken(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

/// The tokens of a comma-separated list, whitespace trimmed, empty tokens
/// skipped.
inline std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> out;
  std::istringstream iss(list);
  std::string token;
  while (std::getline(iss, token, ',')) {
    token = TrimToken(token);
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

/// Parses a "workloads=" list (SplitList). Unknown names throw with the
/// full list of valid names in the message.
inline std::vector<WorkloadProfile> ParseWorkloadList(const std::string& list) {
  const std::vector<std::string> names = SplitList(list);
  if (names.empty()) return AllWorkloads();
  try {
    return WorkloadSubset(names);
  } catch (const std::invalid_argument& e) {
    std::string valid;
    for (const WorkloadProfile& w : AllWorkloads()) {
      if (!valid.empty()) valid += ", ";
      valid += w.name;
    }
    throw std::invalid_argument(std::string(e.what()) +
                                "; valid workloads: " + valid);
  }
}

/// A validator for flags that must be >= 0.
inline FlagSet::IntCheck NonNegative() {
  return [](std::int64_t v) {
    return v < 0 ? std::string("must be >= 0") : std::string();
  };
}

/// Defines every run flag once: its type, default, validator and help.
inline void RegisterRunFlags(FlagSet& flags) {
  flags.AddDouble("scale", 1.0, "scales warmup/measure cycles",
                  [](double v) {
                    return v <= 0.0 ? std::string("must be > 0")
                                    : std::string();
                  });
  flags.AddString("workloads", "",
                  "comma-separated benchmark subset (empty = all 25)",
                  FlagSet::ParsedBy(ParseWorkloadList));
  flags.AddBool("csv", false, "emit CSV instead of aligned tables");
  flags.AddInt("threads", 0, "parallel sweep workers (0 = one per core)",
               NonNegative());
  flags.AddString("json", "", "also write results as JSON to this path");
  flags.AddString("checkpoint_dir", "",
                  "directory for crash-resumable sweep state (empty = off)");
  flags.AddInt("checkpoint_interval", 0,
               "cycles between mid-cell snapshots (0 = per-cell only)",
               NonNegative());
  flags.AddBool("resume", false,
                "resume a checkpointed sweep from checkpoint_dir");
}

/// Registers `run_flags` as RegisterRunFlags defines them, then
/// `config_keys` as RegisterGpuConfigFlags defines them (drivers add their
/// own flags on top).
inline void RegisterSweepFlags(FlagSet& flags, const RunFlags& run_flags,
                               const ConfigKeys& config_keys) {
  FlagSet run("run", "");
  RegisterRunFlags(run);
  for (const std::string& name : run_flags) flags.Copy(run, name);
  FlagSet gpu_flags("GpuConfig", "");
  RegisterGpuConfigFlags(gpu_flags);
  for (const std::string& key : config_keys) flags.Copy(gpu_flags, key);
  if (flags.Contains("telemetry")) {
    flags.AddString("telemetry_out", "",
                    "prefix for telemetry .csv/.trace.json exports (implies "
                    "telemetry=true)");
  }
}

/// Applies the harness's GpuConfig keys (BenchOptions::config_keys) to a
/// driver's base configuration. Keys the user did not set keep the
/// driver's programmed values, so default runs are untouched.
inline GpuConfig WithGridOverrides(GpuConfig cfg, const BenchOptions& opts) {
  Config sub;
  for (const std::string& key : opts.config_keys) {
    // Every occurrence, in order: qos_class= is positional (the i-th
    // configures class i); the other keys stay last-wins.
    for (const std::string& value : opts.raw.GetList(key)) {
      sub.Append(key, value);
    }
  }
  if (!opts.telemetry_path.empty()) sub.Set("telemetry", "true");
  cfg.ApplyOverrides(sub);
  return cfg;
}

/// Builds the harness FlagSet (the driver's run flags and GpuConfig keys,
/// and optional driver extras) and parses argv through it. help= prints
/// the generated help and exits 0; an unknown flag or malformed value
/// prints the error and exits 2 — a mistyped flag, or one the driver
/// would ignore, never silently runs the full sweep. A run flag the
/// driver does not take keeps its default in the returned options.
inline BenchOptions ParseBenchOptions(
    int argc, char** argv, const std::string& program,
    const std::string& summary,
    const ConfigKeys& config_keys = kSweepConfigKeys,
    const RunFlags& run_flags = kSweepRunFlags,
    const std::function<void(FlagSet&)>& extra = nullptr) {
  FlagSet flags(program, summary);
  RegisterSweepFlags(flags, run_flags, config_keys);
  if (extra) extra(flags);
  BenchOptions opts;
  try {
    opts.raw = flags.Parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << program << ": " << e.what() << '\n';
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    std::exit(0);
  }
  const double scale = opts.raw.GetDouble("scale", 1.0);
  opts.sweep.lengths = RunLengths{}.Scaled(scale);
  opts.sweep.threads = static_cast<int>(opts.raw.GetInt("threads", 0));
  opts.sweep.progress = StderrProgress();
  opts.sweep.checkpoint_dir = opts.raw.GetString("checkpoint_dir", "");
  opts.sweep.checkpoint_interval =
      static_cast<Cycle>(opts.raw.GetInt("checkpoint_interval", 0));
  opts.sweep.resume = opts.raw.GetBool("resume", false);
  opts.csv = opts.raw.GetBool("csv", false);
  opts.json_path = opts.raw.GetString("json", "");
  opts.telemetry_path = opts.raw.GetString("telemetry_out", "");
  opts.workloads = ParseWorkloadList(opts.raw.GetString("workloads", ""));
  opts.config_keys = config_keys;
  opts.program = program;
  return opts;
}

/// Prints "<program>: <reason>" and exits 2, as a refused flag does, when
/// CheckSchemes refuses one of `schemes`. A harness that runs several
/// sweeps checks all their schemes before its first.
inline void CheckBenchSchemes(const std::vector<SchemeSpec>& schemes,
                              const BenchOptions& opts) {
  try {
    CheckSchemes(schemes);
  } catch (const std::invalid_argument& e) {
    std::cerr << opts.program << ": " << e.what() << '\n';
    std::exit(2);
  }
}

/// RunSweep over the harness's workloads and sweep options, after
/// CheckBenchSchemes.
inline SweepResult RunBenchSweep(const std::vector<SchemeSpec>& schemes,
                                 const BenchOptions& opts) {
  CheckBenchSchemes(schemes, opts);
  return RunSweep(schemes, opts.workloads, opts.sweep);
}

/// Writes a telemetry report as `<prefix>.csv` (long-form windows) and
/// `<prefix>.trace.json` (Chrome trace events). Throws std::runtime_error
/// on I/O failure; no-op for a disabled report.
inline void WriteTelemetryFiles(const TelemetryReport& report,
                                const std::string& prefix) {
  if (!report.enabled || prefix.empty()) return;
  const auto write = [](const std::string& path, auto&& emit) {
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("cannot write telemetry file: '" + path + "'");
    }
    emit(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("error writing telemetry file: '" + path +
                               "'");
    }
  };
  write(prefix + ".csv",
        [&](std::ostream& out) { report.WriteCsv(out); });
  write(prefix + ".trace.json",
        [&](std::ostream& out) { report.WriteChromeTrace(out); });
  std::cerr << "telemetry: wrote " << prefix << ".csv and " << prefix
            << ".trace.json\n";
}

/// Prints a table (or CSV) and flushes.
inline void Emit(const TextTable& table, bool csv) {
  std::cout << (csv ? table.RenderCsv() : table.Render()) << std::flush;
}

/// Collects one harness's results and, when `json=<path>` was given, writes
/// them as a single JSON document:
///
///   {"figure": "...", "sweeps": {name: <SweepResult::WriteJson>},
///    "tables": {name: [{column: cell, ...}, ...]},
///    "metrics": {name: value}}
///
/// Drivers call Sweep()/Table()/Metric() as they produce output and Write()
/// (or the destructor) at the end. All methods are cheap no-ops when no
/// JSON output was requested.
class BenchReport {
 public:
  BenchReport(std::string figure, const BenchOptions& opts)
      : figure_(std::move(figure)), path_(opts.json_path) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    try {
      Write();
    } catch (const std::exception& e) {
      std::cerr << "bench json: " << e.what() << '\n';
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Records a sweep (serialized with per-cell stats and speedups vs
  /// `baseline`; empty baseline = first scheme).
  void Sweep(const std::string& name, const SweepResult& result,
             const std::string& baseline = "") {
    if (enabled()) sweeps_.emplace_back(name, SweepEntry{result, baseline});
  }

  /// Records a rendered table as an array of {column: cell} row objects.
  void Table(const std::string& name, const TextTable& table) {
    if (enabled()) tables_.emplace_back(name, table);
  }

  /// Records a headline scalar (e.g. a measured geomean).
  void Metric(const std::string& name, double value) {
    if (enabled()) metrics_.emplace_back(name, value);
  }

  /// Writes the document to the json= path; idempotent, no-op when JSON
  /// output is off.
  void Write() {
    if (!enabled() || written_) return;
    std::ofstream out(path_);
    if (!out) {
      throw std::runtime_error("cannot write JSON file: '" + path_ + "'");
    }
    JsonWriter w(out);
    w.BeginObject();
    w.Key("figure").Value(figure_);
    w.Key("sweeps").BeginObject();
    for (const auto& [name, entry] : sweeps_) {
      w.Key(name);
      entry.result.WriteJson(w, entry.baseline);
    }
    w.EndObject();
    w.Key("tables").BeginObject();
    for (const auto& [name, table] : tables_) {
      w.Key(name).BeginArray();
      for (const auto& row : table.rows()) {
        w.BeginObject();
        for (std::size_t c = 0; c < table.header().size(); ++c) {
          w.Key(table.header()[c]).Value(c < row.size() ? row[c] : "");
        }
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
    w.Key("metrics").BeginObject();
    for (const auto& [name, value] : metrics_) w.Key(name).Value(value);
    w.EndObject();
    w.EndObject();
    out.flush();
    if (!out) {
      throw std::runtime_error("error writing JSON file: '" + path_ + "'");
    }
    written_ = true;
  }

 private:
  struct SweepEntry {
    SweepResult result;
    std::string baseline;
  };

  std::string figure_;
  std::string path_;
  bool written_ = false;
  std::vector<std::pair<std::string, SweepEntry>> sweeps_;
  std::vector<std::pair<std::string, TextTable>> tables_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Prints the per-workload speedups of each scheme vs a baseline plus the
/// geometric mean row, in the layout the paper's bar figures use.
inline void PrintSpeedupFigure(const SweepResult& result,
                               const std::string& baseline,
                               const std::vector<std::string>& schemes,
                               bool csv) {
  std::vector<std::string> header{"benchmark"};
  for (const auto& s : schemes) header.push_back(s);
  TextTable table(header);
  for (const auto& workload : result.workloads()) {
    std::vector<double> row;
    row.reserve(schemes.size());
    for (const auto& s : schemes) {
      row.push_back(result.Speedup(s, workload, baseline));
    }
    table.AddRow(workload, row);
  }
  std::vector<double> geomeans;
  geomeans.reserve(schemes.size());
  for (const auto& s : schemes) {
    geomeans.push_back(result.GeomeanSpeedup(s, baseline));
  }
  table.AddRow("GEOMEAN", geomeans);
  Emit(table, csv);
}

}  // namespace gnoc::bench
