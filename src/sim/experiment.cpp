#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/json.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "noc/packet.hpp"

namespace gnoc {

RunLengths RunLengths::Scaled(double factor) const {
  RunLengths out;
  out.warmup = static_cast<Cycle>(static_cast<double>(warmup) * factor);
  out.measure = static_cast<Cycle>(static_cast<double>(measure) * factor);
  if (out.warmup < 100) out.warmup = 100;
  if (out.measure < 500) out.measure = 500;
  return out;
}

SweepResult::SweepResult(std::vector<std::string> schemes,
                         std::vector<std::string> workloads)
    : schemes_(std::move(schemes)),
      workloads_(std::move(workloads)),
      cells_(schemes_.size() * workloads_.size()) {
  for (std::size_t i = 0; i < schemes_.size(); ++i) {
    scheme_index_.emplace(schemes_[i], i);
  }
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    workload_index_.emplace(workloads_[i], i);
  }
}

std::size_t SweepResult::SchemeIndex(const std::string& scheme) const {
  const auto it = scheme_index_.find(scheme);
  if (it == scheme_index_.end()) {
    throw std::invalid_argument("unknown scheme: '" + scheme + "'");
  }
  return it->second;
}

std::size_t SweepResult::WorkloadIndex(const std::string& workload) const {
  const auto it = workload_index_.find(workload);
  if (it == workload_index_.end()) {
    throw std::invalid_argument("unknown workload: '" + workload + "'");
  }
  return it->second;
}

void SweepResult::Set(const std::string& scheme, const std::string& workload,
                      GpuRunStats stats) {
  cells_[WorkloadIndex(workload) * schemes_.size() + SchemeIndex(scheme)] =
      stats;
}

const GpuRunStats& SweepResult::Get(const std::string& scheme,
                                    const std::string& workload) const {
  return cells_[WorkloadIndex(workload) * schemes_.size() +
                SchemeIndex(scheme)];
}

std::vector<CellResult> SweepResult::Cells() const {
  std::vector<CellResult> out;
  out.reserve(cells_.size());
  for (std::size_t w = 0; w < workloads_.size(); ++w) {
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      out.push_back(
          {schemes_[s], workloads_[w], cells_[w * schemes_.size() + s]});
    }
  }
  return out;
}

double SweepResult::Speedup(const std::string& scheme,
                            const std::string& workload,
                            const std::string& baseline_scheme) const {
  const double base = Get(baseline_scheme, workload).ipc;
  const double val = Get(scheme, workload).ipc;
  return base > 0.0 ? val / base : 0.0;
}

std::vector<double> SweepResult::Speedups(
    const std::string& scheme, const std::string& baseline_scheme) const {
  std::vector<double> out;
  out.reserve(workloads_.size());
  for (const std::string& w : workloads_) {
    out.push_back(Speedup(scheme, w, baseline_scheme));
  }
  return out;
}

double SweepResult::GeomeanSpeedup(const std::string& scheme,
                                   const std::string& baseline_scheme) const {
  return GeometricMean(Speedups(scheme, baseline_scheme));
}

namespace {

void WriteStatsJson(JsonWriter& w, const GpuRunStats& stats) {
  w.Key("ipc").Value(stats.ipc);
  w.Key("cycles").Value(static_cast<std::uint64_t>(stats.cycles));
  w.Key("instructions").Value(stats.instructions);
  w.Key("request_flits").Value(stats.request_flits);
  w.Key("reply_flits").Value(stats.reply_flits);
  w.Key("packets_by_type").BeginObject();
  for (int t = 0; t < kNumPacketTypes; ++t) {
    w.Key(PacketTypeName(static_cast<PacketType>(t)))
        .Value(stats.packets_by_type[static_cast<std::size_t>(t)]);
  }
  w.EndObject();
  w.Key("network").BeginObject();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<std::size_t>(c);
    // Per-class keys use the configured TrafficClassSpec names (the QoS
    // report carries them even with QoS off, defaulting to the protocol
    // pair "request"/"reply"), so renamed classes keep stable JSON keys.
    const std::string& label = stats.qos.classes[cls].name;
    w.Key(label.empty() ? ClassName(static_cast<TrafficClass>(c)) : label)
        .BeginObject();
    w.Key("packets_injected").Value(stats.network.packets_injected[cls]);
    w.Key("packets_ejected").Value(stats.network.packets_ejected[cls]);
    w.Key("flits_injected").Value(stats.network.flits_injected[cls]);
    w.Key("flits_ejected").Value(stats.network.flits_ejected[cls]);
    w.Key("avg_packet_latency").Value(stats.network.packet_latency[cls].mean());
    w.Key("avg_network_latency")
        .Value(stats.network.network_latency[cls].mean());
    const Histogram::Percentiles pct =
        stats.network.latency_histogram[cls].SummaryPercentiles();
    w.Key("p50_packet_latency").Value(pct.p50);
    w.Key("p95_packet_latency").Value(pct.p95);
    w.Key("p99_packet_latency").Value(pct.p99);
    w.EndObject();
  }
  w.Key("flits_forwarded").Value(stats.network.flits_forwarded);
  w.EndObject();
  w.Key("l2_miss_rate").Value(stats.l2_miss_rate);
  w.Key("dram_row_hit_rate").Value(stats.dram_row_hit_rate);
  w.Key("avg_read_latency").Value(stats.avg_read_latency);
  w.Key("deadlocked").Value(stats.deadlocked);
  w.Key("audit");
  stats.audit.WriteJson(w);
  w.Key("telemetry");
  stats.telemetry.WriteJson(w);
  w.Key("qos");
  stats.qos.WriteJson(w);
}

}  // namespace

void SweepResult::WriteJson(JsonWriter& w,
                            const std::string& baseline_scheme) const {
  const std::string baseline =
      baseline_scheme.empty() && !schemes_.empty() ? schemes_.front()
                                                   : baseline_scheme;
  w.BeginObject();
  w.Key("schemes").BeginArray();
  for (const std::string& s : schemes_) w.Value(s);
  w.EndArray();
  w.Key("workloads").BeginArray();
  for (const std::string& s : workloads_) w.Value(s);
  w.EndArray();
  w.Key("baseline").Value(baseline);
  w.Key("cells").BeginArray();
  for (const CellResult& cell : Cells()) {
    w.BeginObject();
    w.Key("scheme").Value(cell.scheme);
    w.Key("workload").Value(cell.workload);
    WriteStatsJson(w, cell.stats);
    if (!baseline.empty()) {
      w.Key("speedup").Value(Speedup(cell.scheme, cell.workload, baseline));
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  w.Key("geomean_speedup").BeginObject();
  if (!baseline.empty()) {
    for (const std::string& s : schemes_) {
      w.Key(s).Value(GeomeanSpeedup(s, baseline));
    }
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
}

void SweepResult::WriteJson(std::ostream& out,
                            const std::string& baseline_scheme) const {
  JsonWriter w(out);
  WriteJson(w, baseline_scheme);
}

void SweepResult::WriteJsonFile(const std::string& path,
                                const std::string& baseline_scheme) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write JSON file: '" + path + "'");
  }
  WriteJson(out, baseline_scheme);
  out.flush();
  if (!out) {
    throw std::runtime_error("error writing JSON file: '" + path + "'");
  }
}

std::vector<SweepCell> EnumerateCells(std::size_t num_schemes,
                                      std::size_t num_workloads) {
  std::vector<SweepCell> cells;
  cells.reserve(num_schemes * num_workloads);
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (std::size_t s = 0; s < num_schemes; ++s) {
      cells.push_back({s, w});
    }
  }
  return cells;
}

namespace {

GpuRunStats RunCell(const SchemeSpec& scheme, const WorkloadProfile& workload,
                    const SweepOptions& options) {
  GpuSystem gpu(scheme.config, workload);
  return gpu.Run(options.lengths.warmup, options.lengths.measure);
}

/// Phase tags of a mid-cell snapshot.
constexpr std::uint8_t kPhaseWarmup = 0;
constexpr std::uint8_t kPhaseMeasure = 1;

/// Checkpointed equivalent of GpuSystem::Run — the same tick/reset/
/// deadlock-check sequence, with a snapshot written every
/// `checkpoint_interval` ticks. Resuming from such a snapshot replays the
/// remaining cycles on bit-identical state, so the returned stats match an
/// uninterrupted run exactly. The snapshot is framed by the cell's `key`.
GpuRunStats RunCellCheckpointed(const SchemeSpec& scheme,
                                const WorkloadProfile& workload,
                                const SweepOptions& options,
                                const std::string& snap_path,
                                std::uint64_t key) {
  GpuSystem gpu(scheme.config, workload);
  std::uint8_t phase = kPhaseWarmup;
  Cycle done_in_phase = 0;
  if (options.resume && std::filesystem::exists(snap_path)) {
    const std::string payload = ReadSnapshotFile(snap_path, key);
    Deserializer d(payload);
    phase = d.U8();
    done_in_phase = d.U64();
    gpu.Load(d);
    d.Finish();
  }
  Cycle since_snapshot = 0;
  const auto maybe_snapshot = [&] {
    if (options.checkpoint_interval == 0) return;
    if (++since_snapshot < options.checkpoint_interval) return;
    since_snapshot = 0;
    Serializer s;
    s.U8(phase);
    s.U64(done_in_phase);
    gpu.Save(s);
    WriteSnapshotFile(snap_path, key, s.bytes());
  };
  if (phase == kPhaseWarmup) {
    while (done_in_phase < options.lengths.warmup) {
      gpu.Tick();
      ++done_in_phase;
      maybe_snapshot();
    }
    gpu.ResetStats();
    phase = kPhaseMeasure;
    done_in_phase = 0;
  }
  while (done_in_phase < options.lengths.measure) {
    gpu.Tick();
    ++done_in_phase;
    if (gpu.fabric().Deadlocked()) break;
    maybe_snapshot();
  }
  return gpu.Measure();
}

/// A cell's checkpoint file `<prefix><key in 16 hex digits><suffix>` in
/// `dir`.
std::string CellFile(const std::string& dir, const char* prefix,
                     std::uint64_t key, const char* suffix) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(key));
  return dir + '/' + prefix + hex + suffix;
}

}  // namespace

std::uint64_t CellKey(const GpuConfig& config, const WorkloadProfile& workload,
                      const RunLengths& lengths) {
  Serializer s;
  s.U64(GpuConfigFingerprint(config, workload));
  s.U64(lengths.warmup);
  s.U64(lengths.measure);
  return Fnv1a64(s.bytes());
}

void CheckSchemes(const std::vector<SchemeSpec>& schemes) {
  for (const SchemeSpec& scheme : schemes) {
    try {
      CheckGpuConfig(scheme.config);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scheme '" + scheme.label +
                                  "': " + e.what());
    }
  }
}

SweepResult RunSweep(const std::vector<SchemeSpec>& schemes,
                     const std::vector<WorkloadProfile>& workloads,
                     const SweepOptions& options) {
  CheckSchemes(schemes);
  std::vector<std::string> scheme_names;
  scheme_names.reserve(schemes.size());
  for (const auto& s : schemes) scheme_names.push_back(s.label);
  std::vector<std::string> workload_names;
  workload_names.reserve(workloads.size());
  for (const auto& w : workloads) workload_names.push_back(w.name);

  SweepResult result(std::move(scheme_names), std::move(workload_names));
  const std::vector<SweepCell> cells =
      EnumerateCells(schemes.size(), workloads.size());
  const int total = static_cast<int>(cells.size());

  // One run per distinct key, in definition order of its first cell; it
  // fills every slot with that key, so each checkpoint file has exactly
  // one writer.
  struct KeyedRun {
    std::uint64_t key = 0;
    std::vector<std::size_t> slots;  // indices into `cells`
  };
  std::vector<KeyedRun> runs;
  std::map<std::uint64_t, std::size_t> run_of_key;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t key =
        CellKey(schemes[cells[i].scheme].config,
                workloads[cells[i].workload], options.lengths);
    const auto [it, added] = run_of_key.emplace(key, runs.size());
    if (added) runs.push_back({key, {}});
    runs[it->second].slots.push_back(i);
  }

  // Checkpointing (off by default; the per-cell simulation path is then
  // exactly the original one).
  const std::string& dir = options.checkpoint_dir;
  if (!dir.empty()) std::filesystem::create_directories(dir);
  const auto run_one = [&](const KeyedRun& run) {
    const SweepCell& cell = cells[run.slots.front()];
    const SchemeSpec& scheme = schemes[cell.scheme];
    const WorkloadProfile& workload = workloads[cell.workload];
    if (dir.empty()) return RunCell(scheme, workload, options);
    const std::string snap_path = CellFile(dir, "snap_", run.key, ".ckpt");
    GpuRunStats stats =
        RunCellCheckpointed(scheme, workload, options, snap_path, run.key);
    Serializer s;
    Save(s, stats);
    WriteSnapshotFile(CellFile(dir, "cell_", run.key, ".bin"), run.key,
                      s.bytes());
    // The result file holds the cell now; its mid-run snapshot is stale.
    std::error_code ignored;
    std::filesystem::remove(snap_path, ignored);
    return stats;
  };
  // Fills the run's slots and reports each as *completed*, after the
  // cell's result (and any checkpoint file) has landed — a resumed or
  // crashed sweep never saw a cell claimed done that is not. Called under
  // `mu` once workers run.
  std::mutex mu;
  int done = 0;
  const auto commit = [&](const KeyedRun& run, const GpuRunStats& stats) {
    for (const std::size_t index : run.slots) {
      const std::string& label = schemes[cells[index].scheme].label;
      const std::string& name = workloads[cells[index].workload].name;
      result.Set(label, name, stats);
      ++done;
      if (options.progress) options.progress(label, name, done, total);
    }
  };

  // Finished cells load here, on the calling thread, so no worker reads a
  // result file; only the unfinished ones are queued.
  const bool resume = options.resume && !dir.empty();
  std::vector<const KeyedRun*> pending;
  for (const KeyedRun& run : runs) {
    const std::string path =
        resume ? CellFile(dir, "cell_", run.key, ".bin") : std::string();
    if (!resume || !std::filesystem::exists(path)) {
      pending.push_back(&run);
      continue;
    }
    const std::string payload = ReadSnapshotFile(path, run.key);
    Deserializer d(payload);
    GpuRunStats stats;
    Load(d, stats);
    d.Finish();
    commit(run, stats);
  }
  if (pending.empty()) return result;

  // One task per unfinished run, in definition order (one worker runs
  // them one after another). Runs write disjoint slots of the result
  // matrix. Once a cell or a progress call throws, no further cell starts.
  const unsigned requested = options.threads <= 0
                                 ? ThreadPool::DefaultThreads()
                                 : static_cast<unsigned>(options.threads);
  ThreadPool pool(
      std::min<unsigned>(requested, static_cast<unsigned>(pending.size())));
  std::atomic<bool> failed{false};
  for (const KeyedRun* run : pending) {
    pool.Submit([&, run] {
      // Held through the catch, so a progress call that throws sets
      // `failed` before another worker gets the lock: that worker's next
      // task sees it.
      std::unique_lock<std::mutex> lock(mu, std::defer_lock);
      try {
        if (failed) return;
        const GpuRunStats stats = run_one(*run);
        lock.lock();
        commit(*run, stats);
      } catch (...) {
        failed = true;
        throw;
      }
    });
  }
  pool.WaitAll();
  return result;
}

const std::vector<WorkloadProfile>& AllWorkloads() { return PaperWorkloads(); }

std::vector<WorkloadProfile> WorkloadSubset(
    const std::vector<std::string>& names) {
  std::vector<WorkloadProfile> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(FindWorkload(name));
  return out;
}

}  // namespace gnoc
