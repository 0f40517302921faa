#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
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
/// uninterrupted run exactly.
GpuRunStats RunCellCheckpointed(const SchemeSpec& scheme,
                                const WorkloadProfile& workload,
                                const SweepOptions& options,
                                const std::string& snap_path,
                                std::uint64_t cell_fingerprint) {
  GpuSystem gpu(scheme.config, workload);
  std::uint8_t phase = kPhaseWarmup;
  Cycle done_in_phase = 0;
  if (options.resume && std::filesystem::exists(snap_path)) {
    const std::string payload = ReadSnapshotFile(snap_path, cell_fingerprint);
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
    WriteSnapshotFile(snap_path, cell_fingerprint, s.bytes());
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

/// Crash-resume state of one sweep: the manifest (which cells are done),
/// per-cell result files and mid-cell snapshots, all under one directory
/// and all stamped with the sweep fingerprint.
class SweepCheckpoint {
 public:
  SweepCheckpoint(std::string dir, std::uint64_t fingerprint,
                  std::size_t total, bool resume)
      : dir_(std::move(dir)), fingerprint_(fingerprint), done_(total, false) {
    std::filesystem::create_directories(dir_);
    const std::string manifest = ManifestPath();
    if (resume && std::filesystem::exists(manifest)) {
      LoadManifest(manifest);
    } else {
      Clear();
      WriteManifest();
    }
  }

  bool IsDone(std::size_t cell) const { return done_.at(cell); }

  /// Reads the stats of a completed cell back from its result file.
  GpuRunStats LoadResult(std::size_t cell, std::uint64_t cell_fingerprint) {
    const std::string payload =
        ReadSnapshotFile(CellPath(cell), cell_fingerprint);
    Deserializer d(payload);
    GpuRunStats stats;
    Load(d, stats);
    d.Finish();
    return stats;
  }

  /// Persists a finished cell: result file first, then the manifest entry
  /// (so a crash between the two just redoes the cell), then the now-
  /// obsolete mid-run snapshot is dropped. Thread-safe.
  void CommitCell(std::size_t cell, const GpuRunStats& stats,
                  std::uint64_t cell_fingerprint) {
    Serializer s;
    Save(s, stats);
    WriteSnapshotFile(CellPath(cell), cell_fingerprint, s.bytes());
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_.at(cell) = true;
      WriteManifest();
    }
    std::error_code ignored;
    std::filesystem::remove(SnapPath(cell), ignored);
  }

  std::string CellPath(std::size_t cell) const {
    return dir_ + "/cell_" + std::to_string(cell) + ".bin";
  }
  std::string SnapPath(std::size_t cell) const {
    return dir_ + "/snap_" + std::to_string(cell) + ".ckpt";
  }

 private:
  std::string ManifestPath() const { return dir_ + "/manifest.json"; }

  static std::string ToHex(std::uint64_t v) {
    std::ostringstream oss;
    oss << std::hex << v;
    return oss.str();
  }

  void LoadManifest(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue manifest;
    try {
      manifest = JsonValue::Parse(text.str());
    } catch (const std::invalid_argument& e) {
      throw SerializeError("checkpoint manifest '" + path +
                           "' is corrupt: " + e.what() +
                           "; delete the checkpoint directory to start over");
    }
    const std::string written = manifest.At("fingerprint").AsString();
    if (written != ToHex(fingerprint_)) {
      throw SerializeError(
          "checkpoint directory '" + dir_ +
          "' was written by a different sweep configuration (fingerprint " +
          written + ", expected " + ToHex(fingerprint_) +
          "); delete it or point checkpoint_dir elsewhere");
    }
    if (static_cast<std::size_t>(manifest.At("total").AsNumber()) !=
        done_.size()) {
      throw SerializeError("checkpoint manifest '" + path +
                           "' cell count does not match this sweep");
    }
    for (const JsonValue& v : manifest.At("completed").AsArray()) {
      const auto cell = static_cast<std::size_t>(v.AsNumber());
      if (cell >= done_.size()) {
        throw SerializeError("checkpoint manifest '" + path +
                             "' lists out-of-range cell " +
                             std::to_string(cell));
      }
      done_[cell] = true;
    }
  }

  /// Atomically rewrites the manifest (temp file + rename) so a reader —
  /// including a resuming run — never sees a partial document.
  void WriteManifest() const {
    std::ostringstream out;
    JsonWriter w(out);
    w.BeginObject();
    w.Key("format").Value(static_cast<std::int64_t>(1));
    w.Key("fingerprint").Value(ToHex(fingerprint_));
    w.Key("total").Value(static_cast<std::uint64_t>(done_.size()));
    w.Key("completed").BeginArray();
    for (std::size_t i = 0; i < done_.size(); ++i) {
      if (done_[i]) w.Value(static_cast<std::uint64_t>(i));
    }
    w.EndArray();
    w.EndObject();
    AtomicWriteFile(ManifestPath(), out.str());
  }

  /// Drops stale checkpoint files (fresh start or resume=false).
  void Clear() {
    for (std::size_t i = 0; i < done_.size(); ++i) {
      std::error_code ignored;
      std::filesystem::remove(CellPath(i), ignored);
      std::filesystem::remove(SnapPath(i), ignored);
    }
  }

  mutable std::mutex mu_;
  std::string dir_;
  std::uint64_t fingerprint_;
  std::vector<bool> done_;
};

}  // namespace

std::uint64_t SweepFingerprint(const std::vector<SchemeSpec>& schemes,
                               const std::vector<WorkloadProfile>& workloads,
                               const SweepOptions& options) {
  Serializer s;
  s.U64(options.lengths.warmup);
  s.U64(options.lengths.measure);
  s.U64(schemes.size());
  s.U64(workloads.size());
  for (const SchemeSpec& scheme : schemes) {
    s.Str(scheme.label);
    for (const WorkloadProfile& w : workloads) {
      s.U64(GpuConfigFingerprint(scheme.config, w));
    }
  }
  return Fnv1a64(s.bytes());
}

SweepResult RunSweep(const std::vector<SchemeSpec>& schemes,
                     const std::vector<WorkloadProfile>& workloads,
                     const SweepOptions& options) {
  for (const SchemeSpec& scheme : schemes) {
    try {
      CheckGpuConfig(scheme.config);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scheme '" + scheme.label +
                                  "': " + e.what());
    }
  }
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

  // Checkpointing (off by default; the per-cell simulation path is then
  // exactly the original one).
  std::unique_ptr<SweepCheckpoint> checkpoint;
  std::vector<std::uint64_t> cell_fingerprints(cells.size(), 0);
  if (!options.checkpoint_dir.empty()) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cell_fingerprints[i] = GpuConfigFingerprint(
          schemes[cells[i].scheme].config, workloads[cells[i].workload]);
    }
    checkpoint = std::make_unique<SweepCheckpoint>(
        options.checkpoint_dir, SweepFingerprint(schemes, workloads, options),
        cells.size(), options.resume);
  }
  const auto run_one = [&](std::size_t index) {
    const SweepCell& cell = cells[index];
    const SchemeSpec& scheme = schemes[cell.scheme];
    const WorkloadProfile& workload = workloads[cell.workload];
    if (checkpoint == nullptr) return RunCell(scheme, workload, options);
    GpuRunStats stats = RunCellCheckpointed(scheme, workload, options,
                                            checkpoint->SnapPath(index),
                                            cell_fingerprints[index]);
    checkpoint->CommitCell(index, stats, cell_fingerprints[index]);
    return stats;
  };
  // Fills cell `index`'s slot and reports the *completed* count, after the
  // cell's result (and any checkpoint commit) has landed — a resumed or
  // crashed sweep never saw a cell claimed done that is not. Called under
  // `mu` once workers run.
  std::mutex mu;
  int done = 0;
  const auto commit = [&](std::size_t index, const GpuRunStats& stats) {
    const std::string& label = schemes[cells[index].scheme].label;
    const std::string& name = workloads[cells[index].workload].name;
    result.Set(label, name, stats);
    ++done;
    if (options.progress) options.progress(label, name, done, total);
  };

  // Completed cells load here, on the calling thread, so no worker reads
  // the checkpoint's record of them; only the unfinished ones are queued.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (checkpoint != nullptr && checkpoint->IsDone(i)) {
      commit(i, checkpoint->LoadResult(i, cell_fingerprints[i]));
    } else {
      pending.push_back(i);
    }
  }
  if (pending.empty()) return result;

  // One task per unfinished cell, in definition order (one worker runs
  // them one after another). Cells write disjoint slots of the result
  // matrix. Once a cell or a progress call throws, no further cell starts.
  const unsigned requested = options.threads <= 0
                                 ? ThreadPool::DefaultThreads()
                                 : static_cast<unsigned>(options.threads);
  ThreadPool pool(
      std::min<unsigned>(requested, static_cast<unsigned>(pending.size())));
  std::atomic<bool> failed{false};
  for (const std::size_t i : pending) {
    pool.Submit([&, i] {
      // Held through the catch, so a progress call that throws sets
      // `failed` before another worker gets the lock: that worker's next
      // task sees it.
      std::unique_lock<std::mutex> lock(mu, std::defer_lock);
      try {
        if (failed) return;
        const GpuRunStats stats = run_one(i);
        lock.lock();
        commit(i, stats);
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
