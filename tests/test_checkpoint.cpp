// Tests for the checkpoint/restore subsystem (DESIGN.md §10): GpuSystem
// snapshot round-trips, the hard bit-identical-resume guarantee across the
// (VC policy x routing x placement x scheduling) matrix, and crash-
// resumable sweeps over a directory of cell files (finished cells loaded,
// mid-sweep interruption, cells keyed by configuration and run lengths).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

/// Canonical byte image of measured stats — byte equality here is the
/// "bit-identical results" the checkpoint subsystem guarantees.
std::string StatsBytes(const GpuRunStats& stats) {
  Serializer s;
  Save(s, stats);
  return s.TakeBytes();
}

std::string SweepBytes(const SweepResult& result) {
  Serializer s;
  for (const CellResult& cell : result.Cells()) {
    s.Str(cell.scheme);
    s.Str(cell.workload);
    Save(s, cell.stats);
  }
  return s.TakeBytes();
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gnoc_checkpoint_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// `sub`/<prefix><CellKey in 16 hex digits><suffix>: where RunSweep
  /// keeps the cell (`scheme`, `workload`) at `lengths`.
  std::string CellPath(const std::string& sub, const SchemeSpec& scheme,
                       const WorkloadProfile& workload,
                       const RunLengths& lengths,
                       const char* prefix = "cell_",
                       const char* suffix = ".bin") const {
    char key[17];
    std::snprintf(key, sizeof key, "%016llx",
                  static_cast<unsigned long long>(
                      CellKey(scheme.config, workload, lengths)));
    return Path(sub + "/" + prefix + key + suffix);
  }

  /// The number of cell result files in `sub`.
  int CellFiles(const std::string& sub) const {
    int n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_ / sub)) {
      n += entry.path().filename().string().rfind("cell_", 0) == 0 ? 1 : 0;
    }
    return n;
  }

  std::filesystem::path dir_;
};

/// Replays GpuSystem::Run but snapshots mid-measurement and finishes the
/// run in a *second* system restored from the file. Returns the measured
/// stats of the resumed run.
GpuRunStats InterruptedRun(const GpuConfig& cfg, const WorkloadProfile& wl,
                           Cycle warmup, Cycle measure, Cycle snap_at,
                           const std::string& path) {
  {
    GpuSystem gpu(cfg, wl);
    for (Cycle c = 0; c < warmup; ++c) gpu.Tick();
    gpu.ResetStats();
    for (Cycle c = 0; c < snap_at; ++c) {
      gpu.Tick();
      if (gpu.fabric().Deadlocked()) break;
    }
    // A deadlock before the snapshot point ends the run outright (exactly
    // as GpuSystem::Run would); there is nothing left to resume.
    if (gpu.fabric().Deadlocked()) return gpu.Measure();
    gpu.SaveSnapshot(path);
    // The first system dies here — the crash.
  }
  GpuSystem resumed(cfg, wl);
  resumed.LoadSnapshot(path);
  for (Cycle c = snap_at; c < measure; ++c) {
    resumed.Tick();
    if (resumed.fabric().Deadlocked()) break;
  }
  return resumed.Measure();
}

TEST_F(CheckpointTest, SnapshotResumeIsBitIdenticalAcrossDesignMatrix) {
  // The matrix the paper sweeps: VC policy x routing x placement, plus both
  // scheduling modes. Each combination must resume bit-identically.
  struct Combo {
    VcPolicyKind policy;
    RoutingAlgorithm routing;
    McPlacement placement;
    SchedulingMode scheduling;
  };
  const std::vector<Combo> combos = {
      {VcPolicyKind::kSplit, RoutingAlgorithm::kXY, McPlacement::kBottom,
       SchedulingMode::kFull},
      {VcPolicyKind::kFullMonopolize, RoutingAlgorithm::kYX,
       McPlacement::kBottom, SchedulingMode::kFull},
      {VcPolicyKind::kPartialMonopolize, RoutingAlgorithm::kXYYX,
       McPlacement::kTopBottom, SchedulingMode::kSoa},
      {VcPolicyKind::kSplit, RoutingAlgorithm::kYX, McPlacement::kDiamond,
       SchedulingMode::kSoa},
  };
  const WorkloadProfile& wl = FindWorkload("BFS");
  const Cycle warmup = 200;
  const Cycle measure = 600;
  int i = 0;
  for (const Combo& combo : combos) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.vc_policy = combo.policy;
    cfg.routing = combo.routing;
    cfg.placement = combo.placement;
    cfg.scheduling = combo.scheduling;
    cfg.allow_unsafe = true;  // the matrix includes unsafe combinations

    GpuSystem straight(cfg, wl);
    const GpuRunStats want = straight.Run(warmup, measure);
    const GpuRunStats got =
        InterruptedRun(cfg, wl, warmup, measure, /*snap_at=*/measure / 3,
                       Path("combo_" + std::to_string(i++) + ".snap"));
    EXPECT_EQ(StatsBytes(got), StatsBytes(want))
        << "resume diverged for " << cfg.Describe();
  }
}

TEST_F(CheckpointTest, SnapshotWithAuditAndTelemetryRoundTrips) {
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.audit = true;
  cfg.telemetry = true;
  cfg.telemetry_interval = 50;
  const WorkloadProfile& wl = FindWorkload("KMN");

  GpuSystem straight(cfg, wl);
  const GpuRunStats want = straight.Run(150, 450);
  const GpuRunStats got =
      InterruptedRun(cfg, wl, 150, 450, /*snap_at=*/200, Path("at.snap"));
  EXPECT_EQ(StatsBytes(got), StatsBytes(want));
}

TEST_F(CheckpointTest, SnapshotDuringWarmupResumes) {
  // A crash before ResetStats must also resume exactly.
  GpuConfig cfg = GpuConfig::Baseline();
  const WorkloadProfile& wl = FindWorkload("BFS");
  const std::string path = Path("warm.snap");
  {
    GpuSystem gpu(cfg, wl);
    for (Cycle c = 0; c < 120; ++c) gpu.Tick();
    gpu.SaveSnapshot(path);
  }
  GpuSystem resumed(cfg, wl);
  resumed.LoadSnapshot(path);
  for (Cycle c = 120; c < 300; ++c) resumed.Tick();
  resumed.ResetStats();
  for (Cycle c = 0; c < 400; ++c) {
    resumed.Tick();
    if (resumed.fabric().Deadlocked()) break;
  }

  GpuSystem straight(cfg, wl);
  const GpuRunStats want = straight.Run(300, 400);
  EXPECT_EQ(StatsBytes(resumed.Measure()), StatsBytes(want));
}

TEST_F(CheckpointTest, SnapshotRejectsDifferentConfig) {
  const WorkloadProfile& wl = FindWorkload("BFS");
  GpuConfig cfg = GpuConfig::Baseline();
  GpuSystem gpu(cfg, wl);
  gpu.Run(50, 100);
  gpu.SaveSnapshot(Path("base.snap"));

  GpuConfig other = cfg;
  other.routing = RoutingAlgorithm::kYX;
  GpuSystem wrong(other, wl);
  EXPECT_THROW(wrong.LoadSnapshot(Path("base.snap")), SerializeError);

  // Different workload, same NoC config: also a different fingerprint.
  GpuSystem wrong_wl(cfg, FindWorkload("KMN"));
  EXPECT_THROW(wrong_wl.LoadSnapshot(Path("base.snap")), SerializeError);
}

TEST_F(CheckpointTest, FingerprintCoversConfigAndWorkload) {
  const WorkloadProfile& wl = FindWorkload("BFS");
  const GpuConfig base = GpuConfig::Baseline();
  GpuConfig tweaked = base;
  tweaked.vc_depth = base.vc_depth + 1;
  EXPECT_NE(GpuConfigFingerprint(base, wl), GpuConfigFingerprint(tweaked, wl));
  EXPECT_EQ(GpuConfigFingerprint(base, wl), GpuConfigFingerprint(base, wl));
  EXPECT_NE(GpuConfigFingerprint(base, wl),
            GpuConfigFingerprint(base, FindWorkload("KMN")));
}

/// A small 2-scheme x 2-workload sweep used by the RunSweep tests.
SweepOptions SmallSweepOptions() {
  SweepOptions options;
  options.lengths.warmup = 100;
  options.lengths.measure = 300;
  options.threads = 1;
  return options;
}

std::vector<SchemeSpec> SmallSchemes() {
  GpuConfig yx = GpuConfig::Baseline();
  yx.routing = RoutingAlgorithm::kYX;
  yx.vc_policy = VcPolicyKind::kFullMonopolize;
  return {{"baseline", GpuConfig::Baseline()}, {"proposed", yx}};
}

TEST_F(CheckpointTest, CheckpointedSweepMatchesPlainSweep) {
  const std::vector<SchemeSpec> schemes = SmallSchemes();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS", "KMN"});

  const SweepResult plain = RunSweep(schemes, workloads, SmallSweepOptions());

  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  ckpt.checkpoint_interval = 75;  // exercise mid-cell snapshot writes too
  const SweepResult checkpointed = RunSweep(schemes, workloads, ckpt);

  EXPECT_EQ(SweepBytes(checkpointed), SweepBytes(plain));
  for (const SweepCell& cell : EnumerateCells(2, 2)) {
    const SchemeSpec& scheme = schemes[cell.scheme];
    const WorkloadProfile& workload = workloads[cell.workload];
    EXPECT_TRUE(std::filesystem::exists(
        CellPath("sweep", scheme, workload, ckpt.lengths)));
    // Mid-run snapshots are dropped once their cell commits.
    EXPECT_FALSE(std::filesystem::exists(CellPath(
        "sweep", scheme, workload, ckpt.lengths, "snap_", ".ckpt")));
  }
  EXPECT_EQ(CellFiles("sweep"), 4);
}

/// Stats no simulation produces, written as the result file of
/// (`scheme`, `workload`) at `lengths` under its CellKey.
void DoctorCell(const std::string& path, const SchemeSpec& scheme,
                const WorkloadProfile& workload, const RunLengths& lengths) {
  GpuRunStats doctored;
  doctored.instructions = 12345;
  doctored.ipc = 42.0;
  Serializer s;
  Save(s, doctored);
  WriteSnapshotFile(path, CellKey(scheme.config, workload, lengths),
                    s.bytes());
}

TEST_F(CheckpointTest, ResumeLoadsCompletedCellsFromDisk) {
  const std::vector<SchemeSpec> schemes = SmallSchemes();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});

  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  RunSweep(schemes, workloads, ckpt);

  // Doctor cell 0's result file with sentinel stats. A resumed sweep must
  // *load* it (proving completed cells are never re-run), not recompute.
  DoctorCell(CellPath("sweep", schemes[0], workloads[0], ckpt.lengths),
             schemes[0], workloads[0], ckpt.lengths);

  ckpt.resume = true;
  const SweepResult resumed = RunSweep(schemes, workloads, ckpt);
  EXPECT_EQ(resumed.Get("baseline", "BFS").instructions, 12345u);
  EXPECT_EQ(resumed.Get("baseline", "BFS").ipc, 42.0);
}

TEST_F(CheckpointTest, InterruptedSweepResumesBitIdentically) {
  const std::vector<SchemeSpec> schemes = SmallSchemes();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS", "KMN"});

  const SweepResult plain = RunSweep(schemes, workloads, SmallSweepOptions());

  // First attempt dies (an exception stands in for SIGKILL) after two cells
  // have committed.
  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  ckpt.progress = [](const std::string&, const std::string&, int done, int) {
    if (done == 2) throw std::runtime_error("simulated crash");
  };
  EXPECT_THROW(RunSweep(schemes, workloads, ckpt), std::runtime_error);
  // Cells 0 and 1 (BFS under both schemes) committed; cell 2 never ran.
  EXPECT_TRUE(std::filesystem::exists(
      CellPath("sweep", schemes[0], workloads[0], ckpt.lengths)));
  EXPECT_TRUE(std::filesystem::exists(
      CellPath("sweep", schemes[1], workloads[0], ckpt.lengths)));
  EXPECT_FALSE(std::filesystem::exists(
      CellPath("sweep", schemes[0], workloads[1], ckpt.lengths)));

  // Second attempt resumes and must match the uninterrupted sweep exactly.
  ckpt.progress = nullptr;
  ckpt.resume = true;
  const SweepResult resumed = RunSweep(schemes, workloads, ckpt);
  EXPECT_EQ(SweepBytes(resumed), SweepBytes(plain));
}

TEST_F(CheckpointTest, ResumeInParallelMatchesSequential) {
  const std::vector<SchemeSpec> schemes = SmallSchemes();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS", "KMN"});

  const SweepResult plain = RunSweep(schemes, workloads, SmallSweepOptions());

  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  ckpt.progress = [](const std::string&, const std::string&, int done, int) {
    if (done == 1) throw std::runtime_error("simulated crash");
  };
  EXPECT_THROW(RunSweep(schemes, workloads, ckpt), std::runtime_error);

  ckpt.progress = nullptr;
  ckpt.resume = true;
  ckpt.threads = 4;  // resume on the parallel path
  const SweepResult resumed = RunSweep(schemes, workloads, ckpt);
  EXPECT_EQ(SweepBytes(resumed), SweepBytes(plain));
}

TEST_F(CheckpointTest, ResumeNeverLoadsCellsOfOtherRunLengths) {
  const std::vector<SchemeSpec> schemes = SmallSchemes();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});

  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  RunSweep(schemes, workloads, ckpt);
  DoctorCell(CellPath("sweep", schemes[0], workloads[0], ckpt.lengths),
             schemes[0], workloads[0], ckpt.lengths);

  // Same directory, different run lengths: every cell has another key, so
  // the doctored file of the old lengths is never mixed into the results.
  SweepOptions other = ckpt;
  other.resume = true;
  other.lengths.measure += 100;
  const SweepResult resumed = RunSweep(schemes, workloads, other);
  SweepOptions fresh = SmallSweepOptions();
  fresh.lengths = other.lengths;
  EXPECT_EQ(SweepBytes(resumed),
            SweepBytes(RunSweep(schemes, workloads, fresh)));
  EXPECT_NE(resumed.Get("baseline", "BFS").instructions, 12345u);
}

TEST_F(CheckpointTest, FreshRunClearsStaleCheckpointState) {
  const std::vector<SchemeSpec> schemes = SmallSchemes();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});

  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  RunSweep(schemes, workloads, ckpt);

  // resume=false (the default) starts over: every cell runs again, so a
  // stale (here doctored) result file is overwritten, never loaded, and
  // the sweep still produces the right answer.
  DoctorCell(CellPath("sweep", schemes[0], workloads[0], ckpt.lengths),
             schemes[0], workloads[0], ckpt.lengths);
  const SweepResult plain = RunSweep(schemes, workloads, SmallSweepOptions());
  const SweepResult rerun = RunSweep(schemes, workloads, ckpt);
  EXPECT_EQ(SweepBytes(rerun), SweepBytes(plain));
  ckpt.resume = true;
  EXPECT_EQ(SweepBytes(RunSweep(schemes, workloads, ckpt)), SweepBytes(plain));
}

TEST_F(CheckpointTest, CellKeySeparatesConfigurations) {
  const SchemeSpec scheme = SmallSchemes().front();
  const WorkloadProfile& workload = FindWorkload("BFS");
  const RunLengths lengths = SmallSweepOptions().lengths;
  const std::uint64_t base = CellKey(scheme.config, workload, lengths);

  RunLengths longer = lengths;
  longer.measure += 1;
  RunLengths warmer = lengths;
  warmer.warmup += 1;
  GpuConfig audited = scheme.config;
  audited.audit = true;
  GpuConfig full = scheme.config;
  full.scheduling = SchedulingMode::kFull;

  EXPECT_NE(base, CellKey(scheme.config, workload, longer));
  EXPECT_NE(base, CellKey(scheme.config, workload, warmer));
  EXPECT_NE(base, CellKey(audited, workload, lengths));
  EXPECT_NE(base, CellKey(full, workload, lengths));
  EXPECT_NE(base, CellKey(scheme.config, FindWorkload("KMN"), lengths));
  // Equal inputs, equal keys: the key is a pure function of the cell.
  EXPECT_EQ(base, CellKey(GpuConfig::Baseline(), workload, lengths));
}

TEST_F(CheckpointTest, TwoSweepsInOneDirectoryBothResume) {
  const std::vector<SchemeSpec> first = SmallSchemes();
  GpuConfig mono = GpuConfig::Baseline();
  mono.vc_policy = VcPolicyKind::kFullMonopolize;
  mono.routing = RoutingAlgorithm::kYX;
  mono.vc_depth = 8;
  const std::vector<SchemeSpec> second{{"deep mono", mono}};
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});

  SweepOptions ckpt = SmallSweepOptions();
  ckpt.checkpoint_dir = Path("sweep");
  RunSweep(first, workloads, ckpt);
  DoctorCell(CellPath("sweep", first[0], workloads[0], ckpt.lengths),
             first[0], workloads[0], ckpt.lengths);
  const SweepResult second_plain =
      RunSweep(second, workloads, SmallSweepOptions());
  EXPECT_EQ(SweepBytes(RunSweep(second, workloads, ckpt)),
            SweepBytes(second_plain));
  EXPECT_EQ(CellFiles("sweep"), 3);

  // Both sweeps resume from the one directory: the first loads its
  // doctored cell, the second its own cell.
  ckpt.resume = true;
  const SweepResult first_resumed = RunSweep(first, workloads, ckpt);
  EXPECT_EQ(first_resumed.Get("baseline", "BFS").instructions, 12345u);
  EXPECT_EQ(SweepBytes(RunSweep(second, workloads, ckpt)),
            SweepBytes(second_plain));
}

TEST_F(CheckpointTest, CellsSharingAKeyRunOnceAndFillEverySlot) {
  const SchemeSpec scheme = SmallSchemes().front();
  const std::vector<SchemeSpec> twins{{"one", scheme.config},
                                      {"two", scheme.config}};
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});
  const SweepResult plain = RunSweep({scheme}, workloads, SmallSweepOptions());

  for (const int threads : {1, 4}) {
    const std::string sub = "sweep" + std::to_string(threads);
    SweepOptions ckpt = SmallSweepOptions();
    ckpt.checkpoint_dir = Path(sub);
    ckpt.threads = threads;
    int progress_calls = 0;
    ckpt.progress = [&progress_calls](const std::string&, const std::string&,
                                      int done, int total) {
      EXPECT_EQ(done, ++progress_calls);
      EXPECT_EQ(total, 2);
    };
    const SweepResult result = RunSweep(twins, workloads, ckpt);
    EXPECT_EQ(progress_calls, 2) << "threads=" << threads;
    EXPECT_EQ(CellFiles(sub), 1) << "threads=" << threads;
    EXPECT_EQ(StatsBytes(result.Get("one", "BFS")),
              StatsBytes(plain.Get("baseline", "BFS")))
        << "threads=" << threads;
    EXPECT_EQ(StatsBytes(result.Get("two", "BFS")),
              StatsBytes(plain.Get("baseline", "BFS")))
        << "threads=" << threads;
  }
}

// --- The v5 byte pin -------------------------------------------------------
//
// FNV-1a hashes of format-v5 snapshot payloads, recorded from a build whose
// Save and Load were written separately per component; Debug and Release
// builds give the same bytes. A failure here means the snapshot layout
// moved: restore it, or bump kSnapshotFormatVersion and re-pin on purpose.

/// A Baseline GpuConfig with `overrides` ("key=value ..." as on a command
/// line; repeated keys such as qos_class= keep every occurrence).
GpuConfig PinnedConfig(const std::string& overrides) {
  GpuConfig cfg = GpuConfig::Baseline();
  // The pins were recorded under full scheduling, and a payload differs by
  // mode: it carries tick_steps_ and output VCs soa has not yet recycled.
  cfg.scheduling = SchedulingMode::kFull;
  cfg.ApplyOverrides(Config::FromString(overrides));
  return cfg;
}

/// Ticks `gpu` through 120 warm-up and 180 measured cycles and returns its
/// Save payload.
std::string MidRunPayload(GpuSystem& gpu) {
  for (Cycle c = 0; c < 120; ++c) gpu.Tick();
  gpu.ResetStats();
  for (Cycle c = 0; c < 180; ++c) gpu.Tick();
  Serializer s;
  gpu.Save(s);
  return s.TakeBytes();
}

struct PinCase {
  const char* overrides;
  std::uint64_t payload_hash;
};

const PinCase kPinCases[] = {
    {"audit=true telemetry=true telemetry_interval=40", 0x6e6074f0cac52392ull},
    // Re-pinned when blocked routers and NICs began to sleep, and again
    // when a router could fall asleep on a visit that granted or recycled
    // an output VC: each time the payload differs from the old one only in
    // tick_steps_ (46,865 -> 27,709 -> 27,158 soa visits).
    {"scheduling=soa", 0x3a4486af5b12f22dull},
    {"topology=torus num_vcs=4 qos=strict "
     "qos_class=critical,prio=2,rate=0.5,burst=8,vcs=1,p99=300 "
     "qos_class=bulk,prio=1",
     0x65af17ba66e07580ull},
    {"topology=cmesh", 0x70bf056ae66e6820ull},
    {"vc_policy=dynamic routing=xy-yx dynamic_epoch=64", 0x4a7bb06538de5f3cull},
    {"division=physical num_vcs=4", 0xcf036f23b8742231ull},
    {"ideal_noc=true", 0xf07322dfebfedee4ull},
    {"record_trace=true real_l1=true mc_scheduler=fr-fcfs arbiter=matrix",
     0x5d38f798ba6acbfcull},
    {"topology=circulant num_vcs=4 qos=wrr qos_class=request,prio=3 "
     "qos_class=reply,prio=1 audit=true telemetry=true telemetry_interval=40",
     0x298aacbcd0919c15ull},
};

TEST(SnapshotPinTest, MidRunPayloadsKeepTheirV5Bytes) {
  for (const PinCase& pin : kPinCases) {
    const GpuConfig cfg = PinnedConfig(pin.overrides);
    GpuSystem gpu(cfg, FindWorkload("KMN"));
    const std::string payload = MidRunPayload(gpu);
    EXPECT_EQ(Fnv1a64(payload), pin.payload_hash)
        << std::hex << "0x" << Fnv1a64(payload) << " for " << pin.overrides;

    // Save -> Load -> Save reproduces the payload exactly.
    GpuSystem reloaded(cfg, FindWorkload("KMN"));
    Deserializer d(payload);
    reloaded.Load(d);
    d.Finish();
    Serializer again;
    reloaded.Save(again);
    EXPECT_TRUE(again.bytes() == payload) << pin.overrides;
  }
}

TEST(SnapshotPinTest, MeasuredStatsKeepTheirV5Bytes) {
  GpuSystem gpu(PinnedConfig(kPinCases[8].overrides), FindWorkload("KMN"));
  const std::string bytes = StatsBytes(gpu.Run(120, 180));
  EXPECT_EQ(Fnv1a64(bytes), 0x6eb798f298a0d714ull)
      << std::hex << "0x" << Fnv1a64(bytes);
}

// A QoS report whose classes differ in every spec field and counter, so a
// class walk that reorders two fields of one type moves the bytes. (The
// measured-stats pin above cannot see that: its classes set only their
// priorities, leaving rate and p99_target, burst and reserved_vcs equal
// zeros.)
TEST(SnapshotPinTest, QosReportKeepsItsV5Bytes) {
  QosReport report;
  report.enabled = true;
  report.arbitration = QosArbitration::kWrr;
  QosClassReport& critical = report.classes[0];
  critical.name = "critical";
  critical.priority = 3;
  critical.rate = 0.25;
  critical.burst = 8;
  critical.reserved_vcs = 1;
  critical.p99_target = 300.0;
  critical.throttle_cycles = 17;
  critical.packets_delivered = 4096;
  critical.p99_latency = 212.5;
  critical.slo_windows = 40;
  critical.slo_violation_windows = 3;
  critical.slo_time_in_violation = 120;
  QosClassReport& bulk = report.classes[1];
  bulk.name = "bulk";
  bulk.priority = 1;
  bulk.rate = 0.75;
  bulk.burst = 2;
  bulk.reserved_vcs = 5;
  bulk.p99_target = 900.0;
  bulk.throttle_cycles = 333;
  bulk.packets_delivered = 1024;
  bulk.p99_latency = 640.0;
  bulk.slo_windows = 38;
  bulk.slo_violation_windows = 11;
  bulk.slo_time_in_violation = 440;
  Serializer s;
  report.Save(s);
  EXPECT_EQ(Fnv1a64(s.bytes()), 0xea105ef4c7f686a5ull)
      << std::hex << "0x" << Fnv1a64(s.bytes());
}

// Seeded single-byte patches of a mid-run payload: every Load + Finish
// either succeeds or throws SerializeError. A patched count must not make
// Load allocate whatever the file says (std::length_error, std::bad_alloc),
// and the sanitizer builds hold every load to no undefined behaviour.
TEST(SnapshotMutationTest, PatchedPayloadsLoadOrThrowSerializeError) {
  const GpuConfig cfg = PinnedConfig(
      "width=4 height=4 num_mcs=4 num_vcs=4 audit=true telemetry=true "
      "telemetry_interval=10 qos=strict "
      "qos_class=critical,prio=2,rate=0.5,burst=8,vcs=1,p99=300 "
      "qos_class=bulk,prio=1");
  const WorkloadProfile& wl = FindWorkload("KMN");
  GpuSystem gpu(cfg, wl);
  const std::string payload = MidRunPayload(gpu);
  Rng rng(20261017);
  int refused = 0;
  std::vector<std::string> other;
  for (int i = 0; i < 2000; ++i) {
    std::string patched = payload;
    const std::size_t at = rng.NextBounded(patched.size());
    patched[at] = static_cast<char>(patched[at] ^ (1 + rng.NextBounded(255)));
    Deserializer d(patched);
    try {
      gpu.Load(d);
      d.Finish();
    } catch (const SerializeError&) {
      ++refused;
    } catch (const std::exception& e) {
      other.push_back("offset " + std::to_string(at) + ": " + e.what());
    }
  }
  EXPECT_TRUE(other.empty()) << other.size() << " patch(es) threw another "
                             << "exception, first: " << other.front();
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace gnoc
