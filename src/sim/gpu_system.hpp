// The assembled GPGPU: 56 SMs + 8 MCs on an 8x8 mesh NoC (Table 2),
// running one synthetic workload profile.
//
// This is the top-level object the examples and benchmark harnesses drive:
//
//   GpuConfig cfg = GpuConfig::Baseline();
//   GpuSystem gpu(cfg, FindWorkload("BFS"));
//   gpu.Run(/*warmup=*/2000, /*measure=*/10000);
//   std::cout << gpu.Ipc();
#pragma once

#include <memory>
#include <vector>

#include "gpgpu/mc.hpp"
#include "gpgpu/sm.hpp"
#include "gpgpu/workload.hpp"
#include "noc/deadlock.hpp"
#include "noc/fabric.hpp"
#include "noc/network.hpp"
#include "noc/trace.hpp"
#include "noc/placement.hpp"
#include "sim/gpu_config.hpp"

namespace gnoc {

/// Measurement results of one run (collected after warm-up).
struct GpuRunStats {
  double ipc = 0.0;  ///< issued warp instructions per cycle (whole chip)
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  NetworkSummary network;
  /// Injected packets per type, summed over all NICs.
  std::array<std::uint64_t, kNumPacketTypes> packets_by_type{};
  /// Flits injected per class.
  std::uint64_t request_flits = 0;
  std::uint64_t reply_flits = 0;
  double l2_miss_rate = 0.0;
  double dram_row_hit_rate = 0.0;
  double avg_read_latency = 0.0;  ///< SM-observed round trip
  bool deadlocked = false;
  /// Invariant-audit outcome (enabled == false unless GpuConfig::audit).
  /// Cumulative over the whole run, including warm-up: a protocol
  /// violation before ResetStats is still a violation.
  AuditReport audit;
  /// Telemetry snapshot (enabled == false unless GpuConfig::telemetry).
  /// Windows span the whole run timeline, warm-up included — telemetry is
  /// precisely the tool for *seeing* the warm-up transient.
  TelemetryReport telemetry;
  /// QoS outcome (enabled == false unless GpuConfig::qos configures any
  /// class): per-class delivery, throttling and SLO verdicts.
  QosReport qos;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.ipc);
    Io(ar, self.cycles);
    Io(ar, self.instructions);
    Io(ar, self.network);
    Io(ar, self.packets_by_type);
    Io(ar, self.request_flits);
    Io(ar, self.reply_flits);
    Io(ar, self.l2_miss_rate);
    Io(ar, self.dram_row_hit_rate);
    Io(ar, self.avg_read_latency);
    Io(ar, self.deadlocked);
    Io(ar, self.audit);
    Io(ar, self.telemetry);
    Io(ar, self.qos);
  }
};

/// Serialization of measured results (checkpoint cell files).
void Save(Serializer& s, const GpuRunStats& stats);
void Load(Deserializer& d, GpuRunStats& stats);

/// Canonical fingerprint of a (configuration, workload) pair: FNV-1a over
/// every field but the inherited deadlock_threshold, in a fixed order.
/// Snapshot files carry this value and refuse to load under a different
/// configuration (see common/serialize.hpp).
std::uint64_t GpuConfigFingerprint(const GpuConfig& config,
                                   const WorkloadProfile& workload);

/// Throws std::invalid_argument when no GpuSystem can be built from
/// `config`: its tile plan (TilePlan), then, unless the NoC is ideal (no
/// network, nothing more to check), its topology, CheckNetworkConfig on the
/// DivisionConfig its networks are built from, and protocol-deadlock safety
/// with its QoS reservations (ValidatePolicyOrThrow). The one statement of
/// what can be built: GpuSystem, RunSweep and the DSE screen all call it.
void CheckGpuConfig(const GpuConfig& config);

class GpuSystem {
 public:
  /// Builds the system. Throws what CheckGpuConfig throws.
  GpuSystem(const GpuConfig& config, const WorkloadProfile& workload);

  GpuSystem(const GpuSystem&) = delete;
  GpuSystem& operator=(const GpuSystem&) = delete;

  const GpuConfig& config() const { return config_; }
  const WorkloadProfile& workload() const { return workload_; }
  const TilePlan& plan() const { return plan_; }
  /// The transport: a NetworkFabric of one or two physical networks (per
  /// config().division), or the IdealFabric when config().ideal_noc is
  /// set. With config().record_trace it appends every accepted injection
  /// to trace().
  Fabric& fabric() { return *fabric_; }
  const Fabric& fabric() const { return *fabric_; }

  /// The recorded injection trace, or nullptr when recording is off.
  const TraceWriter* trace() const { return trace_.get(); }
  /// The physical network carrying request traffic (the only network under
  /// virtual division) — convenience for link-level introspection.
  Network& network() { return fabric_->net(TrafficClass::kRequest); }
  const Network& network() const {
    return fabric_->net(TrafficClass::kRequest);
  }

  /// Advances one cycle (SMs issue, MCs service, network moves flits).
  void Tick();

  /// Runs `warmup` cycles, resets statistics, then runs `measure` cycles.
  /// Returns the measured statistics (also available via Measure()).
  GpuRunStats Run(Cycle warmup, Cycle measure);

  /// Collects statistics for the cycles elapsed since the last ResetStats.
  GpuRunStats Measure() const;

  /// Clears every statistics counter (simulation state is untouched).
  void ResetStats();

  Cycle now() const { return fabric_->now(); }

  /// Fingerprint of this system's (config, workload) pair.
  std::uint64_t Fingerprint() const {
    return GpuConfigFingerprint(config_, workload_);
  }

  /// Snapshot support (DESIGN.md §10): the fabric (routers, NICs,
  /// channels, auditor, telemetry), then the recorded trace when
  /// config().record_trace is set, then the SMs, MCs and the measurement
  /// epoch. Wiring (sinks, MC node lists, link modes, the trace hook) is
  /// construction-derived and reapplied, not serialized. Loading into a
  /// system built from a different configuration is undefined — use the
  /// snapshot-file API below, which checks the fingerprint.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

  /// Writes/reads a framed snapshot file (magic + version + fingerprint +
  /// CRC; see common/serialize.hpp). LoadSnapshot throws SerializeError on
  /// corruption or a fingerprint mismatch.
  void SaveSnapshot(const std::string& path) const;
  void LoadSnapshot(const std::string& path);

  /// Access to individual models (tests, detailed analysis).
  const StreamingMultiprocessor& sm(std::size_t i) const { return *sms_.at(i); }
  std::size_t num_sms() const { return sms_.size(); }
  const MemoryController& mc(std::size_t i) const { return *mcs_.at(i); }
  std::size_t num_mcs() const { return mcs_.size(); }

 private:
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.fabric_);
    if (self.trace_ != nullptr) Io(ar, self.trace_);
    IoEach(ar, self.sms_);
    IoEach(ar, self.mcs_);
    Io(ar, self.measured_since_);
  }

  GpuConfig config_;
  WorkloadProfile workload_;
  TilePlan plan_;
  std::unique_ptr<TraceWriter> trace_;  ///< when config_.record_trace
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<StreamingMultiprocessor>> sms_;
  std::vector<std::unique_ptr<MemoryController>> mcs_;
  Cycle measured_since_ = 0;
};

}  // namespace gnoc
