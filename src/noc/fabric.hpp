// Fabric: the transport abstraction the GPGPU endpoints talk to.
//
// The paper's Sec. 4.2 ("Impact of Network Division") compares two ways of
// keeping request and reply traffic protocol-deadlock free:
//
//   * a single physical network whose VCs are divided into two virtual
//     networks (the design the paper adopts), and
//   * two parallel physical networks, one per traffic class (prior work
//     [11]) — roughly twice the router/wire cost.
//
// They observe the virtual division performs within 0.03% of the physical
// one. `SingleNetworkFabric` and `DualNetworkFabric` reproduce exactly this
// comparison: the dual fabric gives each class its own mesh with half the
// VCs per port (equal total buffering), while the single fabric shares one
// mesh under a VC policy.
#pragma once

#include <array>
#include <memory>

#include "common/types.hpp"
#include "noc/network.hpp"

namespace gnoc {

/// Everything a finished (or paused) run reports about its transport, in
/// one value: the invariant-audit verdict, the telemetry snapshot and the
/// QoS outcome. Collected by Fabric::CollectRunReport in a single sweep so
/// callers stop stitching per-subsystem collectors together; sections for
/// disabled subsystems carry their default (disabled) values.
struct RunReport {
  AuditReport audit;
  TelemetryReport telemetry;
  QosReport qos;
};

/// Transport interface used by SMs and MCs.
class Fabric {
 public:
  virtual ~Fabric() = default;

  virtual bool Inject(Packet packet) = 0;
  virtual bool CanInject(NodeId node, TrafficClass cls) const = 0;
  /// Registers `sink` for every class arriving at `node`.
  virtual void SetSink(NodeId node, PacketSink* sink) = 0;
  virtual void Tick() = 0;
  virtual Cycle now() const = 0;
  virtual bool Deadlocked() const = 0;
  virtual std::size_t FlitsInFlight() const = 0;
  virtual NetworkSummary Summarize() const = 0;
  virtual void ResetStats() = 0;
  /// Injected packets per PacketType, summed over all NICs.
  virtual std::array<std::uint64_t, kNumPacketTypes> PacketsByType() const = 0;

  /// The merged run report of the underlying networks: audit verdict,
  /// telemetry snapshot and QoS outcome in one sweep (sections default to
  /// their disabled values when the subsystem is off). Dual fabrics prefix
  /// telemetry entities "req:" / "rep:" and sum QoS counters.
  virtual RunReport CollectRunReport() const = 0;

  /// Snapshot support (DESIGN.md §10): serializes the full transport state
  /// so a run can resume bit-identically. Load requires a fabric built from
  /// the same configuration (wiring is construction-derived).
  virtual void Save(Serializer& s) const = 0;
  virtual void Load(Deserializer& d) = 0;

  /// Number of physical networks (1 or 2).
  virtual int num_networks() const = 0;
  /// The physical network carrying `cls` traffic.
  virtual Network& net(TrafficClass cls) = 0;
  virtual const Network& net(TrafficClass cls) const = 0;
};

/// One physical network; classes separated by the configured VC policy.
class SingleNetworkFabric final : public Fabric {
 public:
  explicit SingleNetworkFabric(const NetworkConfig& config);

  bool Inject(Packet packet) override;
  bool CanInject(NodeId node, TrafficClass cls) const override;
  void SetSink(NodeId node, PacketSink* sink) override;
  void Tick() override;
  Cycle now() const override;
  bool Deadlocked() const override;
  std::size_t FlitsInFlight() const override;
  NetworkSummary Summarize() const override;
  void ResetStats() override;
  std::array<std::uint64_t, kNumPacketTypes> PacketsByType() const override;
  RunReport CollectRunReport() const override {
    return RunReport{network_.AuditResults(), network_.TelemetryResults(),
                     network_.QosResults()};
  }
  void Save(Serializer& s) const override { network_.Save(s); }
  void Load(Deserializer& d) override { network_.Load(d); }
  int num_networks() const override { return 1; }
  Network& net(TrafficClass) override { return network_; }
  const Network& net(TrafficClass) const override { return network_; }

 private:
  Network network_;
};

/// Two parallel physical networks, one per class. Each network receives
/// half the per-port VCs (minimum 1) and runs fully monopolized internally
/// (it only ever sees one class). Roughly double the router/wire cost —
/// the alternative the paper argues against.
class DualNetworkFabric final : public Fabric {
 public:
  /// `config` describes the equivalent single network; each physical
  /// network gets num_vcs/2 VCs (>= 1).
  explicit DualNetworkFabric(const NetworkConfig& config);

  bool Inject(Packet packet) override;
  bool CanInject(NodeId node, TrafficClass cls) const override;
  void SetSink(NodeId node, PacketSink* sink) override;
  void Tick() override;
  Cycle now() const override;
  bool Deadlocked() const override;
  std::size_t FlitsInFlight() const override;
  NetworkSummary Summarize() const override;
  void ResetStats() override;
  std::array<std::uint64_t, kNumPacketTypes> PacketsByType() const override;
  RunReport CollectRunReport() const override {
    RunReport report;
    report.audit = nets_[0]->AuditResults();
    report.audit.Merge(nets_[1]->AuditResults());
    report.telemetry.Merge(
        nets_[ClassIndex(TrafficClass::kRequest)]->TelemetryResults(), "req:");
    report.telemetry.Merge(
        nets_[ClassIndex(TrafficClass::kReply)]->TelemetryResults(), "rep:");
    report.qos = nets_[0]->QosResults();
    report.qos.Merge(nets_[1]->QosResults());
    return report;
  }
  void Save(Serializer& s) const override { Io(s, nets_); }
  void Load(Deserializer& d) override { Io(d, nets_); }
  int num_networks() const override { return 2; }
  Network& net(TrafficClass cls) override {
    return *nets_[static_cast<std::size_t>(ClassIndex(cls))];
  }
  const Network& net(TrafficClass cls) const override {
    return *nets_[static_cast<std::size_t>(ClassIndex(cls))];
  }

 private:
  std::array<std::unique_ptr<Network>, kNumClasses> nets_;
};

}  // namespace gnoc
