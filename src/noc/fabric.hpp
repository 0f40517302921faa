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
// one. `NetworkFabric` reproduces exactly this comparison: physical
// division gives each class its own mesh with half the VCs per port (equal
// total buffering), virtual division shares one mesh under a VC policy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "noc/network.hpp"

namespace gnoc {

class TraceWriter;

/// How the request/reply classes are separated (paper Sec. 4.2, "Impact of
/// Network Division"): one physical network with VCs divided virtually (the
/// paper's choice) or two parallel physical networks (prior work [11]).
enum class NetworkDivision : std::uint8_t {
  kVirtual = 0,
  kPhysical = 1,
};

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
  /// their disabled values when the subsystem is off). Two physical
  /// networks prefix telemetry entities "req:" / "rep:" and sum QoS
  /// counters.
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

/// The configuration every network of `division` is built from: `config`
/// itself under virtual division; under physical division each class's own
/// network, with half the per-port VCs (minimum 1) and fully monopolized
/// internally (it only ever sees one class).
NetworkConfig DivisionConfig(const NetworkConfig& config,
                             NetworkDivision division);

/// The physical networks of one network division, each built from
/// DivisionConfig. Virtual division is one network whose VC policy
/// separates the classes. Physical division is one network per class:
/// roughly double the router/wire cost, the alternative the paper argues
/// against. Every method walks the networks in class order, request first.
class NetworkFabric final : public Fabric {
 public:
  /// `config` describes the one network of virtual division.
  explicit NetworkFabric(const NetworkConfig& config,
                         NetworkDivision division = NetworkDivision::kVirtual);

  /// Appends every accepted injection to `trace` (not owned; nullptr, the
  /// default, records nothing).
  void SetTrace(TraceWriter* trace) { trace_ = trace; }

  bool Inject(Packet packet) override;
  bool CanInject(NodeId node, TrafficClass cls) const override {
    return net(cls).CanInject(node, cls);
  }
  void SetSink(NodeId node, PacketSink* sink) override {
    for (auto& net : nets_) net->SetSink(node, sink);
  }
  void Tick() override {
    for (auto& net : nets_) net->Tick();
  }
  Cycle now() const override { return nets_[0]->now(); }
  bool Deadlocked() const override;
  std::size_t FlitsInFlight() const override;
  NetworkSummary Summarize() const override;
  void ResetStats() override {
    for (auto& net : nets_) net->ResetStats();
  }
  std::array<std::uint64_t, kNumPacketTypes> PacketsByType() const override;
  RunReport CollectRunReport() const override;
  void Save(Serializer& s) const override { IoEach(s, nets_); }
  void Load(Deserializer& d) override { IoEach(d, nets_); }
  int num_networks() const override { return static_cast<int>(nets_.size()); }
  Network& net(TrafficClass cls) override {
    return *by_class_[static_cast<std::size_t>(ClassIndex(cls))];
  }
  const Network& net(TrafficClass cls) const override {
    return *by_class_[static_cast<std::size_t>(ClassIndex(cls))];
  }

 private:
  std::vector<std::unique_ptr<Network>> nets_;
  std::array<Network*, kNumClasses> by_class_{};  ///< the net carrying a class
  TraceWriter* trace_ = nullptr;
};

/// Perfbench's GPU assembly builds on this name; one argument means
/// virtual division.
using SingleNetworkFabric = NetworkFabric;

}  // namespace gnoc
