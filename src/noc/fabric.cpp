#include "noc/fabric.hpp"

#include <algorithm>

#include "noc/trace.hpp"

namespace gnoc {

NetworkConfig DivisionConfig(const NetworkConfig& config,
                             NetworkDivision division) {
  NetworkConfig per_net = config;
  if (division == NetworkDivision::kPhysical) {
    per_net.num_vcs = std::max(1, config.num_vcs / 2);
    // Each physical network carries a single class; within it every VC is
    // usable by that class, which is what a dedicated network means.
    per_net.vc_policy = VcPolicyKind::kFullMonopolize;
  }
  return per_net;
}

NetworkFabric::NetworkFabric(const NetworkConfig& config,
                             NetworkDivision division) {
  const NetworkConfig per_net = DivisionConfig(config, division);
  const bool physical = division == NetworkDivision::kPhysical;
  for (Network*& net : by_class_) {
    if (nets_.empty() || physical) {
      nets_.push_back(std::make_unique<Network>(per_net));
    }
    net = nets_.back().get();
  }
}

bool NetworkFabric::Inject(Packet packet) {
  Network& network = net(packet.cls());
  if (!network.Inject(packet)) return false;
  if (trace_ != nullptr) trace_->Append(packet, network.now());
  return true;
}

bool NetworkFabric::Deadlocked() const {
  return std::any_of(nets_.begin(), nets_.end(),
                     [](const auto& net) { return net->Deadlocked(); });
}

std::size_t NetworkFabric::FlitsInFlight() const {
  std::size_t total = 0;
  for (const auto& net : nets_) total += net->FlitsInFlight();
  return total;
}

NetworkSummary NetworkFabric::Summarize() const {
  NetworkSummary out = nets_[0]->Summarize();
  for (std::size_t i = 1; i < nets_.size(); ++i) {
    out.Merge(nets_[i]->Summarize());
  }
  return out;
}

std::array<std::uint64_t, kNumPacketTypes> NetworkFabric::PacketsByType()
    const {
  std::array<std::uint64_t, kNumPacketTypes> out{};
  for (const auto& net : nets_) {
    for (NodeId n = 0; n < net->num_nodes(); ++n) {
      const auto& by_type = net->nic(n).stats().packets_by_type;
      for (std::size_t t = 0; t < out.size(); ++t) out[t] += by_type[t];
    }
  }
  return out;
}

RunReport NetworkFabric::CollectRunReport() const {
  RunReport report{nets_[0]->AuditResults(), {}, nets_[0]->QosResults()};
  for (std::size_t i = 1; i < nets_.size(); ++i) {
    report.audit.Merge(nets_[i]->AuditResults());
    report.qos.Merge(nets_[i]->QosResults());
  }
  if (nets_.size() == 1) {
    report.telemetry = nets_[0]->TelemetryResults();
  } else {
    // Two physical networks are two sets of links, named by their class.
    report.telemetry.Merge(net(TrafficClass::kRequest).TelemetryResults(),
                           "req:");
    report.telemetry.Merge(net(TrafficClass::kReply).TelemetryResults(),
                           "rep:");
  }
  return report;
}

}  // namespace gnoc
