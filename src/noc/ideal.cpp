#include "noc/ideal.hpp"

#include <stdexcept>

#include "noc/trace.hpp"

namespace gnoc {

IdealFabric::IdealFabric(const NetworkConfig& config)
    : config_(config),
      topo_(Topology::Make(config.topology, config.width, config.height,
                           config.circulant_s1, config.circulant_s2)),
      sinks_(static_cast<std::size_t>(topo_.num_tiles()), nullptr) {}

Cycle IdealFabric::DeliveryLatency(NodeId src, NodeId dst) const {
  return kBaseLatency +
         kCyclesPerHop * static_cast<Cycle>(topo_.Distance(src, dst));
}

bool IdealFabric::Inject(Packet packet) {
  CheckInjectable(packet, config_.width * config_.height);
  if (packet.created == 0) packet.created = now_;
  packet.injected = now_;
  const auto ci = static_cast<std::size_t>(ClassIndex(packet.cls()));
  ++summary_.packets_injected[ci];
  summary_.flits_injected[ci] += static_cast<std::uint64_t>(packet.num_flits);
  ++packets_by_type_[static_cast<std::size_t>(packet.type)];

  Arrival arrival;
  arrival.due = now_ + DeliveryLatency(packet.src, packet.dst);
  arrival.seq = next_seq_++;
  arrival.packet = packet;
  in_flight_.push(arrival);
  if (trace_ != nullptr) trace_->Append(packet, now_);
  return true;
}

bool IdealFabric::CanInject(NodeId, TrafficClass) const {
  return true;  // infinite bandwidth
}

void IdealFabric::SetSink(NodeId node, PacketSink* sink) {
  sinks_.at(static_cast<std::size_t>(node)) = sink;
}

void IdealFabric::DeliverStalled() {
  for (auto it = stalled_.begin(); it != stalled_.end();) {
    auto& queue = it->second;
    PacketSink* sink = sinks_[static_cast<std::size_t>(it->first)];
    while (!queue.empty() && sink != nullptr) {
      Packet packet = queue.front();
      packet.ejected = now_;
      if (!sink->Accept(packet, now_)) break;
      const auto ci = static_cast<std::size_t>(ClassIndex(packet.cls()));
      ++summary_.packets_ejected[ci];
      summary_.flits_ejected[ci] +=
          static_cast<std::uint64_t>(packet.num_flits);
      summary_.packet_latency[ci].Add(
          static_cast<double>(now_ - packet.created));
      summary_.network_latency[ci].Add(
          static_cast<double>(now_ - packet.injected));
      summary_.latency_histogram[ci].Add(
          static_cast<double>(now_ - packet.created));
      queue.pop_front();
    }
    it = queue.empty() ? stalled_.erase(it) : std::next(it);
  }
}

void IdealFabric::Tick() {
  // Retry stalled deliveries first (FIFO per destination).
  DeliverStalled();
  // Queue newly due packets behind the stalled ones, so per-destination
  // order is preserved, and offer them too.
  while (!in_flight_.empty() && in_flight_.top().due <= now_) {
    Packet packet = in_flight_.top().packet;
    in_flight_.pop();
    stalled_[packet.dst].push_back(packet);
  }
  DeliverStalled();
  ++now_;
  summary_.cycles = now_;
}

std::size_t IdealFabric::FlitsInFlight() const {
  std::size_t total = in_flight_.size();
  for (const auto& [node, queue] : stalled_) total += queue.size();
  return total;
}

void IdealFabric::ResetStats() {
  summary_ = NetworkSummary{};
  summary_.cycles = now_;
  packets_by_type_.fill(0);
}

void IdealFabric::Save(Serializer& s) const { Fields(*this, s); }
void IdealFabric::Load(Deserializer& d) { Fields(*this, d); }

Network& IdealFabric::net(TrafficClass) {
  throw std::logic_error("IdealFabric has no physical network");
}
const Network& IdealFabric::net(TrafficClass) const {
  throw std::logic_error("IdealFabric has no physical network");
}

}  // namespace gnoc
