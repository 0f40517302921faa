// Ideal (contention-free) interconnect: packets arrive a fixed pipeline
// delay plus their zero-load hop latency on the configured topology after
// injection, regardless of load. An upper bound no real NoC can beat —
// useful to contextualize how much of the ideal the paper's schemes
// recover, and as a latency lower bound in differential tests.
#pragma once

#include <deque>
#include <map>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "noc/fabric.hpp"
#include "noc/topology.hpp"

namespace gnoc {

/// A Fabric with infinite bandwidth and zero contention. Deterministic:
/// delivery time depends only on distance. Sinks that refuse delivery are
/// retried each cycle (packets queue per destination in arrival order).
class IdealFabric final : public Fabric {
 public:
  /// Cycles per hop (router pipeline + link) of the modelled ideal network.
  static constexpr Cycle kCyclesPerHop = 2;
  /// Fixed overhead (injection + ejection + serialization headroom).
  static constexpr Cycle kBaseLatency = 4;

  /// The ideal network over `config`'s topology and tile grid; the rest
  /// of the config describes links and buffers it does not have.
  explicit IdealFabric(const NetworkConfig& config);

  /// Appends every accepted injection to `trace` (not owned; nullptr, the
  /// default, records nothing).
  void SetTrace(TraceWriter* trace) { trace_ = trace; }

  /// Throws std::invalid_argument, naming the packet, for a source or
  /// destination that is not a tile or a flit count outside [1, 65535].
  bool Inject(Packet packet) override;
  bool CanInject(NodeId node, TrafficClass cls) const override;
  void SetSink(NodeId node, PacketSink* sink) override;
  void Tick() override;
  Cycle now() const override { return now_; }
  bool Deadlocked() const override { return false; }
  std::size_t FlitsInFlight() const override;
  NetworkSummary Summarize() const override { return summary_; }
  void ResetStats() override;
  std::array<std::uint64_t, kNumPacketTypes> PacketsByType() const override {
    return packets_by_type_;
  }
  /// Nothing to audit, sample or guarantee: no credits, buffers, links or
  /// allocators exist here. Every section stays its disabled default.
  RunReport CollectRunReport() const override { return RunReport{}; }

  /// Snapshot support (DESIGN.md §10): clock, in-flight heap (array saved
  /// verbatim so equal-due arrivals keep their order), stalled queues,
  /// summary and type counters. Sinks are rewired by the owner.
  void Save(Serializer& s) const override;
  void Load(Deserializer& d) override;

  /// The ideal fabric has no physical networks; these accessors are
  /// unsupported and throw std::logic_error.
  int num_networks() const override { return 0; }
  Network& net(TrafficClass cls) override;
  const Network& net(TrafficClass cls) const override;

  /// Zero-load delivery latency between two nodes: kBaseLatency plus
  /// kCyclesPerHop per hop of the topology's graph distance.
  Cycle DeliveryLatency(NodeId src, NodeId dst) const;

 private:
  struct Arrival {
    Cycle due = 0;
    std::uint64_t seq = 0;  ///< tie-break: injection order
    Packet packet;

    bool operator>(const Arrival& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }

    template <class Self, class Ar>
    static void Fields(Self& self, Ar& ar) {
      Io(ar, self.due);
      Io(ar, self.seq);
      Io(ar, self.packet);
    }
  };

  /// Hands each destination's stalled packets, in order, to its sink
  /// until the sink refuses one.
  void DeliverStalled();

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.now_);
    Io(ar, self.next_seq_);
    IoSeq(ar, PriorityQueueAccess<decltype(self.in_flight_)>::Container(
                  self.in_flight_));
    IoSortedMap(ar, self.stalled_,
                [](auto& a, auto& queue) { IoSeq(a, queue); });
    Io(ar, self.summary_);
    Io(ar, self.packets_by_type_);
  }

  NetworkConfig config_;
  Topology topo_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      in_flight_;
  /// Packets whose sink refused delivery, retried in order per destination.
  std::map<NodeId, std::deque<Packet>> stalled_;
  std::vector<PacketSink*> sinks_;
  NetworkSummary summary_;
  std::array<std::uint64_t, kNumPacketTypes> packets_by_type_{};
  TraceWriter* trace_ = nullptr;
};

}  // namespace gnoc
