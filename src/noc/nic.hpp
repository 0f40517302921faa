// Network interface controller: the adapter between an endpoint (SM core or
// memory controller model) and its router's local port.
//
// Injection side: packets wait in per-class queues; the NIC performs source
// VC allocation (it is the "upstream router" of the injection link), segments
// packets into flits and sends at most one flit per cycle, interleaving
// round-robin across busy VCs.
//
// Ejection side: flits arriving through the router's local output port land
// in per-class bounded buffers; the NIC reassembles packets and delivers them
// to a PacketSink. A sink may refuse delivery (e.g. a saturated memory
// controller), which backpressures through the ejection buffer into the
// network — the coupling that makes naive VC sharing protocol-deadlock-prone.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/ring.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/network_config.hpp"
#include "noc/packet.hpp"
#include "noc/soa_core.hpp"
#include "noc/vc_policy.hpp"

namespace gnoc {

class Auditor;
class Telemetry;

/// Endpoint interface for receiving packets from the network.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Offers a fully reassembled packet. Return false to stall delivery; the
  /// NIC will retry next cycle and backpressure builds up behind it.
  virtual bool Accept(const Packet& packet, Cycle now) = 0;
};

/// Geometry of the per-NIC latency histograms: 64 buckets of 32 cycles
/// (0..2048) plus overflow — wide enough for saturated reply networks.
inline constexpr double kLatencyBucketWidth = 32.0;
inline constexpr std::size_t kLatencyBuckets = 64;

/// Fixed-point scale of the QoS token buckets: one flit of credit is
/// kTokenScale units. Integer arithmetic keeps refills bit-identical
/// across scheduling backends (no accumulated floating-point drift).
inline constexpr std::int64_t kTokenScale = std::int64_t{1} << 20;

/// Per-NIC counters.
struct NicStats {
  NicStats()
      : latency_histogram{Histogram(kLatencyBucketWidth, kLatencyBuckets),
                          Histogram(kLatencyBucketWidth, kLatencyBuckets)} {}
  std::array<std::uint64_t, kNumClasses> packets_injected{};
  std::array<std::uint64_t, kNumClasses> flits_injected{};
  std::array<std::uint64_t, kNumClasses> packets_ejected{};
  std::array<std::uint64_t, kNumClasses> flits_ejected{};
  std::array<std::uint64_t, kNumPacketTypes> packets_by_type{};  // injected
  /// End-to-end packet latency (created -> delivered), per class.
  std::array<RunningStats, kNumClasses> packet_latency;
  /// Network latency (head injected -> delivered), per class.
  std::array<RunningStats, kNumClasses> network_latency;
  /// Cycles the injection side had a packet blocked on credits or a free VC
  /// but sent no flit. Excludes cycles where the only busy VCs were
  /// draining (tail already sent, waiting for atomic VC recycle) — those
  /// are counted in `inject_drain_cycles` instead.
  std::uint64_t inject_stall_cycles = 0;
  /// Cycles nothing was sent and every busy VC was merely draining.
  std::uint64_t inject_drain_cycles = 0;
  /// Cycles a class had a queued packet held back solely by its QoS token
  /// bucket (rate regulation stall; charged once per blocked cycle).
  std::array<std::uint64_t, kNumClasses> qos_throttle_cycles{};
  /// Per-class end-to-end latency distribution (see kLatencyBucketWidth).
  std::array<Histogram, kNumClasses> latency_histogram;
};

/// The NIC of one tile.
class Nic {
 public:
  Nic(NodeId node, Coord coord, const NetworkConfig& config);

  NodeId node() const { return node_; }
  Coord coord() const { return coord_; }

  // --- wiring (called once by Network) ---

  /// Channel delivering flits into the router's local input port.
  void SetInjectionChannel(FlitChannel* channel);
  /// Channel returning credits from the router's local input port.
  void SetCreditChannel(CreditChannel* channel);
  /// Destination for reassembled packets (may be changed between runs).
  void SetSink(PacketSink* sink);

  /// Class usage of this NIC's injection link (link-aware monopolizing).
  /// Defaults to kMixed.
  void SetLinkMode(LinkMode mode);

  /// Attaches the network's invariant auditor and this NIC's injection
  /// link id (nullptr = auditing off).
  void SetAuditor(Auditor* auditor, int link) {
    auditor_ = auditor;
    audit_link_ = link;
  }

  /// Attaches the network's packet table (required before the first
  /// Tick): segmentation adds a record per packet, reassembly reads it and
  /// releases it once the sink accepts the tail, and Save and Load walk
  /// the queued flits' per-packet fields through it.
  void SetPacketTable(PacketTable* packets) { packets_ = packets; }

  /// Attaches the network's telemetry sampler (nullptr = telemetry off);
  /// the NIC reports per-packet delivery latencies to it.
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Counter bumped on every injected flit and ejected packet (the
  /// network's incremental deadlock-watchdog progress signal). nullptr =
  /// off.
  void SetProgressSink(std::uint64_t* sink) { progress_sink_ = sink; }

  /// Injection bandwidth in flits per cycle (default 1). Prior work
  /// (Bakhoda et al. [3], Kim et al. [11]) provisions extra injection
  /// bandwidth at the few memory controllers to serve burst read replies;
  /// the GpuSystem applies this to MC nodes when configured.
  void SetInjectFlitsPerCycle(int flits) { inject_flits_per_cycle_ = flits; }

  // --- endpoint-facing API ---

  /// True when the injection queue of `cls` has room for another packet.
  bool CanInject(TrafficClass cls) const {
    return inject_queues_[static_cast<std::size_t>(ClassIndex(cls))].size() <
           static_cast<std::size_t>(config_.inject_queue_capacity);
  }

  /// Queues `packet` for injection; `dst_coord` is the mesh coordinate of
  /// `packet.dst`. Returns false (and drops nothing) when the queue is full.
  bool Inject(const Packet& packet, Coord dst_coord, Cycle now);

  /// Packets currently waiting or partially sent on the injection side.
  std::size_t InjectQueueDepth(TrafficClass cls) const;

  // --- router-facing API ---

  /// True when the ejection buffer of `cls` can take one more flit.
  bool CanAcceptEjection(TrafficClass cls) const {
    return eject_held_[static_cast<std::size_t>(ClassIndex(cls))] <
           config_.eject_capacity;
  }

  /// Delivers one flit from the router's local output port.
  void AcceptEjectedFlit(const Flit& flit, Cycle now);

  // --- per-cycle ---

  /// Runs one cycle: charges the ticks skipped while asleep, consumes
  /// returned credits, sends at most one flit, and delivers reassembled
  /// packets to the sink. Returns true when it delivered a packet, which
  /// frees ejection space. With sleep enabled, a tick that changed nothing
  /// but the injection stall counters leaves the NIC Asleep().
  bool Tick(Cycle now);

  /// Lets the soa schedule put this NIC to sleep, `clock` being the
  /// schedule's clock (DESIGN.md §14). Returns false, and the NIC never
  /// sleeps, under vc_policy=dynamic (epoch boundaries) and when a class
  /// has a token bucket (its refill and throttle cycles).
  bool EnableSleep(const Cycle* clock);

  /// True from a tick that popped no credit, released no VC, started no
  /// packet, sent no flit and delivered no packet, leaving both ejection
  /// buffers empty, until the next tick: until a packet is injected, a
  /// flit is ejected into it or its front credit is due, each tick would
  /// repeat that one.
  bool Asleep() const { return sleep_.asleep(); }

  // --- introspection ---

  /// The counters, with the ticks skipped while asleep charged through the
  /// schedule's clock.
  const NicStats& stats() const {
    Settle();
    return stats_;
  }

  /// Zeroes the statistics counters (queues and in-flight state untouched).
  void ResetStats() {
    Settle();  // the charges before the reset are dropped with the rest
    stats_ = NicStats{};
  }

  /// Flits currently held on the ejection side (buffer + reassembly).
  int EjectOccupancy(TrafficClass cls) const;

  /// Packets with absorbed flits awaiting their tail (invariant checks).
  std::size_t PendingAssembly() const { return assembled_.size(); }

  /// Current injection-link VC boundary (dynamic policy only).
  VcId DynamicBoundary() const { return boundary_; }

  /// Credits currently held for injection VC `vc` (for invariant checks).
  int InjectionCredits(VcId vc) const {
    return credits_.at(static_cast<std::size_t>(vc));
  }

  /// True when nothing is buffered on either side (for drain detection).
  bool Idle() const;

  /// The first cycle a Tick can change this NIC (the soa scheduler's skip
  /// rule, DESIGN.md §9): 0 unless Idle(), else the earlier of its credit
  /// line's front delivery and, under vc_policy=dynamic, its next epoch
  /// boundary; kNeverCycle when neither exists.
  Cycle NextDue() const;

  /// The delivery cycle of the front credit on its line, kNeverCycle when
  /// none is in flight (a sleeping NIC's next due tick).
  Cycle CreditDue() const {
    return credit_channel_ != nullptr && !credit_channel_->empty()
               ? credit_channel_->FrontDue()
               : kNeverCycle;
  }

  /// Snapshot support (DESIGN.md §10): queues, in-flight sends, credits,
  /// round-robin pointers, dynamic-boundary state, QoS token buckets,
  /// ejection/reassembly state and stats. Wiring pointers and `inject_flits_per_cycle_` are
  /// reapplied by the owner at construction and not serialized.
  void Save(Serializer& s) const;
  /// Throws SerializeError for a credit count outside [0, vc_depth], for
  /// a flit the packet table refuses (PacketTable::Intern), and for a send
  /// FIFO the NIC could not have filled: a flit whose VC is not its
  /// slot's, flits on a free or draining VC, or none on a VC still sending
  /// (SendFlits would pop an empty FIFO).
  void Load(Deserializer& d);

 private:
  /// One in-progress packet transmission bound to an injection VC.
  /// `remaining` is nonempty exactly while the VC is busy and not draining.
  struct ActiveSend {
    bool busy = false;      ///< VC held by a packet (sending or draining)
    bool draining = false;  ///< tail sent; waiting for credits to return
    Ring<Flit> remaining;   ///< unsent flits of the packet, in order
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    const auto flit_io = [&self](auto& a, auto& flit) {
      IoFlit(a, flit, *self.packets_);
    };
    for (auto& queue : self.inject_queues_) IoSeq(ar, queue);
    for (auto& send : self.sends_) {
      Io(ar, send.busy);
      Io(ar, send.draining);
      IoSeqWith(ar, send.remaining, flit_io);
    }
    IoEach(ar, self.credits_);
    Io(ar, self.send_rr_);
    Io(ar, self.boundary_);
    Io(ar, self.epoch_flits_);
    Io(ar, self.next_boundary_update_);
    for (auto& buffer : self.eject_buffers_) {
      IoSeqWith(ar, buffer, flit_io);
    }
    Io(ar, self.eject_held_);
    self.IoAssembly(ar);
    Io(ar, self.qos_tokens_);
    Io(ar, self.qos_refilled_);
    auto& st = self.stats_;
    Io(ar, st.packets_injected);
    Io(ar, st.flits_injected);
    Io(ar, st.packets_ejected);
    Io(ar, st.flits_ejected);
    Io(ar, st.packets_by_type);
    Io(ar, st.packet_latency);
    Io(ar, st.network_latency);
    Io(ar, st.inject_stall_cycles);
    Io(ar, st.inject_drain_cycles);
    Io(ar, st.qos_throttle_cycles);
    Io(ar, st.latency_histogram);
  }

  /// A packet being reassembled: the flits absorbed before its tail.
  struct Assembly {
    PacketId id = 0;
    int flits = 0;
  };

  /// The reassembly list as v5 wrote the hash map it replaced: a count,
  /// then (packet id, absorbed flits) pairs in ascending id order. Load
  /// throws SerializeError for an id listed twice or a count above what
  /// the router's input VCs can carry.
  void IoAssembly(Serializer& s) const;
  void IoAssembly(Deserializer& d);

  /// The reassembly entry of packet `id`, nullptr when none.
  Assembly* FindAssembly(PacketId id);

  /// What one SendFlits call did: sent a flit, or sent none and charged
  /// a stall cycle, a drain cycle or neither.
  enum class SendOutcome : std::uint8_t { kNone, kSent, kStalled, kDraining };

  /// The VC range `cls` may use on the injection link right now.
  VcRange InjectionRange(TrafficClass cls) const;

  /// Advances the dynamic-partitioning feedback loop.
  void UpdateDynamicBoundary();

  /// Adds `ticks` skipped ticks' charge (the sleeping tick's SendOutcome)
  /// to the counters.
  void ChargeSkipped(Cycle ticks) const;

  /// Charges the skipped ticks up to the schedule's clock.
  void Settle() const {
    if (sleep_.asleep()) ChargeSkipped(sleep_.TakeToClock());
  }

  // The four stages of Tick, declared inline: nic.cpp defines them, where
  // each compiles into Tick, their only caller.

  /// Pops returned credits from the router and releases drained VCs.
  /// Returns true when it popped or released anything.
  inline bool ConsumeCredits(Cycle now);
  /// Lazily refills the class's token bucket up to `now`, then reports
  /// whether its head packet may start (tokens non-negative). Unregulated
  /// classes always pass. StartPackets charges the admitted packet's flit
  /// count, which may drive the bucket negative (debt) — later packets
  /// wait the debt out, so the long-run admitted rate never exceeds the
  /// configured rate.
  bool QosAdmit(int ci, Cycle now);
  /// Binds queued packets to free VCs allowed by the policy. Returns true
  /// when it started one.
  inline bool StartPackets(Cycle now);
  /// Sends up to inject_flits_per_cycle_ flits across busy VCs
  /// (round-robin).
  inline SendOutcome SendFlits(Cycle now);
  /// Delivers at most one completed packet per class to the sink. Returns
  /// true when it delivered one.
  inline bool DrainEjection(Cycle now);

  NodeId node_;
  Coord coord_;
  NetworkConfig config_;
  VcPolicy policy_;
  /// VcPolicy::AllowedVcs per class under the injection link's mode (the
  /// static policies' InjectionRange), refreshed by SetLinkMode.
  std::array<VcRange, kNumClasses> injection_vcs_{};

  FlitChannel* inject_channel_ = nullptr;
  CreditChannel* credit_channel_ = nullptr;
  PacketSink* sink_ = nullptr;
  PacketTable* packets_ = nullptr;
  Auditor* auditor_ = nullptr;
  int audit_link_ = -1;
  Telemetry* telemetry_ = nullptr;

  std::array<Ring<std::pair<Packet, Coord>>, kNumClasses> inject_queues_;
  std::vector<ActiveSend> sends_;   // per VC
  std::vector<int> credits_;       // per VC
  std::size_t send_rr_ = 0;        // round-robin pointer over VCs
  int inject_flits_per_cycle_ = 1;

  std::uint64_t* progress_sink_ = nullptr;

  // QoS token-bucket state (fixed-point; see kTokenScale). Buckets start
  // full (burst worth of credit) and refill lazily on demand: min-capping
  // is monotone, so one batched refill equals per-cycle refills and the
  // admission sequence does not depend on when the NIC is ticked.
  std::array<std::int64_t, kNumClasses> qos_tokens_{};
  std::array<Cycle, kNumClasses> qos_refilled_{};  // bucket caught up to here

  // Dynamic-partitioning state for the injection link.
  VcId boundary_ = 1;
  std::array<std::uint64_t, kNumClasses> epoch_flits_{};
  Cycle next_boundary_update_ = 0;

  std::array<Ring<Flit>, kNumClasses> eject_buffers_;
  std::array<int, kNumClasses> eject_held_{};  // flits in buffer + reassembly
  /// One entry per packet with flits absorbed and its tail still to come,
  /// in no order: at most one per router input VC ejecting here and class,
  /// so a linear search beats hashing.
  std::vector<Assembly> assembled_;

  // Sleep (soa only, never saved). Mutable with the counters: a read
  // charges the ticks skipped so far.
  mutable SleepLedger sleep_;
  SendOutcome sleep_charge_ = SendOutcome::kNone;
  mutable NicStats stats_;
};

}  // namespace gnoc
