// The assembled network: routers, NICs and the delay-line channels
// connecting them, plus aggregate statistics and a deadlock watchdog. The
// wiring comes from a Topology graph (noc/topology.hpp): the paper's 2D
// mesh by default, or a torus, concentrated mesh or ring circulant.
//
// The Network is placement-agnostic: it transports packets between any two
// tiles. Which tiles host SMs vs MCs is decided by the layer above (see
// noc/placement.hpp and sim/gpu_system.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/audit.hpp"
#include "noc/channel.hpp"
#include "noc/network_config.hpp"
#include "noc/nic.hpp"
#include "noc/packet.hpp"
#include "noc/qos.hpp"
#include "noc/router.hpp"
#include "noc/telemetry.hpp"
#include "noc/topology.hpp"

namespace gnoc {

class LinkUsage;
class SoaCore;

/// Aggregated network-level counters (see also RouterStats / NicStats).
struct NetworkSummary {
  NetworkSummary()
      : latency_histogram{Histogram(kLatencyBucketWidth, kLatencyBuckets),
                          Histogram(kLatencyBucketWidth, kLatencyBuckets)} {}

  std::array<std::uint64_t, kNumClasses> packets_injected{};
  std::array<std::uint64_t, kNumClasses> packets_ejected{};
  std::array<std::uint64_t, kNumClasses> flits_injected{};
  std::array<std::uint64_t, kNumClasses> flits_ejected{};
  std::array<RunningStats, kNumClasses> packet_latency;
  std::array<RunningStats, kNumClasses> network_latency;
  /// Merged per-class latency distributions (percentile queries).
  std::array<Histogram, kNumClasses> latency_histogram;
  /// Cycles a NIC head packet sat token-bucket-blocked, by class (QoS).
  std::array<std::uint64_t, kNumClasses> qos_throttle_cycles{};
  std::uint64_t flits_forwarded = 0;
  std::uint64_t cycles = 0;

  /// Adds another network's counts and folds in its latency statistics
  /// (the networks of a physical division); `cycles` stays.
  void Merge(const NetworkSummary& other);

  /// Snapshot support (DESIGN.md §10).
  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.packets_injected);
    Io(ar, self.packets_ejected);
    Io(ar, self.flits_injected);
    Io(ar, self.flits_ejected);
    Io(ar, self.packet_latency);
    Io(ar, self.network_latency);
    Io(ar, self.latency_histogram);
    Io(ar, self.qos_throttle_cycles);
    Io(ar, self.flits_forwarded);
    Io(ar, self.cycles);
  }
};

/// Throws std::invalid_argument when no network can be built from `config`
/// on `topo` (the topology it names): a VC count the VC policy and its QoS
/// reservations refuse (VcPolicy), vc_depth outside [1, 255] (a router's
/// flit slab counts each VC's flits in a byte), a zero dynamic_epoch under
/// the dynamic policy, radix x num_vcs wider than one request mask, or, on
/// a dateline topology, a class left fewer than two VCs on some link (or
/// the dynamic policy, which can shrink a class to one).
void CheckNetworkConfig(const NetworkConfig& config, const Topology& topo);

class Network {
 public:
  /// Throws what CheckNetworkConfig throws.
  explicit Network(const NetworkConfig& config);
  ~Network();  // defaulted in network.cpp, where SoaCore is complete

  // Non-copyable: routers hold pointers into channel storage.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const NetworkConfig& config() const { return config_; }
  int width() const { return config_.width; }
  int height() const { return config_.height; }
  /// Tiles (NIC endpoints); the router count is topology().num_routers().
  int num_nodes() const { return config_.width * config_.height; }
  int num_routers() const { return static_cast<int>(routers_.size()); }

  /// The connection graph the network was wired from.
  const Topology& topology() const { return topo_; }

  /// The per-packet fields of the packets in flight (one record per
  /// packet from segmentation until its sink accepts the tail).
  const PacketTable& packets() const { return packets_; }

  NodeId NodeAt(Coord c) const;
  Coord CoordOf(NodeId n) const;

  /// Router by *router* index (== tile id except on cmesh).
  Router& router(NodeId n);
  const Router& router(NodeId n) const;
  /// NIC by *tile* id.
  Nic& nic(NodeId n);
  const Nic& nic(NodeId n) const;

  /// Registers the endpoint receiving packets at node `n`.
  void SetSink(NodeId n, PacketSink* sink);

  /// Distributes the statically analyzed per-link class usage to every
  /// router and NIC (enables link-aware partial monopolizing). Without this
  /// call all links are treated as mixed, which is always safe.
  void ConfigureLinkModes(const LinkUsage& usage);

  /// Allocates a fresh unique packet id.
  PacketId NextPacketId() { return next_packet_id_++; }

  /// Convenience injection: fills in id (when 0) and created (when 0),
  /// resolves the destination coordinate, and enqueues at the source NIC.
  /// Returns false when the source injection queue is full. Under kSoa
  /// this also wakes the source NIC (DESIGN.md §9), so packets must enter
  /// through here, never through nic(n).Inject. Throws
  /// std::invalid_argument, naming the packet, for a source or destination
  /// that is not a tile or a flit count outside [1, 65535].
  bool Inject(Packet packet);

  /// True when the source NIC of `cls` traffic at node `n` can take a packet.
  bool CanInject(NodeId n, TrafficClass cls) const;

  /// Advances the network by one cycle.
  void Tick();

  /// Runs until every buffer is empty or `max_cycles` more cycles elapse.
  /// Returns true when fully drained.
  bool Drain(Cycle max_cycles);

  /// Current simulation time (cycles completed).
  Cycle now() const { return now_; }

  /// Total flits buffered in routers, NICs and channels.
  std::size_t FlitsInFlight() const;

  /// True when the watchdog has observed no forward progress for
  /// `deadlock_threshold` cycles while flits were in flight.
  bool Deadlocked() const { return deadlocked_; }

  /// Aggregates NIC and router counters.
  NetworkSummary Summarize() const;

  /// Flits that crossed the link leaving `node` through `port`, by class.
  /// (Measured counterpart of the paper's Fig. 4/6 coefficient maps.)
  std::uint64_t LinkFlits(NodeId node, Port port, TrafficClass cls) const;

  /// Resets all statistics counters (not the network state). Used to exclude
  /// warm-up from measurement. The audit report is cumulative and is *not*
  /// reset: a protocol violation during warm-up is still a violation.
  void ResetStats();

  // --- invariant auditing (config_.audit; see noc/audit.hpp) ---

  /// True when this network was built with auditing enabled.
  bool AuditEnabled() const { return auditor_ != nullptr; }

  /// The cumulative audit report (default-constructed/disabled when
  /// auditing is off).
  AuditReport AuditResults() const {
    return auditor_ != nullptr ? auditor_->report() : AuditReport{};
  }

  /// Runs the end-of-run quiescence checks now. Drain() already invokes
  /// this on success; exposed for tests that drain manually. No-op when
  /// auditing is off.
  void AuditQuiescence();

  // --- telemetry (config_.telemetry; see noc/telemetry.hpp) ---

  /// True when this network was built with telemetry enabled.
  bool TelemetryEnabled() const { return telemetry_ != nullptr; }

  /// Snapshot of the sampled time series up to the current cycle
  /// (default-constructed/disabled report when telemetry is off).
  TelemetryReport TelemetryResults() const {
    return telemetry_ != nullptr ? telemetry_->Snapshot(now_)
                                 : TelemetryReport{};
  }

  /// The sampler itself (nullptr when telemetry is off); for tests.
  const Telemetry* telemetry() const { return telemetry_.get(); }

  // --- QoS (config_.qos; see noc/qos.hpp) ---

  /// The per-class QoS outcome: configured contract, throttle cycles,
  /// delivered packets, whole-run p99, and (when telemetry is on and a
  /// class sets a p99 target) SLO violation-window accounting.
  QosReport QosResults() const;

  /// Plants `fault` in the first live channel that can host it (audit
  /// mutation tests). Returns false when no in-flight victim exists (e.g.
  /// idle network, or kCorruptVc with num_vcs < 2 / only head flits in
  /// flight).
  bool InjectFault(AuditFault fault);

  // --- scheduling (config_.scheduling; see SchedulingMode) ---

  /// Component updates performed so far: one per router/NIC tick and one
  /// per channel visit. Under kFull this grows by (routers + NICs + links)
  /// every cycle; under kSoa only by the links, routers and NICs that have
  /// due work (an idle network takes no step) — the skip claim tests
  /// assert on exactly this.
  std::uint64_t TickSteps() const { return tick_steps_; }

  /// Clears every kSoa occupancy and asleep bit WITHOUT regard to pending
  /// work — deliberately planting the lost-wake bug the scheduler-coverage
  /// audit invariant exists to catch (mutation tests only). No-op under
  /// kFull scheduling.
  void ForceSleepAll();

  // --- snapshot/restore (DESIGN.md §10) ---

  /// Serializes every piece of mutable state — clock, packet-id counter,
  /// watchdog, routers, NICs, channel contents and auditor/telemetry
  /// state — in a fixed order. Wiring and configuration are
  /// construction-derived and not serialized: Load requires a Network
  /// built from the identical NetworkConfig (scheduling mode aside: the
  /// kSoa bits are rebuilt from the objects), and resumed execution is
  /// bit-identical to never having snapshotted. The packet table is not
  /// saved either: every flit writes its packet's fields, and Load
  /// interns one record per packet id, refusing the flits
  /// PacketTable::Intern refuses and a flit on a VC its link lacks.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  /// The soa schedule walks the link, router and NIC tables directly and
  /// sets its bits through the channel wake hooks.
  friend class SoaCore;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.now_);
    Io(ar, self.next_packet_id_);
    Io(ar, self.tick_steps_);
    Io(ar, self.progress_events_);
    Io(ar, self.last_progress_counter_);
    Io(ar, self.last_progress_cycle_);
    Io(ar, self.deadlocked_);
    IoEach(ar, self.routers_);
    IoEach(ar, self.nics_);
    for (auto& link : self.flit_links_) {
      FlitChannel::Fields(link->channel, ar, [&self](auto& a, auto& flit) {
        IoFlit(a, flit, self.packets_);
      });
    }
    for (auto& link : self.credit_links_) Io(ar, link->channel);
    IoPresence(ar, self.auditor_, "audit");
    IoPresence(ar, self.telemetry_, "telemetry");
  }

  struct FlitLink {
    FlitChannel channel;
    Router* dst_router = nullptr;
    Port dst_port = Port::kLocal;

    /// Moves every flit that has arrived by `now` into the router.
    void Deliver(Cycle now) {
      while (auto flit = channel.Pop(now)) {
        dst_router->AcceptFlit(dst_port, *flit, now);
      }
    }
  };
  struct CreditLink {
    CreditChannel channel;
    Router* dst_router = nullptr;  // nullptr => credits go to a NIC
    Nic* dst_nic = nullptr;
    Port dst_port = Port::kLocal;  // output port at the receiving router

    /// Hands every credit that has arrived by `now` to the router (a NIC
    /// pops its own line in its Tick).
    void Deliver(Cycle now) {
      while (auto credit = channel.Pop(now)) {
        dst_router->AcceptCredit(dst_port, credit->vc);
      }
    }
  };

  /// One full-scheduling cycle's phases (the reference path).
  void TickFull();
  /// One soa cycle's phases: the SoaCore visits the links, routers and
  /// NICs whose bits are set, skipping what is not due.
  void TickSoa();

  /// FlitsInFlight() == 0. Under kSoa it asks only the entries whose
  /// occupancy or asleep bit is set. The watchdog and Drain call it.
  bool NoFlitsInFlight() const;

  NetworkConfig config_;
  Topology topo_;  ///< declared before the routers that point into it
  PacketTable packets_;  ///< routers, NICs and the auditor point into it
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<FlitLink>> flit_links_;
  std::vector<std::unique_ptr<CreditLink>> credit_links_;
  std::unique_ptr<Auditor> auditor_;  ///< non-null iff config_.audit
  std::unique_ptr<Telemetry> telemetry_;  ///< non-null iff config_.telemetry

  // soa scheduling state (null except under kSoa): occupancy bits
  // rebuilt from the objects at construction and after Load; never
  // serialized, so snapshots are mode-independent.
  std::unique_ptr<SoaCore> soa_;

  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;
  std::uint64_t tick_steps_ = 0;

  // Deadlock-watchdog state. `progress_events_` counts forward-progress
  // events (switch traversals, flit injections, packet ejections) via the
  // router/NIC progress sinks; it changes exactly when the stats-scan sum
  // the watchdog previously recomputed every cycle would change, and is
  // never reset (ResetStats re-baselines `last_progress_counter_` instead).
  std::uint64_t progress_events_ = 0;
  std::uint64_t last_progress_counter_ = 0;
  Cycle last_progress_cycle_ = 0;
  bool deadlocked_ = false;
};

}  // namespace gnoc
