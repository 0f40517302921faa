// Virtual-channel wormhole router (paper Sec. 2.2).
//
// Pipeline model: an arriving flit is buffered in its input VC and becomes
// eligible one cycle later, modelling the RC/VA/SA stage; switch traversal
// happens the cycle it wins switch arbitration, and the link adds one more
// cycle. Route computation, VC allocation and switch allocation are all
// performed within one tick (the paper's routers fold RC+VA+SA into the
// first pipeline stage via lookahead/speculation).
//
// Flow control is credit-based: the router tracks, per output VC, how many
// buffer slots remain in the downstream input VC, and returns a credit
// upstream whenever a flit leaves one of its own input buffers.
//
// The port count is the topology's radix (5 for the paper's mesh: local +
// N/E/S/W; 8 for the concentrated mesh: 4 locals + compass). Ports
// [0, num_local_ports) eject into the attached NICs; the rest carry
// inter-router links. On topologies with wrap links (torus, circulant) the
// route LUT also carries the dateline VC half each hop must allocate from.
//
// The allocators arbitrate RequestMasks (arbiter.hpp), so radix × num_vcs
// — the VA arbiter's width — must be at most 64; the Network refuses wider
// configs and a standalone Router asserts it. Everything RC/VA/SA read on a
// visit is packed per router over that flat input-VC index: request masks
// (occupied, front class, routed, ejecting, holding an output VC), byte
// arrays (output port, output VC, dateline half), the front flits' ready
// cycles, an output-VC allocated mask and the 3 × radix arbiters as values
// (DESIGN.md §9 "Request masks"). A visit pays per requesting port, not
// per port: each stage walks the set bits of a port mask built alongside
// its requests. The input VCs' flits live in one slab per router
// (buffer.hpp). A flit is read only to route a head — the LUT is indexed
// by its destination tile and class — or to move it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"
#include "noc/network_config.hpp"
#include "noc/nic.hpp"
#include "noc/packet.hpp"
#include "noc/qos.hpp"
#include "noc/routing.hpp"
#include "noc/soa_core.hpp"
#include "noc/topology.hpp"
#include "noc/vc_policy.hpp"

namespace gnoc {

class Auditor;

/// Per-router counters, exposed for link-utilization analysis (Fig. 4/6).
struct RouterStats {
  /// Flits sent through each output port, by traffic class. Sized by the
  /// router's port count.
  std::vector<std::array<std::uint64_t, kNumClasses>> flits_out;
  /// Cycles in which at least one flit traversed the switch.
  std::uint64_t busy_cycles = 0;
  /// Total switch traversals.
  std::uint64_t flits_forwarded = 0;
  /// VA attempts that failed because no allowed output VC was free.
  std::uint64_t va_failures = 0;
  /// SA requests that lost arbitration or lacked credits.
  std::uint64_t sa_stalls = 0;
  /// Cycles an input VC with an allocated output VC could not traverse for
  /// lack of downstream credits, by *downstream* VC id (summed over output
  /// ports). Sized num_vcs by the Router; subset of `sa_stalls`.
  std::vector<std::uint64_t> credit_stall_by_vc;
  /// Sum over cycles of total buffered flits (divide by cycles for mean).
  std::uint64_t buffered_flit_cycles = 0;
};

/// One router. Wiring (channels, NICs) is injected by the Network.
class Router {
 public:
  /// Router `node` of `topology` (its index there), which gives it its
  /// port count, its local-port count and its per-(destination, class)
  /// route LUT; the topology is read here only.
  Router(NodeId node, Coord coord, const NetworkConfig& config,
         const Topology& topology);

  NodeId node() const { return node_; }
  Coord coord() const { return coord_; }
  const NetworkConfig& config() const { return config_; }

  /// Ports on this router (the topology's radix).
  int num_ports() const { return num_ports_; }
  /// Ports [0, num_local_ports) eject into NICs (1 except cmesh).
  int num_local_ports() const { return num_local_ports_; }

  // --- wiring (called once by Network) ---

  /// Downstream flit channel for `out_port` (nullptr on mesh boundary).
  void SetOutputChannel(Port out_port, FlitChannel* channel);

  /// Credit channel returning credits to the upstream router/NIC that feeds
  /// input port `in_port`.
  void SetCreditReturnChannel(Port in_port, CreditChannel* channel);

  /// The NIC attached to local port 0 (ejection target).
  void SetNic(Nic* nic);

  /// The NIC attached to local port `local_port` (cmesh has 4).
  void SetNic(int local_port, Nic* nic);

  /// Sets the statically analyzed class usage of the link leaving through
  /// `out_port` (consumed by link-aware partial monopolizing). Defaults to
  /// kMixed, which is always safe.
  void SetLinkMode(Port out_port, LinkMode mode);

  /// Attaches the network's invariant auditor (nullptr = auditing off).
  void SetAuditor(Auditor* auditor) { auditor_ = auditor; }

  /// Attaches the network's packet table, through which Save and Load walk
  /// the buffered flits' per-packet fields (needed once a flit is held).
  void SetPacketTable(PacketTable* packets) { packets_ = packets; }

  /// Audit link id of the link leaving through `out_port`.
  void SetAuditOutLink(Port out_port, int link) {
    audit_out_[static_cast<std::size_t>(PortIndex(out_port))] = link;
  }

  /// Audit link id of the link feeding `in_port`.
  void SetAuditInLink(Port in_port, int link) {
    audit_in_[static_cast<std::size_t>(PortIndex(in_port))] = link;
  }

  /// Counter bumped on every switch traversal (the network's incremental
  /// deadlock-watchdog progress signal). nullptr = off.
  void SetProgressSink(std::uint64_t* sink) { progress_sink_ = sink; }

  // --- per-cycle interface (called by Network) ---

  /// Delivers a flit arriving on `in_port`; it occupies the VC the upstream
  /// allocator chose (`flit.vc`) and becomes pipeline-eligible next cycle.
  void AcceptFlit(Port in_port, const Flit& flit, Cycle now);

  /// Delivers a credit for output port `out_port`, VC `vc`.
  void AcceptCredit(Port out_port, VcId vc);

  /// Runs one cycle: the charges of the visits skipped while asleep,
  /// epoch catch-up and output-VC recycling, then route computation, VC
  /// allocation, switch allocation and switch traversal over the input VCs
  /// whose front flit is ready by `now`. Returns the local ports that
  /// ejected a flit into their NIC (bit = port). With sleep enabled, a
  /// visit that changed nothing but the stall counters leaves the router
  /// Asleep().
  RequestMask Tick(Cycle now);

  /// True when the router holds a flit. The soa scheduler skips a router
  /// while this is false (DESIGN.md §9): an epoch boundary it misses is
  /// replayed, with its flit counts, by the next Tick before VA reads it.
  bool HasWork() const { return derived_.buffered != 0; }

  /// Lets the soa schedule put this router to sleep, `clock` being the
  /// schedule's clock (DESIGN.md §14). Returns false, and the router never
  /// sleeps, under the configs whose arbiter state the sleep rule does not
  /// compare: vc_policy=dynamic (epoch boundaries move the VC ranges),
  /// matrix arbiters and QoS arbitration.
  bool EnableSleep(const Cycle* clock);

  /// True from a visit that routed no head, moved no flit and left every
  /// VA arbiter it ran as it found it, with every occupied VC eligible,
  /// until the next visit: until a flit, a credit or NIC ejection space
  /// reaches it, each visit would charge what that one did and decide
  /// nothing new, whatever VC it granted or recycled. A VA pointer may lag
  /// full mode's meanwhile without changing a decision (DESIGN.md §14).
  bool Asleep() const { return sleep_.asleep(); }

  // --- introspection ---

  /// The counters, with the visits skipped while asleep charged through
  /// the schedule's clock.
  const RouterStats& stats() const {
    Settle();
    return stats_;
  }

  /// Zeroes the statistics counters (network state is untouched).
  void ResetStats();

  /// True when `out_port` is wired to a downstream channel. False on mesh
  /// boundaries and for local ports, which eject directly into the NICs.
  bool HasOutputChannel(Port out_port) const {
    return out_channels_[static_cast<std::size_t>(PortIndex(out_port))] !=
           nullptr;
  }

  /// Total flits currently buffered in all input VCs (a running count of
  /// the derived state; DerivedStateMismatch checks it against the
  /// buffers).
  std::size_t BufferedFlits() const { return derived_.buffered; }

  /// The output port a packet of class `cls` headed for tile `dst` takes
  /// here (the route LUT).
  Port RouteFor(TrafficClass cls, NodeId dst) const {
    return route_lut_[LutIndex(cls, dst)];
  }

  /// Occupancy of one input VC (for tests and invariant checks).
  std::size_t VcOccupancy(Port in_port, VcId vc) const;

  /// Visits the flits buffered in one input VC, oldest first (invariant
  /// auditing).
  void VisitVcFlits(Port in_port, VcId vc,
                    const std::function<void(const Flit&)>& fn) const;

  /// Credits currently available on one output VC (for tests).
  int OutputCredits(Port out_port, VcId vc) const;

  /// True when the output VC is currently allocated to a packet.
  bool OutputVcAllocated(Port out_port, VcId vc) const;

  /// Current request/reply VC boundary of `out_port` (dynamic policy only;
  /// requests use [0, boundary), replies [boundary, num_vcs)).
  VcId DynamicBoundary(Port out_port) const;

  /// Names the first derived mask or array (occupied, front classes,
  /// holding, front ready cycles, flit count) that differs from a rebuild
  /// from the VC buffers and the primary state; "" when all agree.
  std::string DerivedStateMismatch() const;

  /// Snapshot support (DESIGN.md §10): all mutable per-cycle state — input
  /// and output VCs (walked as the v5 per-VC sequence from the packed
  /// primary state), dynamic-boundary state, arbiter priorities, stats.
  /// Wiring (channels, NICs, auditor, hooks) and the route LUT are
  /// construction-derived and not serialized; Load requires a Router built
  /// from the identical config. Load throws SerializeError for an output
  /// port, output VC or credit count out of range (an output VC before it
  /// is narrowed to its byte) and rebuilds the derived state.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  /// What each visit skipped while asleep charges, recorded by the visit
  /// that fell asleep: every VA requester fails, and every VC holding an
  /// output VC or ejecting stalls in SA — on credits when it holds one.
  struct SleepCharge {
    std::uint64_t va_failures = 0;
    std::uint64_t sa_stalls = 0;
    RequestMask credit_stalled = 0;  ///< charged to the VC out_vc_ names
    std::size_t buffered = 0;
  };

  /// Snapshot format v5 fixes the order: one record per input VC (buffer,
  /// route_valid, out_port, out_vc as a VcId, eject, vc_half), then one
  /// per output VC (allocated, tail_sent, credits), read off the packed
  /// primary state bit by bit and byte by byte. A buffer is its slab
  /// VC's flits, each written from the flit and its packet's record.
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    const int total = self.NumInputVcs();
    const auto flit_io = [&self](auto& a, auto& flit) {
      IoFlit(a, flit, *self.packets_);
    };
    for (int i = 0; i < total; ++i) {
      const auto u = static_cast<std::size_t>(i);
      self.slab_.Walk(ar, i, flit_io);  // Load throws past vc_depth flits
      IoBit(ar, self.routed_, i);
      Io(ar, self.out_port_[u]);
      IoNarrow<VcId>(ar, self.out_vc_[u]);
      IoBit(ar, self.ejecting_, i);
      Io(ar, self.vc_half_[u]);
    }
    for (int i = 0; i < total; ++i) {
      IoBit(ar, self.allocated_, i);
      IoBit(ar, self.draining_, i);
      Io(ar, self.credits_[static_cast<std::size_t>(i)]);
    }
    IoEach(ar, self.boundaries_);
    IoEach(ar, self.epoch_flits_);
    IoDerived(ar, self.EpochDirty(), "router epoch-dirty flag");
    Io(ar, self.next_boundary_update_);
    IoEach(ar, self.va_arb_);
    IoEach(ar, self.sa_input_arb_);
    IoEach(ar, self.sa_output_arb_);
    IoEach(ar, self.qos_va_credit_);
    IoEach(ar, self.qos_sa1_credit_);
    IoEach(ar, self.qos_sa2_credit_);
    IoEach(ar, self.stats_.flits_out);
    Io(ar, self.stats_.busy_cycles);
    Io(ar, self.stats_.flits_forwarded);
    Io(ar, self.stats_.va_failures);
    Io(ar, self.stats_.sa_stalls);
    IoEach(ar, self.stats_.credit_stall_by_vc);
    Io(ar, self.stats_.buffered_flit_cycles);
  }

  /// Per-input-VC state the VC buffers and the primary fields determine:
  /// kept up to date by AcceptFlit, RouteHead, AllocateVcs and Traverse,
  /// never saved, rebuilt by Load. Bit / entry i is input VC i.
  struct Derived {
    RequestMask occupied = 0;  ///< the buffer holds a flit
    /// Bit i of class_mask[c]: VC i is occupied and its front flit has
    /// class c.
    std::array<RequestMask, kNumClasses> class_mask{};
    RequestMask holding = 0;  ///< out_vc_ names a downstream VC
    /// The front flit's `ready` cycle; meaningful for occupied VCs only.
    std::array<Cycle, kMaxArbiterInputs> front_ready{};
    std::size_t buffered = 0;  ///< flits across all input VCs
  };

  /// The derived state rebuilt from the slab and out_vc_.
  Derived Rebuild() const;

  /// Some port counted a flit since the last epoch boundary (the v5
  /// snapshot keeps this byte after the counts).
  bool EpochDirty() const {
    return std::any_of(epoch_flits_.begin(), epoch_flits_.end(),
                       [](const auto& c) { return (c[0] | c[1]) != 0; });
  }

  // --- pipeline stages -----------------------------------------------------
  //
  // The only copy of the allocation rules, driven by one visit loop
  // (Tick). A stage is only ever applied to an eligible VC: its front
  // flit is present and ready. The stages declared inline are defined in
  // router.cpp, where each compiles into Tick, their only caller.

  /// Commits every dynamic-partitioning epoch boundary `now` has reached.
  /// When the router is visited every cycle the loop body runs at most
  /// once; soa skips idle routers and this replays the boundaries they
  /// missed (DESIGN.md §9 gives why that is exact).
  void CatchUpEpochs(Cycle now) {
    if (config_.vc_policy != VcPolicyKind::kDynamic) return;
    while (now >= next_boundary_update_) UpdateDynamicBoundaries();
  }

  /// Frees output VCs whose packet has fully drained downstream.
  inline void RecycleOutputVcs();

  /// Records the charge of this quiet visit at `now` and falls asleep.
  void FallAsleep(Cycle now);

  /// Adds `visits` skipped visits' charge to the counters.
  void ChargeSkipped(Cycle visits) const;

  /// Charges the skipped visits up to the schedule's clock.
  void Settle() const {
    if (sleep_.asleep()) ChargeSkipped(sleep_.TakeToClock());
  }

  /// RC: routes the packet whose head flit is at the front of unrouted
  /// input VC `i` (output port, dateline VC half, ejection flag).
  inline void RouteHead(int i);

  /// VA on one output port: QoS-aware arbitration rounds over `requests`
  /// (bit i = flat input-VC index i). Each winner gets the lowest free VC
  /// of its allowed range (restricted to its dateline half) or counts a VA
  /// failure, until every request is served or the arbiter declines.
  /// Returns true when the port's round-robin pointer moved.
  inline bool AllocateVcs(int out_port, RequestMask requests);

  /// SA1 requests: the VCs of `eligible` whose next resource (downstream
  /// credit, or NIC ejection space) is available. A VC holding an output
  /// VC or ejecting that lacks it is charged an SA stall, and a credit
  /// stall on its downstream VC when credits are missing; a VC still
  /// waiting for VA requests nothing.
  inline RequestMask SwitchRequests(RequestMask eligible);

  /// One int per port (radix <= 64, the constructor's bound): an entry is
  /// written before it is read, and only for a port of the mask that goes
  /// with it.
  using PortInts = std::array<int, kMaxArbiterInputs>;

  /// SA2: one pass over the input ports of `nominated`, whose `nominee`
  /// entries hold the VC each nominated, builds the request mask of every
  /// output port such a VC routes to — the input ports whose nominee
  /// routes there — then each of those output ports grants one input port
  /// into `grant`. Returns the output ports granted (an arbiter may
  /// decline).
  inline RequestMask GrantOutputs(RequestMask nominated,
                                  const PortInts& nominee, PortInts& grant);

  /// ST: the front flit of input VC (`in_port`, `vc`) traverses the switch
  /// to `out_port` — stats, epoch counts, a credit upstream, then ejection
  /// into the NIC or a push onto the link with its downstream VC — and a
  /// tail resets the input VC.
  inline void Traverse(int out_port, int in_port, VcId vc, Cycle now);

  /// The class of occupied input VC `i`'s front flit.
  TrafficClass FrontClass(int i) const {
    int c = 0;
    while (c + 1 < kNumClasses &&
           (derived_.class_mask[static_cast<std::size_t>(c)] &
            RequestBit(i)) == 0) {
      ++c;
    }
    return static_cast<TrafficClass>(c);
  }

  /// Points input VC `i`'s front class and ready cycle at `front`.
  void SetFront(int i, const Flit& front) {
    for (RequestMask& m : derived_.class_mask) m &= ~RequestBit(i);
    derived_.class_mask[static_cast<std::size_t>(ClassIndex(front.cls))] |=
        RequestBit(i);
    derived_.front_ready[static_cast<std::size_t>(i)] = front.ready;
  }

  /// The VC range `cls` may allocate on `out_port` right now (honours the
  /// static policy, the link mode and — for kDynamic — the port boundary).
  inline VcRange AllowedRange(TrafficClass cls, Port out_port) const;

  /// Refreshes `out_port`'s entries of allowed_vcs_ from the policy and
  /// the port's link mode.
  void CacheAllowedVcs(int out_port);

  /// Moves each port's dynamic boundary one step towards the traffic share
  /// observed in the finished epoch, then starts a new epoch.
  void UpdateDynamicBoundaries();

  static std::size_t LutIndex(TrafficClass cls, NodeId dst) {
    return static_cast<std::size_t>(dst * kNumClasses + ClassIndex(cls));
  }

  int FlatVcIndex(Port port, VcId vc) const {
    return PortIndex(port) * config_.num_vcs + vc;
  }

  int NumInputVcs() const { return num_ports_ * config_.num_vcs; }

  NodeId node_;
  Coord coord_;
  NetworkConfig config_;
  VcPolicy policy_;
  int num_ports_;
  int num_local_ports_;

  // --- Input VCs, [port][vc] flattened: bit / entry / slab VC
  // FlatVcIndex. The slab and the fields below it are primary (saved);
  // derived_ is rebuilt from them.
  FlitSlab slab_;
  RequestMask routed_ = 0;    ///< out_port_ computed for the current packet
  RequestMask ejecting_ = 0;  ///< the current packet leaves via a local port
  std::array<Port, kMaxArbiterInputs> out_port_{};
  /// The allocated downstream VC, kInvalidVc = none (non-local ports).
  std::array<std::int8_t, kMaxArbiterInputs> out_vc_{};
  /// The dateline half constraint for VA, -1 = unrestricted.
  std::array<std::int8_t, kMaxArbiterInputs> vc_half_{};
  Derived derived_;

  // --- Output VCs (downstream input VCs), [port][vc] flattened, primary.
  RequestMask allocated_ = 0;  ///< held by a packet
  /// Tail forwarded, waiting to be recycled (atomic: once drained). Set
  /// when a tail leaves on a link, cleared by RecycleOutputVcs.
  RequestMask draining_ = 0;
  std::array<int, kMaxArbiterInputs> credits_{};  ///< free downstream slots

  std::vector<FlitChannel*> out_channels_;    // sized num_ports_
  std::vector<CreditChannel*> credit_return_;
  std::vector<LinkMode> link_modes_;          // default kMixed
  /// VcPolicy::AllowedVcs per (output port, class) under the port's link
  /// mode: the static policies' AllowedRange, off the per-cycle path.
  std::vector<std::array<VcRange, kNumClasses>> allowed_vcs_;
  std::vector<Nic*> nics_;                    // sized num_local_ports_

  Auditor* auditor_ = nullptr;
  PacketTable* packets_ = nullptr;
  std::vector<int> audit_out_;  // audit link ids, -1 = none
  std::vector<int> audit_in_;

  std::uint64_t* progress_sink_ = nullptr;

  /// Per-(destination tile, class) output ports and dateline VC halves,
  /// precomputed from the topology: entry dst * kNumClasses + class.
  std::vector<Port> route_lut_;
  std::vector<std::int8_t> route_half_;

  // Dynamic-partitioning state: per-port boundary and per-epoch flit
  // counters by class.
  std::vector<VcId> boundaries_;
  std::vector<std::array<std::uint64_t, kNumClasses>> epoch_flits_;
  Cycle next_boundary_update_ = 0;

  // One VA arbiter per output port (over all input VCs), one SA input
  // arbiter per input port (over its VCs), one SA output arbiter per output
  // port (over input ports), held by value. Kind per NetworkConfig::arbiter.
  std::vector<Arbiter> va_arb_;
  std::vector<Arbiter> sa_input_arb_;
  std::vector<Arbiter> sa_output_arb_;

  // Per-site WRR credit state (qos.arbitration == kWrr only; see
  // QosArbitrate in router.cpp). One entry per arbiter above, indexed like
  // it.
  std::vector<std::array<int, kNumClasses>> qos_va_credit_;
  std::vector<std::array<int, kNumClasses>> qos_sa1_credit_;
  std::vector<std::array<int, kNumClasses>> qos_sa2_credit_;

  // Sleep (soa only, never saved). Mutable with the counters: a read
  // charges the visits skipped so far.
  mutable SleepLedger sleep_;
  SleepCharge sleep_charge_;
  mutable RouterStats stats_;
};

}  // namespace gnoc
