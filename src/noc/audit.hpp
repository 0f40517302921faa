// Runtime invariant auditor for the credit-based wormhole protocol.
//
// The simulator's headline numbers (VC monopolizing speedups, asymmetric
// partitioning gains, deadlock-safety claims) rest on the flow-control
// protocol being implemented exactly right: a silently leaked credit or a
// mis-accounted flit shifts every latency/IPC figure without failing any
// behavioural test. BookSim-class simulators ship always-on self-checks for
// exactly this reason; the Auditor is ours.
//
// Invariant classes checked:
//
//   Credit conservation   Per (link, VC), between atomic operations:
//                         sender credits + flits in the channel
//                         + downstream buffer occupancy + credits in the
//                         return channel == vc_depth. A leak or duplication
//                         anywhere in the credit loop breaks the sum.
//   Flit conservation     Globally: flits injected == flits ejected
//                         + flits buffered in routers + flits in channels.
//   Wormhole integrity    Per (link, VC): the flit stream is a sequence of
//                         well-formed packets — head, consecutive body
//                         seqs, tail — with no interleaving of two packets
//                         on one VC. Checked incrementally on both ends of
//                         every link and structurally over buffered
//                         contents at snapshot time.
//   Quiescence            After a successful drain: no flits anywhere, all
//                         credits home (or in flight back), all wormhole
//                         streams closed, NIC reassembly state empty, no
//                         live packet record left in the packet table.
//
// Cost model: when auditing is off the Network holds no Auditor and every
// hook site is a null-pointer test. When on, the per-flit hooks are O(1)
// counter/state updates; the O(links x VCs) snapshot sweep runs every
// `audit_interval` cycles.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/flit.hpp"
#include "noc/network_config.hpp"
#include "noc/packet.hpp"

namespace gnoc {

class JsonWriter;
class Nic;
class Router;

/// The invariant classes the auditor distinguishes.
enum class AuditInvariant : std::uint8_t {
  kCreditConservation = 0,
  kFlitConservation = 1,
  kWormhole = 2,
  kQuiescence = 3,
  /// Soa scheduling only: every link, router and NIC with work must have
  /// its occupancy bit set, and every router's flit count and derived
  /// masks must match a rebuild from its VC buffers
  /// (Router::DerivedStateMismatch). A clear bit on live work (a lost wake) is a scheduler bug
  /// that would silently freeze traffic rather than hang the process, so
  /// the auditor flags it. Checked at snapshot cadence.
  kSchedulerCoverage = 4,
};

inline constexpr int kNumAuditInvariants = 5;

/// Stable lowercase identifier, e.g. "credit-conservation" (used as JSON
/// key).
const char* AuditInvariantName(AuditInvariant inv);

/// One recorded invariant violation.
struct AuditViolation {
  AuditInvariant invariant = AuditInvariant::kCreditConservation;
  Cycle cycle = 0;
  std::string detail;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.invariant);
    Io(ar, self.cycle);
    Io(ar, self.detail);
  }
};

/// Faults the Network can plant in live channels so tests can prove each
/// invariant class actually trips (see Network::InjectFault).
enum class AuditFault : std::uint8_t {
  kDropCredit = 0,     ///< discard an in-flight credit (leaks a buffer slot)
  kDropFlit = 1,       ///< discard an in-flight flit
  kDuplicateFlit = 2,  ///< enqueue a copy of an in-flight flit
  kCorruptVc = 3,      ///< move an in-flight body/tail flit to another VC
};

const char* AuditFaultName(AuditFault fault);

/// Aggregated audit outcome of one run (or one Network; reports from
/// multiple networks are Merge()d).
struct AuditReport {
  bool enabled = false;
  std::uint64_t checks = 0;       ///< snapshot sweeps performed
  std::uint64_t events = 0;       ///< per-flit hook invocations
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t violations = 0;   ///< total, across all classes
  std::array<std::uint64_t, kNumAuditInvariants> by_invariant{};
  /// First few violations verbatim (capped; `violations` keeps the total).
  std::vector<AuditViolation> samples;

  bool clean() const { return violations == 0; }

  /// Folds another network's report into this one.
  void Merge(const AuditReport& other);

  /// Serializes as one JSON object (enabled/clean/counters/samples).
  void WriteJson(JsonWriter& w) const;

  /// Snapshot support (DESIGN.md §10).
  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.enabled);
    Io(ar, self.checks);
    Io(ar, self.events);
    Io(ar, self.flits_injected);
    Io(ar, self.flits_ejected);
    Io(ar, self.violations);
    Io(ar, self.by_invariant);
    IoSeq(ar, self.samples);
  }
};

/// Tracks invariants for one Network. Owned by the Network; routers and
/// NICs hold a raw pointer and call the event hooks, the Network drives the
/// snapshot and quiescence sweeps.
class Auditor {
 public:
  /// Retained violation samples per report.
  static constexpr std::size_t kMaxSamples = 16;

  /// One audited link: sender --flits--> receiver, receiver --credits-->
  /// sender. Exactly one of src_router / src_nic is set; every audited
  /// link terminates at a router input port.
  struct Link {
    std::string name;            ///< e.g. "r5.east" or "nic3.inject"
    bool injection = false;      ///< NIC -> router local port
    const FlitChannel* flits = nullptr;
    const CreditChannel* credits = nullptr;
    const Router* src_router = nullptr;
    Port src_port = Port::kLocal;  ///< sender's output port
    const Nic* src_nic = nullptr;
    const Router* dst_router = nullptr;
    Port dst_port = Port::kLocal;  ///< receiver's input port
  };

  /// Audits the network built from `config`, whose packet records
  /// `packets` holds (it reads the flits' packet ids there), sweeping
  /// every `config.audit_interval` cycles.
  Auditor(const NetworkConfig& config, const PacketTable& packets);

  /// Registers a link at wiring time; returns its id for the event hooks.
  int RegisterLink(Link link);

  /// Registers a NIC for the quiescence sweep (reassembly/ejection state).
  void RegisterNic(const Nic* nic);

  // --- per-flit event hooks (cheap) ---

  /// A flit entered the link's flit channel (sender side). `flit.vc` must
  /// already be the downstream VC.
  void OnFlitSent(int link, const Flit& flit, Cycle now);

  /// A flit was delivered into the receiving router's input buffer.
  void OnFlitReceived(int link, const Flit& flit, Cycle now);

  /// A flit left the network through a NIC ejection port.
  void OnFlitEjected(const Flit& flit, Cycle now);

  // --- sweeps (driven by the Network) ---

  bool SnapshotDue(Cycle now) const { return now >= next_check_; }

  /// Credit conservation per (link, VC), wormhole adjacency over buffered
  /// contents, and global flit conservation.
  void RunSnapshot(Cycle now);

  /// End-of-run invariants; call only once the network reports drained.
  void CheckQuiescence(Cycle now);

  /// Records a violation found by an external checker (the soa
  /// scheduler-coverage sweep). Same counting/sampling as internal checks.
  void ReportViolation(AuditInvariant inv, Cycle now, std::string detail) {
    Violate(inv, now, std::move(detail));
  }

  const AuditReport& report() const { return report_; }

  /// Snapshot support: wormhole stream state (per registered link, by
  /// registration index — link registration order is deterministic), the
  /// next snapshot cycle and the report. Link wiring is reconstructed.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  /// Incremental wormhole state of one VC on one side of a link.
  struct Stream {
    bool open = false;
    PacketId packet = 0;
    std::uint16_t next_seq = 0;

    template <class Self, class Ar>
    static void Fields(Self& self, Ar& ar) {
      Io(ar, self.open);
      Io(ar, self.packet);
      Io(ar, self.next_seq);
    }
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.next_check_);
    IoCount(ar, self.links_.size(), "audited link");
    for (auto& ls : self.links_) {
      IoSized(ar, ls.sent, "audited VC");
      IoSized(ar, ls.received, "audited VC");
    }
    Io(ar, self.report_);
  }

  struct LinkState {
    Link link;
    std::vector<Stream> sent;      ///< per VC, sender side
    std::vector<Stream> received;  ///< per VC, receiver side
  };

  void Violate(AuditInvariant inv, Cycle now, std::string detail);

  /// Advances `stream` past `flit`, reporting wormhole violations. After a
  /// violation the stream resyncs to the offending flit so one fault does
  /// not cascade into a violation per subsequent flit.
  void CheckStream(Stream& stream, const LinkState& ls, const char* side,
                   const Flit& flit, Cycle now);

  int SenderCredits(const LinkState& ls, VcId vc) const;
  int ReceiverOccupancy(const LinkState& ls, VcId vc) const;

  /// The packet id of `flit`, read from its record.
  PacketId PacketOf(const Flit& flit) const { return packets_[flit.slot].id; }

  NetworkConfig config_;  ///< every link has its num_vcs and vc_depth
  Cycle interval_;
  const PacketTable& packets_;
  Cycle next_check_ = 0;
  std::vector<LinkState> links_;
  std::vector<const Nic*> nics_;
  AuditReport report_;
};

}  // namespace gnoc
