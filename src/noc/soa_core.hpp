// Structure-of-arrays scheduling backend (DESIGN.md §14).
//
// The dense (kFull) tick walks AoS Router objects: every phase re-scans
// fat per-VC structs (an InputVc embeds its whole flit deque, so reading
// one flag strides ~100 bytes) and heap-allocates fresh request/nominee/
// grant vectors for every arbitration — ~15 allocations per router per
// cycle. scheduling=soa keeps the objects authoritative but hoists the
// *hot* state into contiguous per-network planes rebuilt once from the
// Topology graph wiring:
//
//   front_ready_[router:port:vc]  ready cycle of each input VC's head flit
//                                 (kNeverCycle when the VC is empty), so
//                                 RC/VA/SA eligibility is one u64 compare
//                                 on a dense plane instead of a deque deref
//   flit_due_[link]               delivery cycle of each flit channel's
//   credit_due_[link]             front item (kNeverCycle when empty),
//                                 maintained by the channel wake hooks, so
//                                 the delivery passes skip idle links
//   buffered_[router]             per-router flit occupancy (O(1) skip of
//                                 workless routers and O(1) watchdog sums)
//
// plus preallocated arbitration scratch shared by every router (all
// routers of one network have the topology's radix). The tick replays the
// dense phase order exactly — flit links, credit links, routers, NICs,
// each in ascending canonical index — reusing the object arbiters, route
// LUTs, VC policy and stats counters, so results are bit-identical to
// full. Flit payloads, credits, arbiter matrices and NIC cursors stay in
// the objects: Save/Load, the auditor and every introspection API read
// live state, and the only checkpoint-boundary conversion needed is
// RebuildFromObjects() after Network::Load.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gnoc {

class Auditor;
class Network;
class Router;

/// The per-input-VC / per-link sentinel for "empty" (no head flit, no
/// in-flight item): later than any reachable cycle.
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/// Contiguous hot-state planes plus preallocated arbitration scratch for
/// one Network; drives the scheduling=soa tick path. Owned by the Network
/// and wired at construction (installs the channel wake hooks that keep
/// the due planes sound).
class SoaCore {
 public:
  explicit SoaCore(Network& net);

  /// Re-derives every plane and counter from the authoritative object
  /// state. Called at construction and after Network::Load — the
  /// SoA<->object conversion at checkpoint boundaries (DESIGN.md §14).
  void RebuildFromObjects();

  /// The scheduler-coverage audit: compares every plane and running
  /// counter with what RebuildFromObjects would derive from the objects
  /// now, reporting each mismatch as kSchedulerCoverage. A stale plane
  /// entry is a lost update — the skip rules would freeze the work behind
  /// it. Called by the Network at audit snapshot cadence.
  void AuditPlanes(Auditor& auditor, Cycle now) const;

  /// Marks every link and router idle (due/ready planes kNeverCycle,
  /// occupancy counters zero) regardless of the objects: the planted
  /// lost-update fault of Network::ForceSleepAll (mutation tests only).
  void ForceSleepAll();

  // --- one cycle, in dense tick order (Network::TickSoa) ---

  /// Phase 1: pops every deliverable flit from every flit link in
  /// canonical order (due-plane guarded) into its destination router.
  void DeliverFlitLinks(Cycle now);
  /// Phase 2: pops every deliverable router-bound credit. NIC-bound
  /// credit channels are popped by the NIC itself in its Tick, exactly as
  /// the dense path leaves them.
  void DeliverCreditLinks(Cycle now);
  /// Phase 3: ticks every router with pending work in ascending index,
  /// replicating Router::Tick over the planes with zero allocations.
  void TickRouters(Cycle now);

  /// Component visits (links delivered + routers ticked) accumulated since
  /// the last call — the kSoa contribution to Network::TickSteps().
  std::uint64_t TakeSteps() {
    const std::uint64_t s = steps_;
    steps_ = 0;
    return s;
  }

  /// Equivalent to Network::FlitsInFlight() == 0: O(1) from the running
  /// buffered/channel counters whenever any flit exists, O(NICs) otherwise.
  bool NoFlitsInFlight() const;

  /// Total flits buffered in router input VCs (plane counter; equals the
  /// sum of Router::BufferedFlits over all routers).
  std::size_t BufferedTotal() const {
    return static_cast<std::size_t>(buffered_total_);
  }

 private:
  /// Wake-hook trampolines: every channel Push refreshes the link's due
  /// plane (the front item is always the earliest in a DelayLine).
  static void WakeFlitLink(void* ctx, std::size_t index);
  static void WakeCreditLink(void* ctx, std::size_t index);

  /// Router::Tick over the planes: dynamic-epoch catch-up, recycle,
  /// RC + VA, SA + ST, buffered-cycle accounting.
  void TickRouter(std::size_t r, Cycle now);

  /// Cached construction facts of one router.
  struct RouterRec {
    Router* router = nullptr;
    std::uint32_t vc_base = 0;  ///< offset of its VCs in front_ready_
    std::uint32_t buffered = 0;  ///< flits across its input VCs
  };

  Network& net_;

  // Per-network loop bounds (every router has the topology's radix).
  int num_ports_ = 0;
  int num_local_ports_ = 0;
  int num_vcs_ = 0;
  int total_vcs_ = 0;  ///< num_ports_ * num_vcs_
  bool dynamic_policy_ = false;

  std::vector<RouterRec> routers_;
  std::vector<Cycle> front_ready_;  ///< [router][port][vc]

  // Link planes, in the Network's canonical link order.
  std::vector<Cycle> flit_due_;
  std::vector<Cycle> credit_due_;  ///< kNeverCycle pinned for NIC-bound
  std::vector<std::uint8_t> credit_router_bound_;
  /// Destination plane offset of each flit link: front_ready_ index of
  /// (dst_router, dst_port, vc=0); add flit.vc on delivery.
  std::vector<std::uint32_t> flit_dst_base_;
  std::vector<std::uint32_t> flit_dst_router_;

  // Running occupancy counters (watchdog predicate, skip decisions).
  std::uint64_t buffered_total_ = 0;
  std::uint64_t flits_in_channels_ = 0;

  std::uint64_t steps_ = 0;

  // Preallocated arbitration scratch, reused by every router every cycle —
  // the allocations the dense path pays per port per cycle.
  std::vector<bool> va_requests_;   ///< total_vcs_
  std::vector<bool> sa1_requests_;  ///< num_vcs_
  std::vector<bool> sa2_requests_;  ///< num_ports_
  std::vector<int> nominee_;        ///< num_ports_
  std::vector<int> grant_;          ///< num_ports_
};

}  // namespace gnoc
