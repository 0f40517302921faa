// Structure-of-arrays scheduling backend (DESIGN.md §14).
//
// The full (kFull) tick visits every router, link and NIC every cycle,
// and a router derives its eligible VCs from the AoS Router objects (an
// InputVc embeds its VC buffer's ring header, so reading one flag strides
// 64 bytes, and its front flit is one more pointer away). scheduling=soa
// keeps the objects authoritative but hoists the *hot* state into
// contiguous per-network planes rebuilt once from the Topology graph
// wiring:
//
//   front_ready_[router:port:vc]  ready cycle of each input VC's head flit
//                                 (kNeverCycle when the VC is empty), so
//                                 RC/VA/SA eligibility is one u64 compare
//                                 on a dense plane instead of a ring deref
//   flit_due_[link]               delivery cycle of each flit channel's
//   credit_due_[link]             front item (kNeverCycle when empty),
//                                 maintained by the channel wake hooks, so
//                                 the delivery passes skip idle links
//   buffered_[router]             per-router flit occupancy (O(1) skip of
//                                 workless routers and O(1) watchdog sums)
//   nic_due_[tile]                first cycle a NIC tick can change state
//                                 (Nic::NextDue): 0 while the NIC holds a
//                                 packet or flit, else its earliest
//                                 in-flight credit or (vc_policy=dynamic)
//                                 epoch boundary
//
// plus one occupancy bit per flit link, router-bound credit link, router
// and NIC — set when the entry becomes live, cleared when it goes idle —
// so each phase visits the set bits instead of scanning the whole plane.
// The tick keeps the dense phase order — flit links, credit links,
// routers, NICs, each in ascending canonical index. Each router runs
// Router::Visit, the one visit loop over the only copy of the allocation
// rules (router.hpp); soa decides only which VCs are eligible (one
// RequestMask read off the router's front_ready_ slice), what it may skip
// and how the planes stay current, so results are bit-identical to full.
// A NIC's skip rule is its own Nic::NextDue.
// Flit payloads, credits, arbiter matrices and NIC cursors stay in the
// objects: Save/Load, the auditor and every introspection API read live
// state, and the only checkpoint-boundary conversion needed is
// RebuildFromObjects() after Network::Load.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gnoc {

class Auditor;
class Network;
class Router;

/// Contiguous hot-state planes for one Network; drives the scheduling=soa
/// tick path. Owned by the Network
/// and wired at construction (installs the channel wake hooks that keep
/// the due planes sound).
class SoaCore {
 public:
  explicit SoaCore(Network& net);

  /// Re-derives every plane, bitmap and counter from the authoritative
  /// object state. Called at construction and after Network::Load — the
  /// SoA<->object conversion at checkpoint boundaries (DESIGN.md §14).
  void RebuildFromObjects();

  /// The scheduler-coverage audit: compares every plane and running
  /// counter with what RebuildFromObjects would derive from the objects
  /// now, and checks that every live entry has its occupancy bit set,
  /// reporting each mismatch as kSchedulerCoverage. A stale plane entry or
  /// a clear bit is a lost update — the skip rules would freeze the work
  /// behind it (a stale set bit only costs one visit). Called by the
  /// Network at audit snapshot cadence.
  void AuditPlanes(Auditor& auditor, Cycle now) const;

  /// Marks every link, router and NIC idle (due/ready planes kNeverCycle,
  /// occupancy counters and bitmaps zero) regardless of the objects: the
  /// planted lost-update fault of Network::ForceSleepAll (mutation tests
  /// only).
  void ForceSleepAll();

  /// NIC `tile` just took a packet (Network::Inject) or an ejected flit
  /// (switch traversal): it is due this cycle.
  void WakeNic(std::size_t tile) {
    nic_due_[tile] = 0;
    nic_live_.Set(tile);
  }

  // --- one cycle, in dense tick order (Network::TickSoa) ---

  /// Phase 1: pops every deliverable flit from every flit link in
  /// canonical order (due-plane guarded) into its destination router.
  void DeliverFlitLinks(Cycle now);
  /// Phase 2: pops every deliverable router-bound credit. NIC-bound
  /// credit channels are popped by the NIC itself in its Tick, exactly as
  /// the dense path leaves them.
  void DeliverCreditLinks(Cycle now);
  /// Phase 3: ticks every router with pending work in ascending index
  /// (TickRouter).
  void TickRouters(Cycle now);
  /// Phase 4: object-ticks every NIC whose nic_due_ has come, in ascending
  /// tile order, and re-reads its Nic::NextDue after the tick.
  void TickNics(Cycle now);

  /// Component visits (links delivered, routers and NICs ticked)
  /// accumulated since the last call — Network::TickSteps() under kSoa.
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
  /// One bit per plane entry, packed in u64 words: the entries a phase must
  /// visit. ForEach walks the set bits in ascending index and re-reads the
  /// current word after every visit, so a bit a visit sets further up the
  /// word is visited in the same sweep and one it sets below waits for the
  /// next — the order the dense loop would see the entries in.
  class LiveBits {
   public:
    void Reset(std::size_t n) { words_.assign((n + 63) / 64, 0); }
    void Set(std::size_t i) { words_[i / 64] |= Bit(i); }
    void Clear(std::size_t i) { words_[i / 64] &= ~Bit(i); }
    bool Test(std::size_t i) const { return (words_[i / 64] & Bit(i)) != 0; }
    void ClearAll() { std::fill(words_.begin(), words_.end(), 0); }

    template <typename Fn>
    void ForEach(Fn&& visit) {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        std::uint64_t bits = words_[w];
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          visit(w * 64 + static_cast<std::size_t>(b));
          bits = words_[w] & ~((std::uint64_t{2} << b) - 1);  // above b
        }
      }
    }

   private:
    static std::uint64_t Bit(std::size_t i) {
      return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
  };

  /// Wake-hook trampolines: every channel Push refreshes the link's due
  /// plane (the front item is always the earliest in a DelayLine) — or,
  /// for a NIC-bound credit line, pulls the NIC's due cycle forward.
  static void WakeFlitLink(void* ctx, std::size_t index);
  static void WakeCreditLink(void* ctx, std::size_t index);

  /// Router::Visit over the VCs the ready plane marks eligible, then the
  /// plane refresh of every VC it moved and the wake of every NIC it
  /// ejected into.
  void TickRouter(std::size_t r, Cycle now);

  /// Clears every occupancy bitmap.
  void ClearLiveBits();

  /// True when router `r`'s tick can change state (DESIGN.md §9).
  bool RouterHasWork(std::size_t r) const;

  /// Cached construction facts of one router.
  struct RouterRec {
    Router* router = nullptr;
    std::uint32_t vc_base = 0;  ///< offset of its VCs in front_ready_
    std::uint32_t buffered = 0;  ///< flits across its input VCs
  };

  /// credit_nic_ entry of a router-bound credit link.
  static constexpr std::uint32_t kRouterBound = ~std::uint32_t{0};

  Network& net_;

  // Input VCs per router (every router has the topology's radix).
  int total_vcs_ = 0;  ///< radix * num_vcs
  bool dynamic_policy_ = false;

  std::vector<RouterRec> routers_;
  std::vector<Cycle> front_ready_;  ///< [router][port][vc]
  std::vector<Cycle> nic_due_;      ///< [tile]

  // Link planes, in the Network's canonical link order.
  std::vector<Cycle> flit_due_;
  std::vector<Cycle> credit_due_;  ///< kNeverCycle pinned for NIC-bound
  /// Receiving tile of each NIC-bound credit link; kRouterBound otherwise.
  std::vector<std::uint32_t> credit_nic_;
  /// Destination plane offset of each flit link: front_ready_ index of
  /// (dst_router, dst_port, vc=0); add flit.vc on delivery.
  std::vector<std::uint32_t> flit_dst_base_;
  std::vector<std::uint32_t> flit_dst_router_;

  // Occupancy bitmaps over the planes: the entries each phase visits.
  LiveBits flit_live_;
  LiveBits credit_live_;  ///< router-bound links only
  LiveBits router_live_;
  LiveBits nic_live_;

  // Running occupancy counters (watchdog predicate, skip decisions).
  std::uint64_t buffered_total_ = 0;
  std::uint64_t flits_in_channels_ = 0;

  std::uint64_t steps_ = 0;
};

}  // namespace gnoc
