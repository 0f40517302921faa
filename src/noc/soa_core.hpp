// The skip schedule behind scheduling=soa (DESIGN.md §14).
//
// The full (kFull) tick visits every router, link and NIC every cycle.
// scheduling=soa keeps one occupancy bit per flit link, router-bound
// credit link, router and NIC, set by the event that can give the entry
// work:
//
//   flit link     a flit pushed onto it (channel wake hook)
//   credit link   a credit pushed onto a router-bound line (wake hook)
//   router        a flit delivered into it; while asleep, also a credit
//                 delivered to it or its NIC delivering a packet
//   NIC           Network::Inject, a flit ejected into it, or a credit
//                 pushed onto its credit line (wake hook)
//
// Each phase walks only the set bits, in the dense phase order — flit
// links, credit links, routers, NICs, each in ascending canonical index —
// and asks the object whether it has work: a link is delivered when
// DelayLine::Deliverable, a router ticks and drops its bit once
// Router::HasWork is false, and a NIC ticks when Nic::NextDue has come
// and drops its bit once NextDue is kNeverCycle. A link drops its bit at
// the visit that empties it.
//
// A router or NIC whose visit changed nothing but its stall counters falls
// asleep (Router::Tick, Nic::Tick): soa drops its occupancy bit, sets its
// asleep bit, and skips it until one of the events above wakes it; a
// sleeping NIC still ticks once its credit line's front is due. Each
// skipped visit would have charged what the visit that fell asleep
// charged, so the component's SleepLedger charges them in one step at its
// next visit or before any read of its counters. The bits are the only
// scheduler state: every skip decision reads the objects, so results are
// bit-identical to full, and a snapshot needs only RebuildFromObjects()
// after Network::Load (sleep is never saved: a resumed run visits every
// component until it falls asleep again).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gnoc {

class Auditor;
class Network;

/// The skipped visits of a component the soa schedule has put to sleep
/// (DESIGN.md §14). A component falls asleep after a visit that changed
/// nothing but its counters, recording what that visit charged; every
/// visit soa then skips would have charged the same. The ledger counts the
/// skipped visits not yet charged: up to the visit that wakes the
/// component (Wake) or, for a read of its counters, up to the schedule's
/// clock — the first cycle whose phases have not all run (TakeToClock).
class SleepLedger {
 public:
  /// Lets the component sleep, reading `clock` on TakeToClock. A ledger
  /// never attached never sleeps (scheduling=full, and the configs soa
  /// keeps awake).
  void Attach(const Cycle* clock) { clock_ = clock; }
  bool attached() const { return clock_ != nullptr; }
  bool asleep() const { return next_ != kNeverCycle; }

  /// Falls asleep after the visit at `now`.
  void Sleep(Cycle now) { next_ = now + 1; }
  /// Wakes for the visit at `now`: the skipped visits before it not yet
  /// charged (0 when awake).
  Cycle Wake(Cycle now) {
    const Cycle skipped = Take(now);
    next_ = kNeverCycle;
    return skipped;
  }
  /// The skipped visits before the clock not yet charged (0 when awake);
  /// they count as charged from here on.
  Cycle TakeToClock() { return asleep() ? Take(*clock_) : 0; }
  /// Forgets the sleep (Load: sleep is derived state, never saved).
  void Reset() { next_ = kNeverCycle; }

 private:
  Cycle Take(Cycle until) {
    if (until <= next_) return 0;  // awake, or no visit skipped yet
    const Cycle skipped = until - next_;
    next_ = until;
    return skipped;
  }

  const Cycle* clock_ = nullptr;
  Cycle next_ = kNeverCycle;  ///< first skipped visit not yet charged
};

/// The occupancy and asleep bitmaps of one Network; drives the
/// scheduling=soa tick path. Owned by the Network and wired at construction
/// (installs the channel wake hooks that set the bits and attaches the
/// routers' and NICs' sleep ledgers to its clock where their config lets
/// them sleep).
class SoaCore {
 public:
  explicit SoaCore(Network& net);

  /// Sets exactly the occupancy bits of the entries the objects say are
  /// live and clears every asleep bit: a component whose ledger is still
  /// asleep is visited, and charged, as if woken. Called at construction,
  /// after Network::Load and after fault planting.
  void RebuildFromObjects();

  /// The scheduler-coverage audit: reports as kSchedulerCoverage each live
  /// entry whose bit is clear — a lost wake would freeze the work behind
  /// it (a stale set bit only costs one visit) — and each router whose
  /// flit count or derived masks differ from a rebuild from its VC buffers
  /// (Router::DerivedStateMismatch). Liveness comes from the
  /// objects: a nonempty channel, a router whose VC buffers hold a flit or
  /// that Router::HasWork, a NIC with a NextDue. An asleep bit covers a
  /// router (its wakes are events), and a sleeping NIC needs its bit only
  /// while a credit is on its line; an asleep bit on a component whose
  /// ledger is awake is reported too. Called by the Network at audit
  /// snapshot cadence.
  void AuditCoverage(Auditor& auditor, Cycle now) const;

  /// Clears every bit regardless of the objects: the planted lost-wake
  /// fault of Network::ForceSleepAll (mutation tests only).
  void ForceSleepAll();

  /// NIC `tile` just took a packet (Network::Inject) or an ejected flit:
  /// wakes it, asleep or not.
  void WakeNic(std::size_t tile) {
    nic_asleep_.Clear(tile);
    nic_live_.Set(tile);
  }

  // --- one cycle, in dense tick order (Network::TickSoa) ---

  /// Phase 1: delivers every flit link whose front flit has arrived.
  void DeliverFlitLinks(Cycle now);
  /// Phase 2: delivers every router-bound credit link whose front credit
  /// has arrived. A NIC pops its own credit line in its Tick.
  void DeliverCreditLinks(Cycle now);
  /// Phase 3: ticks every router with work, waking the NIC behind each
  /// local port that ejected, and puts to sleep each router whose visit
  /// left it asleep.
  void TickRouters(Cycle now);
  /// Phase 4: ticks every NIC whose Nic::NextDue has come (a sleeping
  /// NIC's: its front credit's delivery), waking the sleeping router of
  /// each NIC that delivered a packet, and puts to sleep each NIC whose
  /// tick left it asleep. Then the clock passes `now`.
  void TickNics(Cycle now);

  /// Component visits (links delivered, routers and NICs ticked)
  /// accumulated since the last call — Network::TickSteps() under kSoa.
  std::uint64_t TakeSteps() {
    const std::uint64_t s = steps_;
    steps_ = 0;
    return s;
  }

  /// Equivalent to Network::FlitsInFlight() == 0, asking only the entries
  /// whose occupancy or asleep bit is set: no flit channel nonempty, no
  /// router holding a flit and no NIC not Idle().
  bool NoFlitsInFlight() const;

 private:
  /// One bit per entry, packed in u64 words: the entries a phase must
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

    /// True when `pred` holds for some set bit's index.
    template <typename Pred>
    bool Any(Pred&& pred) const {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          if (pred(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)))) {
            return true;
          }
        }
      }
      return false;
    }

   private:
    static std::uint64_t Bit(std::size_t i) {
      return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
  };

  /// Wake-hook trampolines: a push onto flit link `index`, onto
  /// router-bound credit link `index`, or onto the credit line of NIC
  /// `index` (which schedules a sleeping NIC's credit-due check).
  static void WakeFlitLink(void* ctx, std::size_t index);
  static void WakeCreditLink(void* ctx, std::size_t index);
  static void WakeNicCredit(void* ctx, std::size_t index);

  /// Router `r` has work: a flit was delivered into it.
  void WakeRouter(std::size_t r) {
    router_asleep_.Clear(r);
    router_live_.Set(r);
  }
  /// A credit or ejection space reached router `r`: wakes it if asleep.
  void NudgeRouter(std::size_t r) {
    if (router_asleep_.Test(r)) WakeRouter(r);
  }

  /// The first cycle NIC `tile` can be ticked: Nic::NextDue, or while it
  /// sleeps its front credit's delivery (Nic::CreditDue).
  Cycle NicDue(std::size_t tile) const;

  Network& net_;

  LiveBits flit_live_;    ///< [flit link], canonical order
  LiveBits credit_live_;  ///< [credit link], router-bound only
  LiveBits router_live_;  ///< [router]
  LiveBits nic_live_;     ///< [tile]
  /// [router]: asleep, holding flits; its bit in router_live_ is clear.
  LiveBits router_asleep_;
  /// [tile]: asleep until Inject or an ejection; its bit in nic_live_ is
  /// set exactly while a credit is on its line.
  LiveBits nic_asleep_;

  /// The router behind each NIC (tile order): the one its delivered
  /// packets nudge.
  std::vector<std::size_t> nic_router_;
  bool routers_sleep_ = false;  ///< some router's ledger is attached

  /// The first cycle whose phases have not all run: the sleep ledgers
  /// settle reads through the cycle before it.
  Cycle clock_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace gnoc
