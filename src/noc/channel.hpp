// Fixed-latency pipes connecting routers (and NICs to routers).
//
// All inter-router communication — flits downstream, credits upstream — goes
// through a DelayLine with latency >= 1 cycle. This decouples routers: the
// order in which routers tick within a cycle cannot change behaviour, so the
// network needs no global combinational scheduling.
#pragma once

#include <cassert>
#include <optional>
#include <utility>

#include "common/ring.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace gnoc {

/// Push notification that sets the soa scheduler's occupancy bit of the
/// channel's consumer (DESIGN.md §9): a plain function pointer + context +
/// a subscriber-chosen index. Unset hooks cost one null-pointer test per
/// push — the same cost model the auditor and telemetry hooks use.
struct WakeHook {
  void (*fn)(void* ctx, std::size_t index) = nullptr;
  void* ctx = nullptr;
  std::size_t index = 0;

  void Notify() const {
    if (fn != nullptr) fn(ctx, index);
  }
};

/// A credit returned upstream: the downstream router freed one slot of input
/// VC `vc` on the link this channel models.
struct Credit {
  VcId vc = kInvalidVc;

  template <class Self, class Ar>
  static void Fields(Self& c, Ar& ar) {
    Io(ar, c.vc);
  }
};

inline void Save(Serializer& s, const Credit& c) { Credit::Fields(c, s); }
inline void Load(Deserializer& d, Credit& c) { Credit::Fields(c, d); }

/// A FIFO pipe where each item becomes visible `latency` cycles after being
/// pushed. Unbounded: admission control is done by credits, not by the wire.
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(Cycle latency = 1) : latency_(latency) {
    assert(latency >= 1);
  }

  Cycle latency() const { return latency_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Fires `hook` on every Push (soa scheduling: a push gives the
  /// consumer work).
  void SetWakeHook(WakeHook hook) { wake_ = hook; }

  /// Enqueues `item` at time `now`; it is deliverable at `now + latency`.
  void Push(T item, Cycle now) {
    items_.emplace_back(now + latency_, std::move(item));
    wake_.Notify();
  }

  /// True when the front item has arrived by `now`.
  bool Deliverable(Cycle now) const {
    return !items_.empty() && items_.front().first <= now;
  }

  /// Delivery cycle of the oldest in-flight item (a sleeping NIC's
  /// Nic::NextDue). Requires a non-empty line.
  Cycle FrontDue() const {
    assert(!items_.empty());
    return items_.front().first;
  }

  /// Pops the front item if it has arrived by `now`.
  std::optional<T> Pop(Cycle now) {
    if (!Deliverable(now)) return std::nullopt;
    T item = std::move(items_.front().second);
    items_.pop_front();
    return item;
  }

  /// Visits every enqueued item oldest-first (invariant auditing).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [due, item] : items_) fn(item);
  }

  // Fault planting (audit mutation tests only — see noc/audit.hpp). These
  // deliberately break the wire's FIFO/conservation contract so tests can
  // prove the auditor notices.

  /// Silently discards the oldest in-flight item. False when empty.
  bool DiscardFront() {
    if (items_.empty()) return false;
    items_.pop_front();
    return true;
  }

  /// Enqueues a copy of the newest in-flight item (same delivery time).
  /// False when empty.
  bool DuplicateBack() {
    if (items_.empty()) return false;
    items_.push_back(items_.back());
    return true;
  }

  /// Applies `fn` to in-flight items oldest-first until it returns true
  /// (item mutated); returns whether any item was mutated.
  template <typename Fn>
  bool MutateOne(Fn&& fn) {
    for (auto& [due, item] : items_) {
      if (fn(item)) return true;
    }
    return false;
  }

  /// Snapshot support: in-flight items with their delivery times, each
  /// item through `item_io(ar, item)` (Io by default; a flit line passes
  /// its network's packet table). Load writes `items_` directly — no Push,
  /// so no wake hooks fire; the soa bits are rebuilt from the loaded
  /// objects by Network::Load.
  template <class Self, class Ar, class ItemIo>
  static void Fields(Self& self, Ar& ar, ItemIo&& item_io) {
    IoSeqWith(ar, self.items_, [&](auto& a, auto& entry) {
      Io(a, entry.first);
      item_io(a, entry.second);
    });
  }
  void Save(Serializer& s) const { Fields(*this, s, kIo); }
  void Load(Deserializer& d) { Fields(*this, d, kIo); }

 private:
  static constexpr auto kIo = [](auto& ar, auto& item) { Io(ar, item); };

  Cycle latency_;
  WakeHook wake_;
  Ring<std::pair<Cycle, T>> items_;
};

using FlitChannel = DelayLine<Flit>;
using CreditChannel = DelayLine<Credit>;

}  // namespace gnoc
