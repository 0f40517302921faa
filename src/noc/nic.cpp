#include "noc/nic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "common/serialize.hpp"
#include "noc/arbiter.hpp"

#include "noc/audit.hpp"
#include "noc/telemetry.hpp"

namespace gnoc {

Nic::Nic(NodeId node, Coord coord, const NetworkConfig& config)
    : node_(node),
      coord_(coord),
      config_(config),
      policy_(config.vc_policy, config.num_vcs, config.qos.ReservedVcs()),
      sends_(static_cast<std::size_t>(config.num_vcs)),
      credits_(static_cast<std::size_t>(config.num_vcs), config.vc_depth) {
  // Same seeding rule as Router (both ends of a link must agree).
  boundary_ = InitialBoundary(config.num_vcs);
  next_boundary_update_ = config.dynamic_epoch;
  assert(config.num_vcs >= 1);
  assert(config.vc_depth >= 1);
  assert(config.inject_queue_capacity >= 1);
  assert(config.eject_capacity >= 1);
  for (std::size_t c = 0; c < qos_tokens_.size(); ++c) {
    const TrafficClassSpec& spec = config_.qos.classes[c];
    if (spec.rate > 0.0) {
      // Start with the full burst allowance (at least one flit, or a
      // 1-flit packet could never be admitted).
      qos_tokens_[c] = std::max(1, spec.burst) * kTokenScale;
    }
  }
  SetLinkMode(LinkMode::kMixed);
}

void Nic::SetLinkMode(LinkMode mode) {
  for (int c = 0; c < kNumClasses; ++c) {
    injection_vcs_[static_cast<std::size_t>(c)] =
        policy_.AllowedVcs(static_cast<TrafficClass>(c), Port::kLocal, mode);
  }
}

void Nic::SetInjectionChannel(FlitChannel* channel) {
  inject_channel_ = channel;
}

void Nic::SetCreditChannel(CreditChannel* channel) {
  credit_channel_ = channel;
}

void Nic::SetSink(PacketSink* sink) { sink_ = sink; }

bool Nic::Inject(const Packet& packet, Coord dst_coord, Cycle now) {
  (void)now;
  const auto ci = static_cast<std::size_t>(ClassIndex(packet.cls()));
  if (!CanInject(packet.cls())) return false;
  assert(packet.src == node_ && "packet injected at the wrong NIC");
  inject_queues_[ci].emplace_back(packet, dst_coord);
  ++stats_.packets_injected[ci];
  ++stats_.packets_by_type[static_cast<std::size_t>(packet.type)];
  return true;
}

std::size_t Nic::InjectQueueDepth(TrafficClass cls) const {
  return inject_queues_[static_cast<std::size_t>(ClassIndex(cls))].size();
}

void Nic::AcceptEjectedFlit(const Flit& flit, Cycle now) {
  (void)now;
  const auto ci = static_cast<std::size_t>(ClassIndex(flit.cls));
  assert(eject_held_[ci] < config_.eject_capacity &&
         "router ejected into a full NIC buffer");
  eject_buffers_[ci].push_back(flit);
  ++eject_held_[ci];
  ++stats_.flits_ejected[ci];
}

bool Nic::EnableSleep(const Cycle* clock) {
  if (config_.vc_policy == VcPolicyKind::kDynamic ||
      config_.qos.RegulatesInjection()) {
    return false;
  }
  sleep_.Attach(clock);
  return true;
}

bool Nic::Tick(Cycle now) {
  if (sleep_.asleep()) ChargeSkipped(sleep_.Wake(now));
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    // In a Network this runs at most once per tick: full ticks every NIC
    // every cycle, and soa ticks an idle NIC on each boundary cycle (its
    // NextDue, DESIGN.md §9). The loop form keeps a sparsely ticked
    // standalone NIC exact (missed epochs have zero counts and never move
    // the boundary).
    while (now >= next_boundary_update_) UpdateDynamicBoundary();
  }
  const bool credited = ConsumeCredits(now);
  const bool started = StartPackets(now);
  const SendOutcome sent = SendFlits(now);
  const bool delivered = DrainEjection(now);
  // A delivery may have injected here from inside the sink's Accept, and
  // a flit left in an ejection buffer waits on the sink, not on an event.
  if (sleep_.attached() && !credited && !started &&
      sent != SendOutcome::kSent && !delivered && eject_buffers_[0].empty() &&
      eject_buffers_[1].empty()) {
    sleep_charge_ = sent;
    sleep_.Sleep(now);
  }
  return delivered;
}

void Nic::ChargeSkipped(Cycle ticks) const {
  if (sleep_charge_ == SendOutcome::kStalled) {
    stats_.inject_stall_cycles += ticks;
  } else if (sleep_charge_ == SendOutcome::kDraining) {
    stats_.inject_drain_cycles += ticks;
  }
}

VcRange Nic::InjectionRange(TrafficClass cls) const {
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    return PartitionAt(cls, boundary_, config_.num_vcs);
  }
  return injection_vcs_[static_cast<std::size_t>(ClassIndex(cls))];
}

void Nic::UpdateDynamicBoundary() {
  StepBoundary(epoch_flits_, boundary_, config_.num_vcs);
  next_boundary_update_ += config_.dynamic_epoch;
}

[[gnu::always_inline]] inline bool Nic::ConsumeCredits(Cycle now) {
  bool changed = false;
  if (credit_channel_ != nullptr) {
    while (auto credit = credit_channel_->Pop(now)) {
      const auto vc = static_cast<std::size_t>(credit->vc);
      assert(vc < credits_.size());
      ++credits_[vc];
      assert(credits_[vc] <= config_.vc_depth && "injection credit overflow");
      changed = true;
    }
  }
  // Release draining VCs (atomic: only once the downstream buffer emptied).
  for (std::size_t v = 0; v < sends_.size(); ++v) {
    ActiveSend& send = sends_[v];
    if (send.busy && send.draining &&
        (!config_.atomic_vc_realloc ||
         credits_[v] == config_.vc_depth)) {
      send.busy = false;
      send.draining = false;
      changed = true;
    }
  }
  return changed;
}

bool Nic::QosAdmit(int ci, Cycle now) {
  const auto c = static_cast<std::size_t>(ci);
  const TrafficClassSpec& spec = config_.qos.classes[c];
  if (spec.rate <= 0.0) return true;
  // Lazy catch-up refill. The per-cycle increment is a fixed-point
  // integer, so `cycles * increment` is exactly the sum of the per-cycle
  // refills, and min-capping commutes with batching (it is monotone):
  // refilling once after N idle cycles lands on the same token count as
  // refilling every cycle.
  const auto increment =
      static_cast<std::int64_t>(std::llround(spec.rate * kTokenScale));
  const std::int64_t capacity = std::max(1, spec.burst) * kTokenScale;
  if (now > qos_refilled_[c] && increment > 0) {
    auto elapsed = static_cast<std::int64_t>(now - qos_refilled_[c]);
    // Cap the multiplication at "certainly full" so a long idle span can
    // never overflow; the min() below makes any larger elapsed equivalent.
    const std::int64_t to_full =
        (capacity - qos_tokens_[c] + increment - 1) / increment;
    elapsed = std::min(elapsed, std::max<std::int64_t>(to_full, 0));
    qos_tokens_[c] = std::min(capacity, qos_tokens_[c] + increment * elapsed);
    qos_refilled_[c] = now;
  }
  return qos_tokens_[c] >= 0;
}

[[gnu::always_inline]] inline bool Nic::StartPackets(Cycle now) {
  bool started = false;
  // Alternate which class gets first pick each cycle to avoid starvation.
  // The phase is derived from `now`, not from a tick counter: sparse
  // schedulers skip idle NICs, so a counter would drift out of phase with
  // the every-cycle backends and the class that wins a shared VC (fully
  // monopolizing policies) would differ across scheduling modes.
  for (int k = 0; k < kNumClasses; ++k) {
    const int ci = (static_cast<int>(now % kNumClasses) + k) % kNumClasses;
    auto& queue = inject_queues_[static_cast<std::size_t>(ci)];
    if (queue.empty()) continue;
    const auto cls = static_cast<TrafficClass>(ci);
    if (!QosAdmit(ci, now)) {
      // Rate-regulated: the head packet waits in the source queue; the
      // stall is charged to the class, not the network.
      ++stats_.qos_throttle_cycles[static_cast<std::size_t>(ci)];
      continue;
    }
    const VcRange range = InjectionRange(cls);
    VcId free_vc = kInvalidVc;
    for (VcId v = range.begin; v < range.end; ++v) {
      if (!sends_[static_cast<std::size_t>(v)].busy) {
        free_vc = v;
        break;
      }
    }
    if (free_vc == kInvalidVc) continue;
    auto [packet, dst_coord] = queue.front();
    queue.pop_front();
    if (config_.qos.classes[static_cast<std::size_t>(ci)].rate > 0.0) {
      // Charge the whole packet on admission; debt keeps later packets out.
      qos_tokens_[static_cast<std::size_t>(ci)] -=
          static_cast<std::int64_t>(packet.num_flits) * kTokenScale;
    }
    packet.injected = now;
    ActiveSend& send = sends_[static_cast<std::size_t>(free_vc)];
    send.busy = true;
    // A free VC's FIFO is empty (Load refuses one that is not), so every
    // flit in it now is one of this packet's.
    assert(send.remaining.empty());
    Packetize(packet, dst_coord, *packets_, send.remaining);
    for (Flit& f : send.remaining) f.vc = free_vc;
    started = true;
  }
  return started;
}

[[gnu::always_inline]] inline Nic::SendOutcome Nic::SendFlits(Cycle now) {
  if (inject_channel_ == nullptr) return SendOutcome::kNone;
  const auto num_vcs = sends_.size();
  int sent = 0;
  bool credit_blocked = false;
  bool draining_only = false;
  for (int round = 0; round < inject_flits_per_cycle_; ++round) {
    bool sent_this_round = false;
    for (std::size_t k = 0; k < num_vcs; ++k) {
      const std::size_t v = (send_rr_ + k) % num_vcs;
      ActiveSend& send = sends_[v];
      if (!send.busy) continue;
      if (send.draining) {
        // Tail already sent: the VC only waits for atomic recycle, nothing
        // here is blocked on credits.
        draining_only = true;
        continue;
      }
      if (credits_[v] <= 0) {
        credit_blocked = true;
        continue;
      }
      Flit flit = send.remaining.front();
      send.remaining.pop_front();
      --credits_[v];
      inject_channel_->Push(flit, now);
      if (auditor_ != nullptr) auditor_->OnFlitSent(audit_link_, flit, now);
      if (progress_sink_ != nullptr) ++*progress_sink_;
      ++stats_.flits_injected[static_cast<std::size_t>(ClassIndex(flit.cls))];
      ++epoch_flits_[static_cast<std::size_t>(ClassIndex(flit.cls))];
      if (send.remaining.empty()) send.draining = true;
      send_rr_ = (v + 1) % num_vcs;
      ++sent;
      sent_this_round = true;
      break;
    }
    if (!sent_this_round) break;
  }
  if (sent != 0) return SendOutcome::kSent;
  const bool queued = !inject_queues_[0].empty() || !inject_queues_[1].empty();
  if (credit_blocked || queued) {
    ++stats_.inject_stall_cycles;
    return SendOutcome::kStalled;
  }
  if (draining_only) {
    ++stats_.inject_drain_cycles;
    return SendOutcome::kDraining;
  }
  return SendOutcome::kNone;
}

[[gnu::always_inline]] inline bool Nic::DrainEjection(Cycle now) {
  bool delivered = false;
  for (int ci = 0; ci < kNumClasses; ++ci) {
    auto& buffer = eject_buffers_[static_cast<std::size_t>(ci)];
    while (!buffer.empty()) {
      const Flit& front = buffer.front();
      if (!IsTail(front)) {
        // Absorb into reassembly; capacity accounting keeps counting it via
        // eject_held_ until the whole packet is delivered.
        const PacketId id = (*packets_)[front.slot].id;
        if (Assembly* entry = FindAssembly(id)) {
          ++entry->flits;
        } else {
          assembled_.push_back(Assembly{id, 1});
        }
        buffer.pop_front();
        continue;
      }
      // Tail flit: the packet is complete (wormhole preserves flit order).
      // The sink gets a copy: its Accept may inject, which never touches
      // the table, but no reference into the table outlives the release.
      const PacketSlot slot = front.slot;
      const Packet packet = (*packets_)[slot].ToPacket(now);
      assert(packet.dst == node_ && "flit ejected at the wrong NIC");

      Assembly* entry = FindAssembly(packet.id);
      [[maybe_unused]] const int absorbed =
          entry == nullptr ? 0 : entry->flits;
      assert(absorbed + 1 == packet.num_flits &&
             "tail arrived before the rest of its packet");

      if (sink_ != nullptr && !sink_->Accept(packet, now)) {
        break;  // sink stalled: retry next cycle, backpressure holds
      }
      buffer.pop_front();
      packets_->Release(slot);
      // Accept may inject here, which leaves the list alone.
      if (entry != nullptr) {
        *entry = assembled_.back();
        assembled_.pop_back();
      }
      eject_held_[static_cast<std::size_t>(ci)] -= packet.num_flits;
      assert(eject_held_[static_cast<std::size_t>(ci)] >= 0);
      ++stats_.packets_ejected[static_cast<std::size_t>(ci)];
      if (progress_sink_ != nullptr) ++*progress_sink_;
      stats_.packet_latency[static_cast<std::size_t>(ci)].Add(
          static_cast<double>(now - packet.created));
      stats_.network_latency[static_cast<std::size_t>(ci)].Add(
          static_cast<double>(now - packet.injected));
      stats_.latency_histogram[static_cast<std::size_t>(ci)].Add(
          static_cast<double>(now - packet.created));
      if (telemetry_ != nullptr) {
        telemetry_->OnPacketDelivered(static_cast<TrafficClass>(ci),
                                      static_cast<double>(now - packet.created),
                                      now);
      }
      delivered = true;
      break;  // one packet per class per cycle
    }
  }
  return delivered;
}

Nic::Assembly* Nic::FindAssembly(PacketId id) {
  for (Assembly& entry : assembled_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

int Nic::EjectOccupancy(TrafficClass cls) const {
  return eject_held_[static_cast<std::size_t>(ClassIndex(cls))];
}

bool Nic::Idle() const {
  for (const auto& q : inject_queues_) {
    if (!q.empty()) return false;
  }
  for (const auto& s : sends_) {
    if (s.busy) return false;
  }
  for (const auto& held : eject_held_) {
    if (held != 0) return false;
  }
  return true;
}

Cycle Nic::NextDue() const {
  // An idle NIC's tick changes nothing until a credit lands or an epoch
  // boundary passes: the stall/drain counters need a queued packet or a
  // busy VC, QoS refill is lazy and runs only for a queued packet, and the
  // class alternation is derived from `now`.
  if (!Idle()) return 0;
  Cycle due = CreditDue();
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    due = std::min(due, next_boundary_update_);
  }
  return due;
}

void Nic::IoAssembly(Serializer& s) const {
  std::vector<Assembly> sorted = assembled_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Assembly& a, const Assembly& b) { return a.id < b.id; });
  s.U64(sorted.size());
  for (const Assembly& entry : sorted) {
    Io(s, entry.id);
    Io(s, entry.flits);
  }
}

void Nic::IoAssembly(Deserializer& d) {
  const std::size_t n = d.Count();
  // A run never lists more than kMaxEntries: each entry's packet holds or
  // held one of the router's input VCs, and a class's entries all held
  // theirs at once, when the class's oldest buffered tail arrived. The
  // bound also caps the repeat search below at kMaxEntries² comparisons.
  constexpr std::size_t kMaxEntries =
      static_cast<std::size_t>(kNumClasses) * kMaxArbiterInputs;
  if (n > kMaxEntries) {
    throw SerializeError("NIC " + std::to_string(node_) +
                         ": reassembly lists " + std::to_string(n) +
                         " packets, more than the " +
                         std::to_string(kMaxEntries) +
                         " its router's input VCs can carry");
  }
  assembled_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    Assembly entry;
    Io(d, entry.id);
    Io(d, entry.flits);
    if (FindAssembly(entry.id) != nullptr) {
      throw SerializeError("NIC " + std::to_string(node_) +
                           ": reassembly lists packet " +
                           std::to_string(entry.id) + " twice");
    }
    assembled_.push_back(entry);
  }
}

void Nic::Save(Serializer& s) const {
  Settle();
  Fields(*this, s);
}

void Nic::Load(Deserializer& d) {
  sleep_.Reset();  // a loaded NIC is awake until a tick puts it to sleep
  Fields(*this, d);
  // A credit count above the depth would overfill the router's input VC;
  // a negative one never reaches the depth again, wedging the VC.
  for (std::size_t v = 0; v < credits_.size(); ++v) {
    if (credits_[v] < 0 || credits_[v] > config_.vc_depth) {
      throw SerializeError("NIC " + std::to_string(node_) +
                           ": injection VC " + std::to_string(v) + " holds " +
                           std::to_string(credits_[v]) +
                           " credits, out of range [0, " +
                           std::to_string(config_.vc_depth) + "]");
    }
  }
  // StartPackets segments a queued packet into flits that the router
  // routes by destination and the sink takes by type.
  for (int c = 0; c < kNumClasses; ++c) {
    for (const auto& [packet, dst_coord] :
         inject_queues_[static_cast<std::size_t>(c)]) {
      packets_->CheckQueued(packet, dst_coord, static_cast<TrafficClass>(c));
    }
  }
  // SendFlits pops a sending VC's FIFO and puts its flits on the injection
  // link, where the router indexes input VCs by flit.vc.
  for (std::size_t v = 0; v < sends_.size(); ++v) {
    const ActiveSend& send = sends_[v];
    const bool sending = send.busy && !send.draining;
    if (send.remaining.empty() == sending) {
      throw SerializeError(
          "NIC " + std::to_string(node_) + ": injection VC " +
          std::to_string(v) + " holds " +
          std::to_string(send.remaining.size()) + " unsent flit(s) while " +
          (sending ? "sending" : send.busy ? "draining" : "free"));
    }
    for (const Flit& f : send.remaining) {
      if (f.vc != static_cast<VcId>(v)) {
        throw SerializeError("NIC " + std::to_string(node_) +
                             ": injection VC " + std::to_string(v) +
                             " holds a flit for VC " + std::to_string(f.vc));
      }
    }
  }
}

}  // namespace gnoc
