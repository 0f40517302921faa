#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"

#include "noc/audit.hpp"

namespace gnoc {

namespace {

/// The dateline restriction of a class's VC range: half 0 is the lower
/// (pre-wrap) half, half 1 the upper (post-wrap) half. Needs size >= 2 —
/// the Network validates that for every dateline topology at construction.
VcRange DatelineHalf(VcRange range, std::int8_t half) {
  assert(range.size() >= 2 && "dateline topologies need >= 2 VCs per class");
  const VcId mid = range.begin + range.size() / 2;
  return half == 0 ? VcRange{range.begin, mid} : VcRange{mid, range.end};
}

/// QosArbitrate under kStrict or kWrr. Request i's class is the c whose
/// `classes[c] >> shift` has bit i set (only the bits of `requests` are
/// read; each lies in exactly one class). The arbiter sees the OR of the
/// allowed classes' requests. kStrict allows the highest-priority
/// requesting class; ties fall through to plain arbitration. kWrr spends
/// per-class credits (`wrr_credit`, persistent per arbiter site): when no
/// requesting class holds credit the credits recharge to the class
/// weights, the funded classes are allowed, and the winner's class pays
/// one credit.
int ArbitrateByClass(Arbiter& arb, RequestMask requests, const QosConfig& qos,
                     std::array<int, kNumClasses>& wrr_credit,
                     const std::array<RequestMask, kNumClasses>& classes,
                     int shift) {
  const QosArbitration mode = qos.arbitration;
  if (requests == 0) return -1;
  constexpr auto kClasses = static_cast<std::size_t>(kNumClasses);
  std::array<RequestMask, kClasses> by_class;
  for (std::size_t c = 0; c < kClasses; ++c) {
    by_class[c] = requests & (classes[c] >> shift);
  }
  RequestMask allowed = 0;
  if (mode == QosArbitration::kStrict) {
    int best = 0;
    bool seeded = false;
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (by_class[c] != 0 && (!seeded || qos.classes[c].priority > best)) {
        best = qos.classes[c].priority;
        seeded = true;
      }
    }
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (qos.classes[c].priority == best) allowed |= by_class[c];
    }
  } else {  // kWrr
    bool funded = false;
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (by_class[c] != 0 && wrr_credit[c] > 0) funded = true;
    }
    if (!funded) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        wrr_credit[c] = std::max(1, qos.classes[c].priority);
      }
    }
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (wrr_credit[c] > 0) allowed |= by_class[c];
    }
  }
  const int winner = arb.Arbitrate(allowed);
  if (mode == QosArbitration::kWrr && winner >= 0) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      if ((by_class[c] & RequestBit(winner)) != 0) --wrr_credit[c];
    }
  }
  return winner;
}

/// One arbiter invocation of the VA, SA1 or SA2 stage under `qos`. Under
/// kNone it is exactly `arb.Arbitrate(requests)`, inline in the stage (the
/// per-visit cost of a network without QoS); otherwise ArbitrateByClass.
inline int QosArbitrate(Arbiter& arb, RequestMask requests,
                        const QosConfig& qos,
                        std::array<int, kNumClasses>& wrr_credit,
                        const std::array<RequestMask, kNumClasses>& classes,
                        int shift) {
  if (qos.arbitration == QosArbitration::kNone) return arb.Arbitrate(requests);
  return ArbitrateByClass(arb, requests, qos, wrr_credit, classes, shift);
}

}  // namespace

Router::Router(NodeId node, Coord coord, const NetworkConfig& config,
               const Topology& topology)
    : node_(node),
      coord_(coord),
      config_(config),
      policy_(config.vc_policy, config.num_vcs, config.qos.ReservedVcs()),
      num_ports_(topology.radix()),
      num_local_ports_(topology.num_local_ports()),
      slab_(num_ports_ * config.num_vcs, config.vc_depth) {
  assert(config.num_vcs >= 1);
  assert(config.vc_depth >= 1);
  const auto total_vcs = static_cast<std::size_t>(NumInputVcs());
  out_vc_.fill(kInvalidVc);
  vc_half_.fill(-1);
  out_channels_.assign(static_cast<std::size_t>(num_ports_), nullptr);
  credit_return_.assign(static_cast<std::size_t>(num_ports_), nullptr);
  link_modes_.assign(static_cast<std::size_t>(num_ports_), LinkMode::kMixed);
  allowed_vcs_.resize(static_cast<std::size_t>(num_ports_));
  for (int p = 0; p < num_ports_; ++p) CacheAllowedVcs(p);
  nics_.assign(static_cast<std::size_t>(num_local_ports_), nullptr);
  // Both ends of every link must seed the same dynamic boundary — the NIC
  // uses the same helper for its injection link.
  boundaries_.assign(static_cast<std::size_t>(num_ports_),
                     InitialBoundary(config_.num_vcs));
  epoch_flits_.assign(static_cast<std::size_t>(num_ports_), {});
  next_boundary_update_ = config_.dynamic_epoch;
  stats_.flits_out.assign(static_cast<std::size_t>(num_ports_), {});
  stats_.credit_stall_by_vc.assign(static_cast<std::size_t>(config_.num_vcs),
                                   0);
  audit_out_.assign(static_cast<std::size_t>(num_ports_), -1);
  audit_in_.assign(static_cast<std::size_t>(num_ports_), -1);
  const int tiles = topology.num_tiles();
  route_lut_.reserve(static_cast<std::size_t>(tiles * kNumClasses));
  route_half_.reserve(static_cast<std::size_t>(tiles * kNumClasses));
  for (NodeId dst = 0; dst < tiles; ++dst) {
    for (int c = 0; c < kNumClasses; ++c) {
      const RouteStep step = topology.Route(
          config_.routing, static_cast<TrafficClass>(c), node_, dst);
      route_lut_.push_back(static_cast<Port>(step.port));
      route_half_.push_back(step.vc_half);
    }
  }
  const auto ports = static_cast<std::size_t>(num_ports_);
  va_arb_.assign(ports, Arbiter(config_.arbiter, total_vcs));
  sa_input_arb_.assign(
      ports,
      Arbiter(config_.arbiter, static_cast<std::size_t>(config_.num_vcs)));
  sa_output_arb_.assign(ports, Arbiter(config_.arbiter, ports));
  qos_va_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  qos_sa1_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  qos_sa2_credit_.assign(static_cast<std::size_t>(num_ports_), {});
}

void Router::SetOutputChannel(Port out_port, FlitChannel* channel) {
  out_channels_[static_cast<std::size_t>(PortIndex(out_port))] = channel;
  // Credits for a fresh link equal the downstream buffer depth.
  if (channel != nullptr) {
    for (VcId v = 0; v < config_.num_vcs; ++v) {
      credits_[static_cast<std::size_t>(FlatVcIndex(out_port, v))] =
          config_.vc_depth;
    }
  }
}

void Router::SetCreditReturnChannel(Port in_port, CreditChannel* channel) {
  credit_return_[static_cast<std::size_t>(PortIndex(in_port))] = channel;
}

void Router::SetNic(Nic* nic) { nics_[0] = nic; }

void Router::SetNic(int local_port, Nic* nic) {
  nics_[static_cast<std::size_t>(local_port)] = nic;
}

void Router::SetLinkMode(Port out_port, LinkMode mode) {
  link_modes_[static_cast<std::size_t>(PortIndex(out_port))] = mode;
  CacheAllowedVcs(PortIndex(out_port));
}

void Router::CacheAllowedVcs(int out_port) {
  const auto p = static_cast<std::size_t>(out_port);
  for (int c = 0; c < kNumClasses; ++c) {
    allowed_vcs_[p][static_cast<std::size_t>(c)] = policy_.AllowedVcs(
        static_cast<TrafficClass>(c), static_cast<Port>(out_port),
        link_modes_[p]);
  }
}

void Router::AcceptFlit(Port in_port, const Flit& flit, Cycle now) {
  if (auditor_ != nullptr) {
    const int link = audit_in_[static_cast<std::size_t>(PortIndex(in_port))];
    if (link >= 0) auditor_->OnFlitReceived(link, flit, now);
  }
  assert(flit.vc >= 0 && flit.vc < config_.num_vcs);
  const int i = FlatVcIndex(in_port, flit.vc);
  assert(!slab_.full(i) && "credit protocol violated: buffer overflow");
  Flit f = flit;
  f.ready = now + 1;  // models the RC/VA/SA pipeline stage
  slab_.Push(i, f);
  ++derived_.buffered;
  if ((derived_.occupied & RequestBit(i)) == 0) {
    derived_.occupied |= RequestBit(i);
    SetFront(i, f);
  }
}

void Router::AcceptCredit(Port out_port, VcId vc) {
  assert(vc >= 0 && vc < config_.num_vcs);
  int& credits = credits_[static_cast<std::size_t>(FlatVcIndex(out_port, vc))];
  ++credits;
  assert(credits <= config_.vc_depth && "credit overflow");
}

bool Router::EnableSleep(const Cycle* clock) {
  if (config_.vc_policy == VcPolicyKind::kDynamic ||
      config_.arbiter != ArbiterKind::kRoundRobin ||
      config_.qos.arbitration != QosArbitration::kNone) {
    return false;
  }
  sleep_.Attach(clock);
  return true;
}

RequestMask Router::Tick(Cycle now) {
  if (sleep_.asleep()) ChargeSkipped(sleep_.Wake(now));
  CatchUpEpochs(now);
  RecycleOutputVcs();
  // Whether a front flit is ready is data, so it is ORed in, not branched
  // on.
  RequestMask eligible = 0;
  for (RequestMask rest = derived_.occupied; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    eligible |= static_cast<RequestMask>(
                    derived_.front_ready[static_cast<std::size_t>(i)] <= now)
                << i;
  }
  // With no VC eligible, VA/SA/ST cannot touch any state: requests stay
  // empty, no arbiter runs and the stall counters only fire for eligible
  // VCs.
  if (eligible == 0) {
    stats_.buffered_flit_cycles += derived_.buffered;
    return 0;
  }

  // --- RC: route every eligible head; every eligible VC is routed after.
  const RequestMask unrouted = eligible & ~routed_;
  for (RequestMask rest = unrouted; rest != 0; rest &= rest - 1) {
    RouteHead(std::countr_zero(rest));
  }

  // --- VA: a routed packet that leaves on a link and holds no downstream
  // VC requests its route's output port (local ports need none: the NIC
  // reassembles per class). va_ports marks the output ports requested,
  // and only their va_requests entries are written (zeroed on a port's
  // first request) and read. VA serves the ports with a downstream
  // channel.
  std::array<RequestMask, kMaxArbiterInputs> va_requests;
  RequestMask va_ports = 0;
  const RequestMask wants_vc = eligible & ~ejecting_ & ~derived_.holding;
  for (RequestMask rest = wants_vc; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    const int op = PortIndex(out_port_[static_cast<std::size_t>(i)]);
    const auto o = static_cast<std::size_t>(op);
    if ((va_ports & RequestBit(op)) == 0) va_requests[o] = 0;
    va_requests[o] |= RequestBit(i);
    va_ports |= RequestBit(op);
  }
  bool va_moved = false;
  for (RequestMask rest = va_ports; rest != 0; rest &= rest - 1) {
    const int op = std::countr_zero(rest);
    if (out_channels_[static_cast<std::size_t>(op)] != nullptr) {
      va_moved |= AllocateVcs(op, va_requests[static_cast<std::size_t>(op)]);
    }
  }
  // So far the visit changed nothing but counters, the output-VC mask and
  // VA's grants, and no front flit is still in its pipeline cycle. If
  // SA/ST move nothing either, every visit until a flit, a credit or
  // ejection space arrives would repeat this one's charges and decisions:
  // a grantee that moved nothing lacks a credit and stalls on it, which
  // is what FallAsleep records, and recycling is idempotent. A grant to
  // the requester just before a VA pointer leaves the pointer where full
  // mode's next visit moves it, to the same place in the remaining
  // requesters' cyclic order (DESIGN.md §14). va_moved matters only to
  // matrix and QoS arbiters, whose routers never sleep: one visit takes a
  // round-robin pointer to its fixed point.
  const bool quiet = sleep_.attached() && unrouted == 0 && !va_moved &&
                     eligible == derived_.occupied;

  // --- SA1: each input port with a switch request nominates one VC of its
  // slice. Radix >= 2, so num_vcs <= 32 and the shifts below are defined.
  const RequestMask sa_requests = SwitchRequests(eligible);
  const int num_vcs = config_.num_vcs;
  const RequestMask port_vcs = RequestBit(num_vcs) - 1;
  PortInts nominee;
  RequestMask nominated = 0;
  for (RequestMask rest = sa_requests; rest != 0;) {
    const int p = std::countr_zero(rest) / num_vcs;
    const int shift = p * num_vcs;
    const RequestMask requests = (rest >> shift) & port_vcs;
    rest &= ~(port_vcs << shift);
    const int v = QosArbitrate(sa_input_arb_[static_cast<std::size_t>(p)],
                               requests, config_.qos,
                               qos_sa1_credit_[static_cast<std::size_t>(p)],
                               derived_.class_mask, shift);
    nominee[static_cast<std::size_t>(p)] = v;
    nominated |= static_cast<RequestMask>(v >= 0) << p;
  }

  // --- SA2: each output port a nominee routes to grants one input port.
  PortInts grant;
  const RequestMask granted = GrantOutputs(nominated, nominee, grant);

  // --- ST: winners traverse the switch; the local ports granted are the
  // ones that ejected.
  for (RequestMask rest = granted; rest != 0; rest &= rest - 1) {
    const int op = std::countr_zero(rest);
    const int p = grant[static_cast<std::size_t>(op)];
    Traverse(op, p, nominee[static_cast<std::size_t>(p)], now);
  }
  if (granted != 0) ++stats_.busy_cycles;
  stats_.buffered_flit_cycles += derived_.buffered;
  if (quiet && granted == 0) FallAsleep(now);
  return granted & (RequestBit(num_local_ports_) - 1);
}

void Router::FallAsleep(Cycle now) {
  // A visit that moved nothing had no SA1 request (a nominee always wins
  // some output port), so every VA requester failed once and every VC
  // holding an output VC or ejecting stalled once in SA, a holder on its
  // downstream VC's credits.
  const RequestMask occupied = derived_.occupied;
  const RequestMask ready_to_move = ejecting_ | derived_.holding;
  sleep_charge_.va_failures =
      static_cast<std::uint64_t>(std::popcount(occupied & ~ready_to_move));
  sleep_charge_.sa_stalls =
      static_cast<std::uint64_t>(std::popcount(occupied & ready_to_move));
  sleep_charge_.credit_stalled = occupied & derived_.holding;
  sleep_charge_.buffered = derived_.buffered;
  sleep_.Sleep(now);
}

void Router::ChargeSkipped(Cycle visits) const {
  stats_.va_failures += visits * sleep_charge_.va_failures;
  stats_.sa_stalls += visits * sleep_charge_.sa_stalls;
  // out_vc_ holds still while the router sleeps.
  for (RequestMask rest = sleep_charge_.credit_stalled; rest != 0;
       rest &= rest - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(rest));
    stats_.credit_stall_by_vc[static_cast<std::size_t>(out_vc_[i])] += visits;
  }
  stats_.buffered_flit_cycles += visits * sleep_charge_.buffered;
}

[[gnu::always_inline]] inline void Router::RouteHead(int i) {
  const auto u = static_cast<std::size_t>(i);
  const Flit& front = slab_.Front(i);
  assert(IsHead(front) &&
         "non-head flit at front of an unrouted VC: wormhole broken");
  const std::size_t route = LutIndex(front.cls, front.dst);
  const Port out_port = route_lut_[route];
  out_port_[u] = out_port;
  vc_half_[u] = route_half_[route];
  routed_ |= RequestBit(i);
  if (PortIndex(out_port) < num_local_ports_) {
    ejecting_ |= RequestBit(i);
  } else {
    ejecting_ &= ~RequestBit(i);
  }
  out_vc_[u] = kInvalidVc;
  derived_.holding &= ~RequestBit(i);
}

[[gnu::always_inline]] inline RequestMask Router::SwitchRequests(
    RequestMask eligible) {
  RequestMask requests = 0;
  const RequestMask ready_to_move = eligible & (ejecting_ | derived_.holding);
  for (RequestMask rest = ready_to_move; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    const auto u = static_cast<std::size_t>(i);
    const auto op = static_cast<std::size_t>(PortIndex(out_port_[u]));
    if ((ejecting_ & RequestBit(i)) != 0) {
      const Nic* nic = nics_[op];
      if (nic != nullptr && nic->CanAcceptEjection(FrontClass(i))) {
        requests |= RequestBit(i);
      } else {
        ++stats_.sa_stalls;
      }
      continue;
    }
    const int out_vc = out_vc_[u];
    if (credits_[op * static_cast<std::size_t>(config_.num_vcs) +
                 static_cast<std::size_t>(out_vc)] > 0) {
      requests |= RequestBit(i);
      continue;
    }
    // Blocked purely on downstream credits: charge the allocated downstream
    // VC (telemetry's credit_stall metric).
    ++stats_.sa_stalls;
    ++stats_.credit_stall_by_vc[static_cast<std::size_t>(out_vc)];
  }
  return requests;
}

[[gnu::always_inline]] inline VcRange Router::AllowedRange(
    TrafficClass cls, Port out_port) const {
  const auto p = static_cast<std::size_t>(PortIndex(out_port));
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    return PartitionAt(cls, boundaries_[p], config_.num_vcs);
  }
  return allowed_vcs_[p][static_cast<std::size_t>(ClassIndex(cls))];
}

void Router::UpdateDynamicBoundaries() {
  for (std::size_t p = 0; p < static_cast<std::size_t>(num_ports_); ++p) {
    StepBoundary(epoch_flits_[p], boundaries_[p], config_.num_vcs);
  }
  // += (not now + epoch) keeps boundaries on the construction-time epoch
  // grid even when updates are replayed late; equivalent under full
  // scheduling, where updates fire exactly at the grid points.
  next_boundary_update_ += config_.dynamic_epoch;
}

VcId Router::DynamicBoundary(Port out_port) const {
  return boundaries_[static_cast<std::size_t>(PortIndex(out_port))];
}

[[gnu::always_inline]] inline void Router::RecycleOutputVcs() {
  for (RequestMask rest = draining_ & allocated_; rest != 0;
       rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    if (!config_.atomic_vc_realloc ||
        credits_[static_cast<std::size_t>(i)] == config_.vc_depth) {
      allocated_ &= ~RequestBit(i);
      draining_ &= ~RequestBit(i);
    }
  }
}

[[gnu::always_inline]] inline bool Router::AllocateVcs(int out_port,
                                                       RequestMask requests) {
  const auto op = static_cast<std::size_t>(out_port);
  const int base = out_port * config_.num_vcs;
  const std::size_t pointer = va_arb_[op].pointer();
  while (requests != 0) {
    const int winner = QosArbitrate(va_arb_[op], requests, config_.qos,
                                    qos_va_credit_[op], derived_.class_mask, 0);
    if (winner < 0) break;
    requests &= ~RequestBit(winner);
    const auto w = static_cast<std::size_t>(winner);
    VcRange range = AllowedRange(FrontClass(winner), static_cast<Port>(op));
    if (vc_half_[w] >= 0) range = DatelineHalf(range, vc_half_[w]);
    // The lowest free VC of the range.
    const RequestMask in_range = (RequestBit(range.size()) - 1)
                                 << (base + range.begin);
    const RequestMask free = in_range & ~allocated_;
    if (free == 0) {
      ++stats_.va_failures;
      continue;  // another class's requester may still succeed
    }
    const int granted = std::countr_zero(free);
    allocated_ |= RequestBit(granted);
    out_vc_[w] = static_cast<std::int8_t>(granted - base);
    derived_.holding |= RequestBit(winner);
  }
  return va_arb_[op].pointer() != pointer;
}

[[gnu::always_inline]] inline RequestMask Router::GrantOutputs(
    RequestMask nominated, const PortInts& nominee, PortInts& grant) {
  // Bit p of sa2_requests[op]: input port p's nominee routes to op.
  // out_ports marks the output ports requested, and only their entries
  // are written (zeroed on a port's first request) and read.
  std::array<RequestMask, kMaxArbiterInputs> sa2_requests;
  RequestMask out_ports = 0;
  // Bit p of nominee_class[c]: input port p's nominee has class c.
  std::array<RequestMask, kNumClasses> nominee_class{};
  for (RequestMask rest = nominated; rest != 0; rest &= rest - 1) {
    const int p = std::countr_zero(rest);
    const int i = p * config_.num_vcs + nominee[static_cast<std::size_t>(p)];
    const int op = PortIndex(out_port_[static_cast<std::size_t>(i)]);
    const auto o = static_cast<std::size_t>(op);
    if ((out_ports & RequestBit(op)) == 0) sa2_requests[o] = 0;
    sa2_requests[o] |= RequestBit(p);
    out_ports |= RequestBit(op);
    nominee_class[static_cast<std::size_t>(ClassIndex(FrontClass(i)))] |=
        RequestBit(p);
  }
  RequestMask granted = 0;
  for (RequestMask rest = out_ports; rest != 0; rest &= rest - 1) {
    const int op = std::countr_zero(rest);
    const auto o = static_cast<std::size_t>(op);
    const int winner =
        QosArbitrate(sa_output_arb_[o], sa2_requests[o], config_.qos,
                     qos_sa2_credit_[o], nominee_class, 0);
    grant[o] = winner;
    granted |= static_cast<RequestMask>(winner >= 0) << op;
  }
  return granted;
}

[[gnu::always_inline]] inline void Router::Traverse(int out_port, int in_port,
                                                    VcId vc, Cycle now) {
  assert(vc >= 0);
  const auto op = static_cast<std::size_t>(out_port);
  const int i = in_port * config_.num_vcs + vc;
  const auto u = static_cast<std::size_t>(i);
  Flit flit = slab_.Front(i);
  slab_.Pop(i);
  --derived_.buffered;
  if (slab_.empty(i)) {
    derived_.occupied &= ~RequestBit(i);
    for (RequestMask& m : derived_.class_mask) m &= ~RequestBit(i);
  } else {
    SetFront(i, slab_.Front(i));
  }
  ++stats_.flits_forwarded;
  if (progress_sink_ != nullptr) ++*progress_sink_;
  const auto ci = static_cast<std::size_t>(ClassIndex(flit.cls));
  stats_.flits_out[op][ci]++;
  epoch_flits_[op][ci]++;

  // Return a credit to whoever feeds this input port.
  if (CreditChannel* cc = credit_return_[static_cast<std::size_t>(in_port)]) {
    cc->Push(Credit{vc}, now);
  }

  if (out_port < num_local_ports_) {
    Nic* nic = nics_[op];
    assert(nic != nullptr);
    nic->AcceptEjectedFlit(flit, now);
    if (auditor_ != nullptr) auditor_->OnFlitEjected(flit, now);
  } else {
    const int o = out_port * config_.num_vcs + out_vc_[u];
    int& credits = credits_[static_cast<std::size_t>(o)];
    assert(credits > 0);
    --credits;
    flit.vc = out_vc_[u];
    FlitChannel* channel = out_channels_[op];
    assert(channel != nullptr);
    channel->Push(flit, now);
    if (auditor_ != nullptr) {
      const int link = audit_out_[op];
      if (link >= 0) auditor_->OnFlitSent(link, flit, now);
    }
    if (IsTail(flit)) draining_ |= RequestBit(o);  // recycled once drained
  }

  if (IsTail(flit)) {
    routed_ &= ~RequestBit(i);
    ejecting_ &= ~RequestBit(i);
    derived_.holding &= ~RequestBit(i);
    out_vc_[u] = kInvalidVc;
    vc_half_[u] = -1;
  }
}

void Router::ResetStats() {
  Settle();  // the charges before the reset are dropped with the rest
  stats_ = RouterStats{};
  stats_.flits_out.assign(static_cast<std::size_t>(num_ports_), {});
  stats_.credit_stall_by_vc.assign(static_cast<std::size_t>(config_.num_vcs),
                                   0);
}

std::size_t Router::VcOccupancy(Port in_port, VcId vc) const {
  return slab_.size(FlatVcIndex(in_port, vc));
}

void Router::VisitVcFlits(Port in_port, VcId vc,
                          const std::function<void(const Flit&)>& fn) const {
  slab_.ForEach(FlatVcIndex(in_port, vc), fn);
}

int Router::OutputCredits(Port out_port, VcId vc) const {
  return credits_[static_cast<std::size_t>(FlatVcIndex(out_port, vc))];
}

bool Router::OutputVcAllocated(Port out_port, VcId vc) const {
  return (allocated_ & RequestBit(FlatVcIndex(out_port, vc))) != 0;
}

Router::Derived Router::Rebuild() const {
  Derived d;
  for (int i = 0; i < NumInputVcs(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    d.buffered += slab_.size(i);
    if (!slab_.empty(i)) {
      const Flit& front = slab_.Front(i);
      d.occupied |= RequestBit(i);
      d.class_mask[static_cast<std::size_t>(ClassIndex(front.cls))] |=
          RequestBit(i);
      d.front_ready[u] = front.ready;
    }
    if (out_vc_[u] != kInvalidVc) d.holding |= RequestBit(i);
  }
  return d;
}

std::string Router::DerivedStateMismatch() const {
  const Derived want = Rebuild();
  if (derived_.buffered != want.buffered) {
    return "counts " + std::to_string(derived_.buffered) +
           " flits but its VCs hold " + std::to_string(want.buffered);
  }
  if (derived_.occupied != want.occupied) return "occupied mask differs";
  if (derived_.class_mask != want.class_mask) return "class masks differ";
  if (derived_.holding != want.holding) return "holding mask differs";
  for (RequestMask rest = want.occupied; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    if (derived_.front_ready[static_cast<std::size_t>(i)] !=
        want.front_ready[static_cast<std::size_t>(i)]) {
      return "front ready cycle of input VC " + std::to_string(i) +
             " differs";
    }
  }
  return "";
}

void Router::Save(Serializer& s) const {
  Settle();
  Fields(*this, s);
}

void Router::Load(Deserializer& d) {
  sleep_.Reset();  // a loaded router is awake until a visit puts it to sleep
  Fields(*this, d);
  // The allocators index per-port state and shift masks by these, and
  // an ejecting VC indexes the NICs by its port.
  const auto total = static_cast<std::size_t>(NumInputVcs());
  for (std::size_t u = 0; u < total; ++u) {
    const int out_port = PortIndex(out_port_[u]);
    const int out_vc = out_vc_[u];
    const bool eject = (ejecting_ & RequestBit(static_cast<int>(u))) != 0;
    if (out_port >= num_ports_ || out_vc < kInvalidVc ||
        out_vc >= config_.num_vcs || (eject && out_port >= num_local_ports_)) {
      throw SerializeError(
          "router " + std::to_string(node_) + ": input VC state (port " +
          std::to_string(out_port) + ", VC " + std::to_string(out_vc) +
          ", eject " + std::to_string(eject) + ") out of range for " +
          std::to_string(num_ports_) + " ports (" +
          std::to_string(num_local_ports_) + " local) x " +
          std::to_string(config_.num_vcs) + " VCs");
    }
  }
  // A credit count above the depth would overfill the downstream VC; a
  // negative one never reaches the depth again, wedging the VC.
  for (std::size_t u = 0; u < total; ++u) {
    if (credits_[u] < 0 || credits_[u] > config_.vc_depth) {
      throw SerializeError("router " + std::to_string(node_) +
                           ": output VC " + std::to_string(u) + " holds " +
                           std::to_string(credits_[u]) +
                           " credits, out of range [0, " +
                           std::to_string(config_.vc_depth) + "]");
    }
  }
  derived_ = Rebuild();
}

}  // namespace gnoc
