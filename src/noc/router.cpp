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

/// One QoS-aware arbiter invocation, used by the VA, SA1 and SA2 stages.
/// `cls_of(i)` maps a request index to its class index and is only called
/// for the set bits of `requests`. Under kNone this is exactly
/// `arb.Arbitrate(requests)`. Otherwise the requests are split into one
/// mask per class and the arbiter sees the OR of the allowed classes'
/// masks. kStrict allows the highest-priority requesting class; ties fall
/// through to plain arbitration. kWrr spends per-class credits
/// (`wrr_credit`, persistent per arbiter site): when no requesting class
/// holds credit the credits recharge to the class weights, the funded
/// classes are allowed, and the winner's class pays one credit.
template <typename ClsOf>
int QosArbitrate(Arbiter& arb, RequestMask requests, QosArbitration mode,
                 const std::array<int, kNumClasses>& priority,
                 std::array<int, kNumClasses>& wrr_credit, ClsOf&& cls_of) {
  if (mode == QosArbitration::kNone) return arb.Arbitrate(requests);
  if (requests == 0) return -1;
  constexpr auto kClasses = static_cast<std::size_t>(kNumClasses);
  std::array<RequestMask, kClasses> by_class{};
  for (RequestMask rest = requests; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    by_class[static_cast<std::size_t>(cls_of(i))] |= RequestBit(i);
  }
  RequestMask allowed = 0;
  if (mode == QosArbitration::kStrict) {
    int best = 0;
    bool seeded = false;
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (by_class[c] != 0 && (!seeded || priority[c] > best)) {
        best = priority[c];
        seeded = true;
      }
    }
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (priority[c] == best) allowed |= by_class[c];
    }
  } else {  // kWrr
    bool funded = false;
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (by_class[c] != 0 && wrr_credit[c] > 0) funded = true;
    }
    if (!funded) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        wrr_credit[c] = std::max(1, priority[c]);
      }
    }
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (wrr_credit[c] > 0) allowed |= by_class[c];
    }
  }
  const int winner = arb.Arbitrate(allowed);
  if (mode == QosArbitration::kWrr && winner >= 0) {
    --wrr_credit[static_cast<std::size_t>(cls_of(winner))];
  }
  return winner;
}

}  // namespace

void CheckRequestMaskWidth(const Topology& topo, int num_vcs) {
  const int inputs = topo.radix() * num_vcs;
  if (static_cast<std::size_t>(inputs) <= kMaxArbiterInputs) return;
  throw std::invalid_argument(
      std::string("topology '") + TopologyName(topo.kind()) +
      "' has radix " + std::to_string(topo.radix()) + ", so num_vcs=" +
      std::to_string(num_vcs) + " gives each VC allocator " +
      std::to_string(inputs) + " inputs; at most " +
      std::to_string(kMaxArbiterInputs) +
      " fit one request mask (lower num_vcs)");
}

Router::Router(NodeId node, Coord coord, const RouterConfig& config)
    : node_(node),
      coord_(coord),
      config_(config),
      policy_(config.vc_policy, config.num_vcs, config.qos_reserved) {
  assert(config.num_vcs >= 1);
  assert(config.vc_depth >= 1);
  const Topology* topo = config_.topology;
  num_ports_ = topo != nullptr ? topo->radix() : kNumPorts;
  num_local_ports_ = topo != nullptr ? topo->num_local_ports() : 1;
  const auto total_vcs =
      static_cast<std::size_t>(num_ports_ * config_.num_vcs);
  assert(total_vcs <= kMaxArbiterInputs &&
         "radix x num_vcs exceeds one request mask");
  input_vcs_.reserve(total_vcs);
  for (std::size_t i = 0; i < total_vcs; ++i) {
    input_vcs_.emplace_back(config_.vc_depth);
  }
  output_vcs_.resize(total_vcs);
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
  if (topo != nullptr) {
    lut_width_ = topo->width();
    const int tiles = topo->num_tiles();
    route_lut_.reserve(static_cast<std::size_t>(tiles * kNumClasses));
    route_half_.reserve(static_cast<std::size_t>(tiles * kNumClasses));
    for (NodeId dst = 0; dst < tiles; ++dst) {
      for (int c = 0; c < kNumClasses; ++c) {
        const RouteStep step = topo->Route(
            config_.routing, static_cast<TrafficClass>(c), node_, dst);
        route_lut_.push_back(static_cast<Port>(step.port));
        route_half_.push_back(step.vc_half);
      }
    }
  }
  for (int p = 0; p < num_ports_; ++p) {
    va_arb_.push_back(MakeArbiter(config_.arbiter, total_vcs));
    sa_input_arb_.push_back(
        MakeArbiter(config_.arbiter, static_cast<std::size_t>(config_.num_vcs)));
    sa_output_arb_.push_back(
        MakeArbiter(config_.arbiter, static_cast<std::size_t>(num_ports_)));
  }
  qos_va_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  qos_sa1_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  qos_sa2_credit_.assign(static_cast<std::size_t>(num_ports_), {});
}

void Router::SetOutputChannel(Port out_port, FlitChannel* channel) {
  out_channels_[static_cast<std::size_t>(PortIndex(out_port))] = channel;
  // Credits for a fresh link equal the downstream buffer depth.
  if (channel != nullptr) {
    for (VcId v = 0; v < config_.num_vcs; ++v) {
      Ovc(out_port, v).credits = config_.vc_depth;
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
  InputVc& ivc = Ivc(in_port, flit.vc);
  assert(!ivc.buffer.full() && "credit protocol violated: buffer overflow");
  Flit f = flit;
  f.ready = now + 1;  // models the RC/VA/SA pipeline stage
  ivc.buffer.Push(f);
  ++buffered_;
}

void Router::AcceptCredit(Port out_port, VcId vc) {
  assert(vc >= 0 && vc < config_.num_vcs);
  OutputVc& ovc = Ovc(out_port, vc);
  ++ovc.credits;
  assert(ovc.credits <= config_.vc_depth && "credit overflow");
}

RequestMask Router::Tick(Cycle now) {
  CatchUpEpochs(now);
  RecycleOutputVcs();
  RequestMask eligible = 0;
  for (std::size_t i = 0; i < input_vcs_.size(); ++i) {
    const VcBuffer& buf = input_vcs_[i].buffer;
    if (!buf.empty() && buf.Front().ready <= now) {
      eligible |= RequestBit(static_cast<int>(i));
    }
  }
  // With no VC eligible, VA/SA/ST cannot touch any state: requests stay
  // empty, no arbiter runs and the stall counters only fire for eligible
  // VCs.
  if (eligible == 0) {
    stats_.buffered_flit_cycles += buffered_;
    return 0;
  }

  // --- RC, and every output port's VA requests, in one pass. A VC requests
  // only the port its route names, so this equals one scan per port.
  std::array<RequestMask, kMaxArbiterInputs> va_requests;
  std::fill_n(va_requests.begin(), num_ports_, RequestMask{0});
  for (RequestMask rest = eligible; rest != 0; rest &= rest - 1) {
    const int idx = std::countr_zero(rest);
    InputVc& ivc = input_vcs_[static_cast<std::size_t>(idx)];
    if (!ivc.route_valid) RouteHead(ivc);
    if (RequestsVc(ivc)) {
      va_requests[static_cast<std::size_t>(PortIndex(ivc.out_port))] |=
          RequestBit(idx);
    }
  }

  // --- VA: local ports need none (the NIC reassembles per class).
  for (int op = num_local_ports_; op < num_ports_; ++op) {
    const RequestMask requests = va_requests[static_cast<std::size_t>(op)];
    if (requests != 0 &&
        out_channels_[static_cast<std::size_t>(op)] != nullptr) {
      AllocateVcs(static_cast<Port>(op), requests);
    }
  }

  // --- SA1: each input port nominates one VC of its slice of `eligible`.
  // Radix >= 2, so num_vcs <= 32 and the shift below is defined.
  const int num_vcs = config_.num_vcs;
  const RequestMask port_vcs = RequestBit(num_vcs) - 1;
  PortInts nominee;
  for (int p = 0; p < num_ports_; ++p) {
    int& won = nominee[static_cast<std::size_t>(p)];
    won = -1;
    const RequestMask port_eligible = (eligible >> (p * num_vcs)) & port_vcs;
    RequestMask requests = 0;
    for (RequestMask rest = port_eligible; rest != 0; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      const auto idx = static_cast<std::size_t>(p * num_vcs + v);
      if (RequestsSwitch(input_vcs_[idx])) requests |= RequestBit(v);
    }
    if (requests != 0) won = NominateVc(p, requests);
  }

  // --- SA2: each output port grants one input port (none without a
  // nominee).
  PortInts grant;
  GrantOutputs(nominee, grant);

  // --- ST: winners traverse the switch.
  RequestMask ejected = 0;
  bool moved = false;
  for (int op = 0; op < num_ports_; ++op) {
    const int p = grant[static_cast<std::size_t>(op)];
    if (p < 0) continue;
    Traverse(op, p, nominee[static_cast<std::size_t>(p)], now);
    moved = true;
    if (op < num_local_ports_) ejected |= RequestBit(op);
  }
  if (moved) ++stats_.busy_cycles;
  stats_.buffered_flit_cycles += buffered_;
  return ejected;
}

void Router::RouteHead(InputVc& ivc) const {
  const Flit& front = ivc.buffer.Front();
  assert(IsHead(front) &&
         "non-head flit at front of an unrouted VC: wormhole broken");
  ivc.out_port = RouteFor(front.cls, front.dst_coord);
  ivc.vc_half = RouteHalfFor(front.cls, front.dst_coord);
  ivc.route_valid = true;
  ivc.eject = PortIndex(ivc.out_port) < num_local_ports_;
  ivc.out_vc = kInvalidVc;
}

bool Router::RequestsVc(const InputVc& ivc) {
  return ivc.route_valid && !ivc.eject && ivc.out_vc == kInvalidVc;
}

bool Router::RequestsSwitch(const InputVc& ivc) {
  if (!ivc.route_valid) return false;
  if (ivc.eject) {
    const Nic* nic = nics_[static_cast<std::size_t>(PortIndex(ivc.out_port))];
    if (nic != nullptr && nic->CanAcceptEjection(ivc.buffer.Front().cls)) {
      return true;
    }
    ++stats_.sa_stalls;
    return false;
  }
  if (ivc.out_vc == kInvalidVc) return false;  // still waiting for VA
  if (Ovc(ivc.out_port, ivc.out_vc).credits > 0) return true;
  // Blocked purely on downstream credits: charge the allocated downstream
  // VC (telemetry's credit_stall metric).
  ++stats_.sa_stalls;
  ++stats_.credit_stall_by_vc[static_cast<std::size_t>(ivc.out_vc)];
  return false;
}

VcRange Router::AllowedRange(TrafficClass cls, Port out_port) const {
  const auto p = static_cast<std::size_t>(PortIndex(out_port));
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    return PartitionAt(cls, boundaries_[p], config_.num_vcs);
  }
  return allowed_vcs_[p][static_cast<std::size_t>(ClassIndex(cls))];
}

void Router::UpdateDynamicBoundaries() {
  for (int p = 0; p < num_ports_; ++p) {
    auto& counts = epoch_flits_[static_cast<std::size_t>(p)];
    const std::uint64_t req = counts[ClassIndex(TrafficClass::kRequest)];
    const std::uint64_t rep = counts[ClassIndex(TrafficClass::kReply)];
    counts.fill(0);
    if (req + rep == 0) continue;  // idle port: keep the current boundary
    const double share =
        static_cast<double>(req) / static_cast<double>(req + rep);
    const VcId target = BoundaryForShare(share, config_.num_vcs);
    VcId& boundary = boundaries_[static_cast<std::size_t>(p)];
    // Hysteresis: move one VC per epoch towards the target.
    if (target > boundary) {
      ++boundary;
    } else if (target < boundary) {
      --boundary;
    }
  }
  epoch_dirty_ = false;
  // += (not now + epoch) keeps boundaries on the construction-time epoch
  // grid even when updates are replayed late; equivalent under full
  // scheduling, where updates fire exactly at the grid points.
  next_boundary_update_ += config_.dynamic_epoch;
}

VcId Router::DynamicBoundary(Port out_port) const {
  return boundaries_[static_cast<std::size_t>(PortIndex(out_port))];
}

void Router::RecycleOutputVcs() {
  for (RequestMask rest = draining_; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    OutputVc& ovc = output_vcs_[static_cast<std::size_t>(i)];
    if (ovc.allocated &&
        (!config_.atomic_vc_realloc || ovc.credits == config_.vc_depth)) {
      ovc.allocated = false;
      ovc.tail_sent = false;
      draining_ &= ~RequestBit(i);
    }
  }
}

void Router::AllocateVcs(Port out_port, RequestMask requests) {
  const auto op = static_cast<std::size_t>(PortIndex(out_port));
  const auto cls_of = [&](int i) {
    return ClassIndex(
        input_vcs_[static_cast<std::size_t>(i)].buffer.Front().cls);
  };
  while (requests != 0) {
    const int winner =
        QosArbitrate(*va_arb_[op], requests, config_.qos_arbitration,
                     config_.qos_priority, qos_va_credit_[op], cls_of);
    if (winner < 0) break;
    requests &= ~RequestBit(winner);
    InputVc& ivc = input_vcs_[static_cast<std::size_t>(winner)];
    VcRange range = AllowedRange(ivc.buffer.Front().cls, out_port);
    if (ivc.vc_half >= 0) range = DatelineHalf(range, ivc.vc_half);
    VcId granted = kInvalidVc;
    for (VcId v = range.begin; v < range.end; ++v) {
      if (!Ovc(out_port, v).allocated) {
        granted = v;
        break;
      }
    }
    if (granted == kInvalidVc) {
      ++stats_.va_failures;
      continue;  // another class's requester may still succeed
    }
    Ovc(out_port, granted).allocated = true;
    ivc.out_vc = granted;
  }
}

int Router::NominateVc(int in_port, RequestMask requests) {
  const auto p = static_cast<std::size_t>(in_port);
  const auto cls_of = [&](int v) {
    return ClassIndex(Ivc(static_cast<Port>(in_port), v).buffer.Front().cls);
  };
  return QosArbitrate(*sa_input_arb_[p], requests, config_.qos_arbitration,
                      config_.qos_priority, qos_sa1_credit_[p], cls_of);
}

void Router::GrantOutputs(const PortInts& nominee, PortInts& grant) {
  std::array<RequestMask, kMaxArbiterInputs> requests;
  std::fill_n(requests.begin(), num_ports_, RequestMask{0});
  for (int p = 0; p < num_ports_; ++p) {
    const int v = nominee[static_cast<std::size_t>(p)];
    if (v < 0) continue;
    const Port out_port = Ivc(static_cast<Port>(p), v).out_port;
    requests[static_cast<std::size_t>(PortIndex(out_port))] |= RequestBit(p);
  }
  const auto cls_of = [&](int p) {
    const int v = nominee[static_cast<std::size_t>(p)];
    return ClassIndex(Ivc(static_cast<Port>(p), v).buffer.Front().cls);
  };
  for (int op = 0; op < num_ports_; ++op) {
    const auto o = static_cast<std::size_t>(op);
    grant[o] = requests[o] == 0
                   ? -1
                   : QosArbitrate(*sa_output_arb_[o], requests[o],
                                  config_.qos_arbitration,
                                  config_.qos_priority, qos_sa2_credit_[o],
                                  cls_of);
  }
}

void Router::Traverse(int out_port, int in_port, VcId vc, Cycle now) {
  assert(vc >= 0);
  const auto op = static_cast<std::size_t>(out_port);
  InputVc& ivc = Ivc(static_cast<Port>(in_port), vc);
  Flit flit = ivc.buffer.Pop();
  --buffered_;
  ++stats_.flits_forwarded;
  if (progress_sink_ != nullptr) ++*progress_sink_;
  const auto ci = static_cast<std::size_t>(ClassIndex(flit.cls));
  stats_.flits_out[op][ci]++;
  epoch_flits_[op][ci]++;
  epoch_dirty_ = true;

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
    OutputVc& ovc = Ovc(static_cast<Port>(out_port), ivc.out_vc);
    assert(ovc.credits > 0);
    --ovc.credits;
    flit.vc = ivc.out_vc;
    FlitChannel* channel = out_channels_[op];
    assert(channel != nullptr);
    channel->Push(flit, now);
    if (auditor_ != nullptr) {
      const int link = audit_out_[op];
      if (link >= 0) auditor_->OnFlitSent(link, flit, now);
    }
    if (IsTail(flit)) {  // recycled once drained
      ovc.tail_sent = true;
      draining_ |= RequestBit(FlatVcIndex(static_cast<Port>(out_port),
                                          ivc.out_vc));
    }
  }

  if (IsTail(flit)) {
    ivc.route_valid = false;
    ivc.out_vc = kInvalidVc;
    ivc.eject = false;
    ivc.vc_half = -1;
  }
}

void Router::ResetStats() {
  stats_ = RouterStats{};
  stats_.flits_out.assign(static_cast<std::size_t>(num_ports_), {});
  stats_.credit_stall_by_vc.assign(static_cast<std::size_t>(config_.num_vcs),
                                   0);
}

std::size_t Router::VcOccupancy(Port in_port, VcId vc) const {
  return Ivc(in_port, vc).buffer.size();
}

void Router::VisitVcFlits(Port in_port, VcId vc,
                          const std::function<void(const Flit&)>& fn) const {
  Ivc(in_port, vc).buffer.ForEach(fn);
}

int Router::OutputCredits(Port out_port, VcId vc) const {
  return Ovc(out_port, vc).credits;
}

bool Router::OutputVcAllocated(Port out_port, VcId vc) const {
  return Ovc(out_port, vc).allocated;
}

void Router::Save(Serializer& s) const { Fields(*this, s); }

void Router::Load(Deserializer& d) {
  Fields(*this, d);
  // The allocators index per-port state and shift masks by these, and
  // an ejecting VC indexes the NICs by its port.
  for (const InputVc& ivc : input_vcs_) {
    const int out_port = PortIndex(ivc.out_port);
    if (out_port >= num_ports_ || ivc.out_vc < kInvalidVc ||
        ivc.out_vc >= config_.num_vcs ||
        (ivc.eject && out_port >= num_local_ports_)) {
      throw SerializeError(
          "router " + std::to_string(node_) + ": input VC state (port " +
          std::to_string(out_port) + ", VC " + std::to_string(ivc.out_vc) +
          ", eject " + std::to_string(ivc.eject) + ") out of range for " +
          std::to_string(num_ports_) + " ports (" +
          std::to_string(num_local_ports_) + " local) x " +
          std::to_string(config_.num_vcs) + " VCs");
    }
  }
  buffered_ = 0;
  for (const InputVc& ivc : input_vcs_) buffered_ += ivc.buffer.size();
  draining_ = 0;
  for (std::size_t i = 0; i < output_vcs_.size(); ++i) {
    if (output_vcs_[i].tail_sent) draining_ |= RequestBit(static_cast<int>(i));
  }
}

}  // namespace gnoc
