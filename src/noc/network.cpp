#include "noc/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/enum_registry.hpp"
#include "common/serialize.hpp"

#include "noc/deadlock.hpp"
#include "noc/soa_core.hpp"

namespace gnoc {

const EnumRegistry<SchedulingMode>& SchedulingRegistry() {
  static const EnumRegistry<SchedulingMode> registry{
      "scheduling",
      {{"full", SchedulingMode::kFull},
       {"soa", SchedulingMode::kSoa},
       // Names of retired backends, kept so old configs and job specs
       // still parse.
       {"active-set", SchedulingMode::kSoa},
       {"active", SchedulingMode::kSoa},
       {"activeset", SchedulingMode::kSoa},
       {"event", SchedulingMode::kSoa}}};
  return registry;
}

const char* SchedulingModeName(SchedulingMode m) {
  return SchedulingRegistry().Name(m);
}

SchedulingMode ParseSchedulingMode(const std::string& name) {
  return SchedulingRegistry().Parse(name);
}

void CheckNetworkConfig(const NetworkConfig& config, const Topology& topo) {
  const VcPolicy policy(config.vc_policy, config.num_vcs,
                        config.qos.ReservedVcs());
  if (config.vc_depth < 1 || config.vc_depth > FlitSlab::kMaxDepth) {
    throw std::invalid_argument(
        "vc_depth must be in [1, " + std::to_string(FlitSlab::kMaxDepth) +
        "] (got " + std::to_string(config.vc_depth) + ")");
  }
  if (config.vc_policy == VcPolicyKind::kDynamic &&
      config.dynamic_epoch == 0) {
    // The router/NIC epoch catch-up loops advance next_boundary_update_ by
    // dynamic_epoch per iteration; a zero epoch would spin them forever.
    throw std::invalid_argument(
        "dynamic_epoch must be >= 1 (got 0): the dynamic VC policy commits "
        "epoch flit counts every dynamic_epoch cycles");
  }
  const int inputs = topo.radix() * config.num_vcs;
  if (static_cast<std::size_t>(inputs) > kMaxArbiterInputs) {
    throw std::invalid_argument(
        std::string("topology '") + TopologyName(topo.kind()) +
        "' has radix " + std::to_string(topo.radix()) + ", so num_vcs=" +
        std::to_string(config.num_vcs) + " gives each VC allocator " +
        std::to_string(inputs) + " inputs; at most " +
        std::to_string(kMaxArbiterInputs) +
        " fit one request mask (lower num_vcs)");
  }
  if (!topo.has_datelines()) return;
  // Wrap links split every class's VC range into pre-/post-dateline
  // halves, so each class needs >= 2 VCs on every link it can use, under
  // every link mode the policy can assign; otherwise the first wrap
  // crossing would assert or deadlock.
  if (config.vc_policy == VcPolicyKind::kDynamic) {
    throw std::invalid_argument(
        std::string("topology '") + TopologyName(config.topology) +
        "' needs dateline VC halves; dynamic partitioning can shrink a "
        "class to a single VC and is not supported");
  }
  for (int c = 0; c < kNumClasses; ++c) {
    for (const LinkMode mode : {LinkMode::kMixed, LinkMode::kSingleClass}) {
      const VcRange range = policy.AllowedVcs(static_cast<TrafficClass>(c),
                                              Port::kNorth, mode);
      if (range.size() < 2) {
        throw std::invalid_argument(
            std::string("topology '") + TopologyName(config.topology) +
            "' needs dateline VC halves: policy '" +
            VcPolicyName(config.vc_policy) + "' with num_vcs=" +
            std::to_string(config.num_vcs) + " leaves " +
            ClassName(static_cast<TrafficClass>(c)) + " only " +
            std::to_string(range.size()) + " VC on some links (need >= 2)");
      }
    }
  }
}

Network::Network(const NetworkConfig& config)
    : config_(config),
      topo_(Topology::Make(config.topology, config.width, config.height,
                           config.circulant_s1, config.circulant_s2)),
      packets_(config.width, config.height) {
  assert(config.width >= 2 && config.height >= 2);
  CheckNetworkConfig(config_, topo_);
  if (config_.audit) {
    auditor_ = std::make_unique<Auditor>(config_, packets_);
  }

  const int n = num_nodes();
  const int num_routers = topo_.num_routers();
  routers_.reserve(static_cast<std::size_t>(num_routers));
  for (int r = 0; r < num_routers; ++r) {
    // The topology gives every router its port count and its
    // (destination, class) -> output-port LUT, so the routing function is
    // never evaluated per head flit.
    routers_.push_back(
        std::make_unique<Router>(r, topo_.RouterCoord(r), config_, topo_));
    routers_.back()->SetPacketTable(&packets_);
    if (auditor_ != nullptr) routers_.back()->SetAuditor(auditor_.get());
  }
  nics_.reserve(static_cast<std::size_t>(n));
  for (NodeId tile = 0; tile < n; ++tile) {
    nics_.push_back(std::make_unique<Nic>(tile, CoordOf(tile), config_));
    nics_.back()->SetPacketTable(&packets_);
    routers_[static_cast<std::size_t>(topo_.RouterOf(tile))]->SetNic(
        topo_.LocalPortOf(tile), nics_.back().get());
    if (auditor_ != nullptr) auditor_->RegisterNic(nics_.back().get());
  }

  // Links, in the topology graph's canonical order: per router, its wired
  // non-local ports ascending (N, E, S, W on the mesh — the seed order),
  // then the injection links of its local ports. One flit channel and one
  // credit channel per directed link.
  for (int r = 0; r < num_routers; ++r) {
    Router& src = *routers_[static_cast<std::size_t>(r)];
    for (int p = topo_.num_local_ports(); p < topo_.radix(); ++p) {
      if (!topo_.IsWired(r, p)) continue;  // unwired boundary port
      const Port port = static_cast<Port>(p);
      const Port peer_port = static_cast<Port>(topo_.PeerPort(r, p));
      Router& dst = *routers_[static_cast<std::size_t>(topo_.Peer(r, p))];

      auto flit_link = std::make_unique<FlitLink>();
      flit_link->channel = FlitChannel(config_.link_latency);
      flit_link->dst_router = &dst;
      flit_link->dst_port = peer_port;
      src.SetOutputChannel(port, &flit_link->channel);
      flit_links_.push_back(std::move(flit_link));

      auto credit_link = std::make_unique<CreditLink>();
      credit_link->channel = CreditChannel(config_.link_latency);
      credit_link->dst_router = &src;
      credit_link->dst_port = port;
      dst.SetCreditReturnChannel(peer_port, &credit_link->channel);

      if (auditor_ != nullptr) {
        Auditor::Link al;
        al.name = 'r' + std::to_string(r);
        al.name += '.';
        al.name += topo_.PortLabel(p);
        al.flits = &flit_links_.back()->channel;
        al.credits = &credit_link->channel;
        al.src_router = &src;
        al.src_port = port;
        al.dst_router = &dst;
        al.dst_port = peer_port;
        const int link_id = auditor_->RegisterLink(std::move(al));
        src.SetAuditOutLink(port, link_id);
        dst.SetAuditInLink(peer_port, link_id);
      }
      credit_links_.push_back(std::move(credit_link));
    }

    // Injection links: NIC -> router local port, credits back to the NIC.
    for (int lp = 0; lp < topo_.num_local_ports(); ++lp) {
      const NodeId tile = topo_.TileAt(r, lp);
      const Port local_port = static_cast<Port>(lp);
      Nic& nic = *nics_[static_cast<std::size_t>(tile)];

      auto inj = std::make_unique<FlitLink>();
      inj->channel = FlitChannel(config_.link_latency);
      inj->dst_router = &src;
      inj->dst_port = local_port;
      nic.SetInjectionChannel(&inj->channel);
      flit_links_.push_back(std::move(inj));

      auto inj_credit = std::make_unique<CreditLink>();
      inj_credit->channel = CreditChannel(config_.link_latency);
      inj_credit->dst_nic = &nic;
      src.SetCreditReturnChannel(local_port, &inj_credit->channel);
      nic.SetCreditChannel(&inj_credit->channel);

      if (auditor_ != nullptr) {
        Auditor::Link al;
        al.name = "nic" + std::to_string(tile) + ".inject";
        al.injection = true;
        al.flits = &flit_links_.back()->channel;
        al.credits = &inj_credit->channel;
        al.src_nic = &nic;
        al.dst_router = &src;
        al.dst_port = local_port;
        const int link_id = auditor_->RegisterLink(std::move(al));
        nic.SetAuditor(auditor_.get(), link_id);
        src.SetAuditInLink(local_port, link_id);
      }
      credit_links_.push_back(std::move(inj_credit));
    }
  }

  // Telemetry registers last: it inspects the wired topology (which output
  // ports have channels) to lay out its per-link tracks.
  if (config_.telemetry) {
    telemetry_ = std::make_unique<Telemetry>(config_);
    for (auto& r : routers_) telemetry_->RegisterRouter(r.get(), topo_);
    for (auto& nc : nics_) {
      telemetry_->RegisterNic(nc.get());
      nc->SetTelemetry(telemetry_.get());
    }
  }

  // The watchdog's progress signal is event-driven in both scheduling
  // modes: the sinks bump progress_events_ at exactly the sites whose stats
  // counters the old per-cycle scan summed.
  for (auto& r : routers_) r->SetProgressSink(&progress_events_);
  for (auto& nc : nics_) nc->SetProgressSink(&progress_events_);

  // soa scheduling: the core installs the channel wake hooks that set its
  // occupancy bits. Under kFull the channel hooks stay null.
  if (config_.scheduling == SchedulingMode::kSoa) {
    soa_ = std::make_unique<SoaCore>(*this);
  }
}

Network::~Network() = default;

NodeId Network::NodeAt(Coord c) const {
  assert(c.x >= 0 && c.x < config_.width && c.y >= 0 && c.y < config_.height);
  return c.y * config_.width + c.x;
}

Coord Network::CoordOf(NodeId n) const {
  assert(n >= 0 && n < num_nodes());
  return Coord{n % config_.width, n / config_.width};
}

Router& Network::router(NodeId n) {
  return *routers_.at(static_cast<std::size_t>(n));
}
const Router& Network::router(NodeId n) const {
  return *routers_.at(static_cast<std::size_t>(n));
}
Nic& Network::nic(NodeId n) { return *nics_.at(static_cast<std::size_t>(n)); }
const Nic& Network::nic(NodeId n) const {
  return *nics_.at(static_cast<std::size_t>(n));
}

void Network::SetSink(NodeId n, PacketSink* sink) { nic(n).SetSink(sink); }

void Network::ConfigureLinkModes(const LinkUsage& usage) {
  assert(usage.num_routers() == topo_.num_routers() &&
         usage.radix() == topo_.radix());
  for (int r = 0; r < topo_.num_routers(); ++r) {
    for (int p = 0; p < topo_.radix(); ++p) {
      const Port port = static_cast<Port>(p);
      const LinkMode mode =
          usage.Mixed(r, port) ? LinkMode::kMixed : LinkMode::kSingleClass;
      if (p < topo_.num_local_ports()) {
        nic(topo_.TileAt(r, p)).SetLinkMode(mode);
      } else {
        router(r).SetLinkMode(port, mode);
      }
    }
  }
}

bool Network::Inject(Packet packet) {
  CheckInjectable(packet, num_nodes());
  if (packet.id == 0) packet.id = NextPacketId();
  if (packet.created == 0) packet.created = now_;
  if (!nic(packet.src).Inject(packet, CoordOf(packet.dst), now_)) {
    return false;
  }
  if (soa_ != nullptr) soa_->WakeNic(static_cast<std::size_t>(packet.src));
  return true;
}

bool Network::CanInject(NodeId n, TrafficClass cls) const {
  return nic(n).CanInject(cls);
}

void Network::Tick() {
  switch (config_.scheduling) {
    case SchedulingMode::kFull: TickFull(); break;
    case SchedulingMode::kSoa: TickSoa(); break;
  }

  // Between ticks every atomic operation has completed, so the conservation
  // sums must hold exactly (flit/credit channels count as in-flight).
  if (auditor_ != nullptr && auditor_->SnapshotDue(now_)) {
    if (soa_ != nullptr) soa_->AuditCoverage(*auditor_, now_);
    auditor_->RunSnapshot(now_);
  }

  if (telemetry_ != nullptr && telemetry_->SampleDue(now_)) {
    telemetry_->Sample(now_);
  }

  // Deadlock watchdog: flits in flight but no movement for a long time.
  if (progress_events_ != last_progress_counter_ || NoFlitsInFlight()) {
    last_progress_counter_ = progress_events_;
    last_progress_cycle_ = now_;
  } else if (now_ - last_progress_cycle_ >= config_.deadlock_threshold) {
    deadlocked_ = true;
  }
  ++now_;
}

void Network::TickFull() {
  for (auto& link : flit_links_) link->Deliver(now_);
  for (auto& link : credit_links_) {
    if (link->dst_router != nullptr) link->Deliver(now_);
  }
  for (auto& r : routers_) r->Tick(now_);
  for (auto& nic : nics_) nic->Tick(now_);
  tick_steps_ += routers_.size() + nics_.size() + flit_links_.size() +
                 credit_links_.size();
}

void Network::TickSoa() {
  // Same phase order as TickFull; each phase visits only the links,
  // routers and NICs whose bit is set and skips those not yet due
  // (DESIGN.md §9 gives the skip rules and why they are bit-identical).
  soa_->DeliverFlitLinks(now_);
  soa_->DeliverCreditLinks(now_);
  soa_->TickRouters(now_);
  soa_->TickNics(now_);
  tick_steps_ += soa_->TakeSteps();
}

bool Network::NoFlitsInFlight() const {
  return soa_ != nullptr ? soa_->NoFlitsInFlight() : FlitsInFlight() == 0;
}

void Network::ForceSleepAll() {
  if (soa_ != nullptr) soa_->ForceSleepAll();
}

bool Network::Drain(Cycle max_cycles) {
  for (Cycle i = 0; i < max_cycles; ++i) {
    if (NoFlitsInFlight()) {
      AuditQuiescence();
      return true;
    }
    if (deadlocked_) return false;
    Tick();
  }
  const bool drained = NoFlitsInFlight();
  if (drained) AuditQuiescence();
  return drained;
}

void Network::AuditQuiescence() {
  if (auditor_ != nullptr) auditor_->CheckQuiescence(now_);
}

bool Network::InjectFault(AuditFault fault) {
  // Fault planting mutates channel contents without firing wake hooks;
  // rebuild the soa bits afterwards so they stay sound (mutation tests
  // only — never on the hot path).
  struct Resync {
    SoaCore* soa;
    ~Resync() {
      if (soa != nullptr) soa->RebuildFromObjects();
    }
  } resync{soa_.get()};
  switch (fault) {
    case AuditFault::kDropCredit:
      for (auto& link : credit_links_) {
        if (link->channel.DiscardFront()) return true;
      }
      return false;
    case AuditFault::kDropFlit:
      for (auto& link : flit_links_) {
        if (link->channel.DiscardFront()) return true;
      }
      return false;
    case AuditFault::kDuplicateFlit:
      for (auto& link : flit_links_) {
        if (link->channel.DuplicateBack()) return true;
      }
      return false;
    case AuditFault::kCorruptVc:
      if (config_.num_vcs < 2) return false;
      for (auto& link : flit_links_) {
        // Target a body/tail flit: rerouting a mid-packet flit to another
        // VC is the canonical wormhole-interleaving corruption, and its
        // detection does not depend on what the victim VC carries.
        const bool done = link->channel.MutateOne([&](Flit& f) {
          if (IsHead(f)) return false;
          f.vc = (f.vc + 1) % config_.num_vcs;
          return true;
        });
        if (done) return true;
      }
      return false;
  }
  return false;
}

std::size_t Network::FlitsInFlight() const {
  std::size_t total = 0;
  for (const auto& r : routers_) total += r->BufferedFlits();
  for (const auto& link : flit_links_) total += link->channel.size();
  for (const auto& n : nics_) {
    if (!n->Idle()) ++total;  // counts as at least one pending unit
  }
  return total;
}

NetworkSummary Network::Summarize() const {
  NetworkSummary s;
  s.cycles = now_;
  for (const auto& n : nics_) {
    const NicStats& ns = n->stats();
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      s.packets_injected[ci] += ns.packets_injected[ci];
      s.packets_ejected[ci] += ns.packets_ejected[ci];
      s.flits_injected[ci] += ns.flits_injected[ci];
      s.flits_ejected[ci] += ns.flits_ejected[ci];
      s.packet_latency[ci].Merge(ns.packet_latency[ci]);
      s.network_latency[ci].Merge(ns.network_latency[ci]);
      s.latency_histogram[ci].Merge(ns.latency_histogram[ci]);
      s.qos_throttle_cycles[ci] += ns.qos_throttle_cycles[ci];
    }
  }
  for (const auto& r : routers_) s.flits_forwarded += r->stats().flits_forwarded;
  return s;
}

QosReport Network::QosResults() const {
  QosReport report;
  report.enabled = config_.qos.Enabled();
  report.arbitration = config_.qos.arbitration;
  const NetworkSummary summary = Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    QosClassReport& cls = report.classes[ci];
    static_cast<TrafficClassSpec&>(cls) = config_.qos.classes[ci];
    cls.throttle_cycles = summary.qos_throttle_cycles[ci];
    cls.packets_delivered = summary.packets_ejected[ci];
    cls.p99_latency = summary.latency_histogram[ci].Percentile(99.0);
  }
  // SLO accounting rides on telemetry's windowed latency series; without
  // the sampler the per-window judgement has no data and stays zero.
  if (telemetry_ != nullptr) {
    const TelemetryReport tr = telemetry_->Snapshot(now_);
    for (const TelemetryLatency& lat : tr.latency) {
      const SloSummary slo = ComputeSloSummary(lat, tr.sampled_until);
      QosClassReport& cls =
          report.classes[static_cast<std::size_t>(ClassIndex(lat.cls))];
      cls.slo_windows = slo.windows;
      cls.slo_violation_windows = slo.violation_windows;
      cls.slo_time_in_violation = slo.time_in_violation;
    }
  }
  return report;
}

std::uint64_t Network::LinkFlits(NodeId node, Port port,
                                 TrafficClass cls) const {
  return router(node).stats().flits_out[static_cast<std::size_t>(
      PortIndex(port))][static_cast<std::size_t>(ClassIndex(cls))];
}

void Network::ResetStats() {
  // Telemetry closes its open window against the pre-reset counters and
  // zeroes its baselines *before* the counters themselves are cleared.
  if (telemetry_ != nullptr) telemetry_->OnStatsReset(now_);
  for (auto& r : routers_) r->ResetStats();
  for (auto& n : nics_) n->ResetStats();
  // progress_events_ is cumulative (never reset); re-baseline against it.
  last_progress_counter_ = progress_events_;
  last_progress_cycle_ = now_;
}

void NetworkSummary::Merge(const NetworkSummary& other) {
  for (std::size_t c = 0; c < packets_injected.size(); ++c) {
    packets_injected[c] += other.packets_injected[c];
    packets_ejected[c] += other.packets_ejected[c];
    flits_injected[c] += other.flits_injected[c];
    flits_ejected[c] += other.flits_ejected[c];
    packet_latency[c].Merge(other.packet_latency[c]);
    network_latency[c].Merge(other.network_latency[c]);
    latency_histogram[c].Merge(other.latency_histogram[c]);
    qos_throttle_cycles[c] += other.qos_throttle_cycles[c];
  }
  flits_forwarded += other.flits_forwarded;
}

void NetworkSummary::Save(Serializer& s) const { Fields(*this, s); }
void NetworkSummary::Load(Deserializer& d) { Fields(*this, d); }

void Network::Save(Serializer& s) const { Fields(*this, s); }

void Network::Load(Deserializer& d) {
  packets_.Clear();
  Fields(*this, d);
  // The receiving router indexes input VCs by a flit's VC, and the
  // receiving router or NIC its credit counters by a credit's.
  const auto check_vc = [&](const char* what, std::size_t link, VcId vc) {
    if (vc >= 0 && vc < config_.num_vcs) return;
    throw SerializeError(std::string(what) + " link " + std::to_string(link) +
                         ": " + what + " on VC " + std::to_string(vc) +
                         " of " + std::to_string(config_.num_vcs));
  };
  for (std::size_t i = 0; i < flit_links_.size(); ++i) {
    flit_links_[i]->channel.ForEach(
        [&](const Flit& f) { check_vc("flit", i, f.vc); });
  }
  for (std::size_t i = 0; i < credit_links_.size(); ++i) {
    credit_links_[i]->channel.ForEach(
        [&](const Credit& c) { check_vc("credit", i, c.vc); });
  }
  // Channel/buffer Load writes contents directly (no wake hooks fire): soa
  // re-derives its bits from the loaded objects, so snapshots carry no
  // scheduler state (DESIGN.md §14).
  if (soa_ != nullptr) soa_->RebuildFromObjects();
}

}  // namespace gnoc
