#include "noc/deadlock.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace gnoc {

LinkUsage::LinkUsage(int width, int height)
    : width_(width),
      height_(height),
      num_routers_(width * height),
      radix_(kNumPorts),
      num_local_ports_(1),
      usage_(static_cast<std::size_t>(width * height * kNumPorts), 0) {}

LinkUsage::LinkUsage(const Topology& topo)
    : kind_(topo.kind()),
      width_(topo.width()),
      height_(topo.height()),
      num_routers_(topo.num_routers()),
      radix_(topo.radix()),
      num_local_ports_(topo.num_local_ports()),
      usage_(static_cast<std::size_t>(topo.num_routers() * topo.radix()), 0) {}

std::size_t LinkUsage::Index(NodeId router, Port port) const {
  assert(router >= 0 && router < num_routers_);
  assert(PortIndex(port) < radix_);
  return static_cast<std::size_t>(router) *
             static_cast<std::size_t>(radix_) +
         static_cast<std::size_t>(PortIndex(port));
}

void LinkUsage::Mark(NodeId router, Port port, TrafficClass cls) {
  usage_[Index(router, port)] |=
      static_cast<std::uint8_t>(1u << ClassIndex(cls));
}

bool LinkUsage::Uses(NodeId router, Port port, TrafficClass cls) const {
  return (usage_[Index(router, port)] &
          static_cast<std::uint8_t>(1u << ClassIndex(cls))) != 0;
}

bool LinkUsage::Mixed(NodeId router, Port port) const {
  return usage_[Index(router, port)] == 0b11;
}

int LinkUsage::NumMixedLinks() const {
  int mixed = 0;
  for (std::uint8_t u : usage_) {
    if (u == 0b11) ++mixed;
  }
  return mixed;
}

bool LinkUsage::IsHorizontal(int port) const {
  // The grid topologies wire the compass as N, E, S, W right after the
  // local ports, so East/West sit at offsets 1 and 3. Circulant chords
  // have no horizontal/vertical distinction (the XY-YX cycle argument
  // does not apply), so no circulant link counts as horizontal.
  if (kind_ == TopologyKind::kCirculant) return false;
  return port == num_local_ports_ + 1 || port == num_local_ports_ + 3;
}

bool LinkUsage::MixedLinksAllHorizontal() const {
  for (NodeId r = 0; r < num_routers_; ++r) {
    for (int p = 0; p < radix_; ++p) {
      if (Mixed(r, static_cast<Port>(p)) && !IsHorizontal(p)) return false;
    }
  }
  return true;
}

namespace {

/// Marks every link of the route src->dst on the topology graph (including
/// the injection link at src's local port) as used by `cls`.
void MarkRoute(LinkUsage& usage, const Topology& topo,
               RoutingAlgorithm routing, TrafficClass cls, NodeId src_tile,
               NodeId dst_tile) {
  int r = topo.RouterOf(src_tile);
  usage.Mark(r, static_cast<Port>(topo.LocalPortOf(src_tile)),
             cls);  // injection link
  const int dst_router = topo.RouterOf(dst_tile);
  while (r != dst_router) {
    const RouteStep step = topo.Route(routing, cls, r, dst_tile);
    assert(step.port >= topo.num_local_ports());
    usage.Mark(r, static_cast<Port>(step.port), cls);
    r = topo.Peer(r, step.port);
    assert(r >= 0);
  }
  // Ejection is modelled by per-class NIC buffers, not by shared VCs, so it
  // is not a protocol-deadlock resource and is not marked.
}

}  // namespace

LinkUsage AnalyzeLinkUsage(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing) {
  LinkUsage usage(topo);
  for (NodeId core : plan.core_nodes()) {
    for (NodeId mc : plan.mc_nodes()) {
      MarkRoute(usage, topo, routing, TrafficClass::kRequest, core, mc);
      MarkRoute(usage, topo, routing, TrafficClass::kReply, mc, core);
    }
  }
  return usage;
}

LinkUsage AnalyzeLinkUsage(const TilePlan& plan, RoutingAlgorithm routing) {
  return AnalyzeLinkUsage(Topology::Mesh(plan.width(), plan.height()), plan,
                          routing);
}

VcPolicyKind SafetyReport::BestSafePolicy() const {
  if (full_monopolize_safe) return VcPolicyKind::kFullMonopolize;
  if (partial_monopolize_safe) return VcPolicyKind::kPartialMonopolize;
  return VcPolicyKind::kAsymmetric;
}

std::string SafetyReport::ToString() const {
  std::ostringstream oss;
  oss << McPlacementName(placement) << " + " << RoutingName(routing) << ": "
      << mixed_links << " mixed links";
  if (mixed_links > 0) {
    oss << (mixed_all_horizontal ? " (all horizontal)" : " (incl. vertical)");
  }
  oss << "; full-mono " << (full_monopolize_safe ? "SAFE" : "unsafe")
      << ", partial-mono " << (partial_monopolize_safe ? "SAFE" : "unsafe");
  return oss.str();
}

SafetyReport AnalyzeSafety(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing) {
  const LinkUsage usage = AnalyzeLinkUsage(topo, plan, routing);
  SafetyReport report;
  report.routing = routing;
  report.placement = plan.placement();
  report.mixed_links = usage.NumMixedLinks();
  report.mixed_all_horizontal = usage.MixedLinksAllHorizontal();
  report.full_monopolize_safe = report.mixed_links == 0;
  // Link-aware partial monopolizing splits exactly the mixed links, so it
  // is safe for every (placement, routing) pair by construction.
  report.partial_monopolize_safe = true;
  return report;
}

SafetyReport AnalyzeSafety(const TilePlan& plan, RoutingAlgorithm routing) {
  return AnalyzeSafety(Topology::Mesh(plan.width(), plan.height()), plan,
                       routing);
}

void ValidatePolicyOrThrow(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing, VcPolicyKind policy,
                           bool allow_unsafe,
                           std::array<int, kNumClasses> qos_reserved) {
  if (policy != VcPolicyKind::kFullMonopolize) {
    // Split and asymmetric partition VCs disjointly everywhere; link-aware
    // partial monopolizing splits exactly the mixed links. All three are
    // protocol-deadlock free by construction.
    return;
  }
  // A per-class QoS VC reservation on *both* classes restores safety on
  // mixed links: each class keeps a private escape VC everywhere, so
  // neither can be denied buffering by the other — the same disjointness
  // argument that proves the split policy safe (see deadlock.hpp).
  const bool escape_vcs = qos_reserved[0] >= 1 && qos_reserved[1] >= 1;
  const SafetyReport report = AnalyzeSafety(topo, plan, routing);
  const bool safe = report.full_monopolize_safe || escape_vcs;
  if (!safe && !allow_unsafe) {
    throw std::invalid_argument(
        std::string("VC policy '") + VcPolicyName(policy) +
        "' is not protocol-deadlock safe for " + report.ToString() +
        " (reserve >= 1 VC per class via qos_class=...,vcs=N to restore "
        "safety, or pass allow_unsafe)");
  }
}

}  // namespace gnoc
