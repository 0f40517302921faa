#include "noc/deadlock.hpp"

#include <cassert>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace gnoc {

LinkUsage::LinkUsage(const Topology& topo)
    : kind_(topo.kind()),
      grid_width_(topo.RouterCoord(topo.num_routers() - 1).x + 1),
      num_routers_(topo.num_routers()),
      radix_(topo.radix()),
      num_local_ports_(topo.num_local_ports()),
      counts_(static_cast<std::size_t>(num_routers_ * radix_ * kNumClasses)) {}

std::size_t LinkUsage::Index(int router, Port port, TrafficClass cls) const {
  assert(router >= 0 && router < num_routers_);
  assert(PortIndex(port) < radix_);
  const int link = router * radix_ + PortIndex(port);
  return static_cast<std::size_t>(link * kNumClasses + ClassIndex(cls));
}

int LinkUsage::Count(int router, Port port, TrafficClass cls) const {
  return counts_[Index(router, port, cls)];
}

void LinkUsage::Add(int router, Port port, TrafficClass cls) {
  ++counts_[Index(router, port, cls)];
}

bool LinkUsage::Mixed(int router, Port port) const {
  return Uses(router, port, TrafficClass::kRequest) &&
         Uses(router, port, TrafficClass::kReply);
}

int LinkUsage::NumMixedLinks() const {
  int mixed = 0;
  for (int r = 0; r < num_routers_; ++r) {
    for (int p = 0; p < radix_; ++p) {
      if (Mixed(r, static_cast<Port>(p))) ++mixed;
    }
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
  for (int r = 0; r < num_routers_; ++r) {
    for (int p = 0; p < radix_; ++p) {
      if (Mixed(r, static_cast<Port>(p)) && !IsHorizontal(p)) return false;
    }
  }
  return true;
}

long long LinkUsage::Total(TrafficClass cls) const {
  long long total = 0;
  for (std::size_t i = ClassIndex(cls); i < counts_.size(); i += kNumClasses) {
    total += counts_[i];
  }
  return total;
}

std::string LinkUsage::RenderGrid(Port port, TrafficClass cls) const {
  std::ostringstream oss;
  for (int r = 0; r < num_routers_; ++r) {
    oss << std::setw(5) << Count(r, port, cls);
    if ((r + 1) % grid_width_ == 0) oss << '\n';
  }
  return oss.str();
}

LinkUsage AnalyzeLinkUsage(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing, bool idealized) {
  LinkUsage usage(topo);
  // Counts one route's crossings, hop by hop on the graph.
  const auto walk = [&](TrafficClass cls, NodeId src, NodeId dst) {
    int r = topo.RouterOf(src);
    const int dst_router = topo.RouterOf(dst);
    while (r != dst_router) {
      const RouteStep step = topo.Route(routing, cls, r, dst);
      assert(step.port >= topo.num_local_ports());
      usage.Add(r, static_cast<Port>(step.port), cls);
      r = topo.Peer(r, step.port);
      assert(r >= 0);
    }
  };
  std::vector<NodeId> cores = plan.core_nodes();
  if (idealized) {
    cores.resize(static_cast<std::size_t>(plan.num_nodes()));
    std::iota(cores.begin(), cores.end(), NodeId{0});
  }
  for (NodeId core : cores) {
    for (NodeId mc : plan.mc_nodes()) {
      walk(TrafficClass::kRequest, core, mc);
      walk(TrafficClass::kReply, mc, core);
    }
  }
  return usage;
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
