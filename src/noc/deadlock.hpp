// Static protocol-deadlock safety analysis (paper Sec. 3.2.1, Figs. 4 & 6).
//
// The paper's key observation: with the bottom MC placement and XY (or YX)
// routing, request traffic (cores -> MCs) and reply traffic (MCs -> cores)
// never traverse the same *directed* link, so the two virtual networks can
// be merged and every VC monopolized by whichever class uses the link —
// without protocol deadlock. Under XY-YX routing the classes mix on
// horizontal links only, permitting partial monopolizing.
//
// This module makes that argument executable: it walks every core->MC route
// (requests) and MC->core route (replies) under a given placement and routing
// algorithm, records which classes use each directed link, and derives which
// VC policies are provably safe.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/vc_policy.hpp"

namespace gnoc {

/// Per-directed-link class usage. Links are identified by the upstream
/// router and its output port (local ports model the injection links).
class LinkUsage {
 public:
  /// Mesh shorthand: equivalent to LinkUsage(Topology::Mesh(width, height)).
  LinkUsage(int width, int height);
  /// Sized for `topo`'s router/port table (the Topology itself is not
  /// retained; LinkUsage stays value-semantic).
  explicit LinkUsage(const Topology& topo);

  int width() const { return width_; }
  int height() const { return height_; }
  int num_routers() const { return num_routers_; }
  int radix() const { return radix_; }
  int num_local_ports() const { return num_local_ports_; }

  /// Marks that `cls` traffic uses the link leaving `router` through `port`.
  void Mark(NodeId router, Port port, TrafficClass cls);

  /// True when `cls` uses the link.
  bool Uses(NodeId router, Port port, TrafficClass cls) const;

  /// True when both classes use the link.
  bool Mixed(NodeId router, Port port) const;

  /// Number of directed inter-router links used by both classes.
  int NumMixedLinks() const;

  /// True when every mixed link is horizontal (the XY-YX situation on the
  /// grid topologies; circulants have no horizontal/vertical distinction,
  /// so any mixed chord link returns false).
  bool MixedLinksAllHorizontal() const;

 private:
  std::size_t Index(NodeId router, Port port) const;
  bool IsHorizontal(int port) const;

  TopologyKind kind_ = TopologyKind::kMesh;
  int width_;
  int height_;
  int num_routers_;
  int radix_;
  int num_local_ports_;
  /// usage_[router * radix + port] bit c set => class c uses the link.
  std::vector<std::uint8_t> usage_;
};

/// Walks all request and reply routes of a tile plan and collects per-link
/// class usage. Injection/ejection (local) links are included: an injection
/// link carries the classes its endpoint sends (cores: requests, MCs:
/// replies).
LinkUsage AnalyzeLinkUsage(const TilePlan& plan, RoutingAlgorithm routing);

/// Topology-aware overload: routes are walked on `topo`'s graph (wrap links,
/// concentration and chords included). The mesh overload above is exactly
/// AnalyzeLinkUsage(Topology::Mesh(plan.width(), plan.height()), ...).
LinkUsage AnalyzeLinkUsage(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing);

/// Result of the safety derivation for one (placement, routing) pair.
struct SafetyReport {
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  McPlacement placement = McPlacement::kBottom;
  int mixed_links = 0;
  bool mixed_all_horizontal = false;
  /// Safe policies, strongest first.
  bool full_monopolize_safe = false;
  bool partial_monopolize_safe = false;
  // Split and asymmetric partitioning are always safe (disjoint VC sets on
  // every link), so they are not repeated here.

  /// The strongest provably safe policy: full > partial > asymmetric.
  VcPolicyKind BestSafePolicy() const;

  std::string ToString() const;
};

/// Derives which VC policies are protocol-deadlock safe for the pair.
SafetyReport AnalyzeSafety(const TilePlan& plan, RoutingAlgorithm routing);

/// Topology-aware overload of AnalyzeSafety.
SafetyReport AnalyzeSafety(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing);

/// Convenience guard: throws std::invalid_argument when `policy` is not
/// provably protocol-deadlock safe for (plan, routing) on `topo` and
/// `allow_unsafe` is false. Used by the GPU system check (CheckGpuConfig)
/// so misconfigurations fail fast instead of deadlocking mid-simulation;
/// whether the VCs suffice (dateline halves included) is the network's
/// check, CheckNetworkConfig.
///
/// `qos_reserved` is the per-class QoS VC reservation (DESIGN.md §15).
/// When *both* classes reserve at least one VC, full monopolizing is safe
/// even on mixed links: each class always owns a private escape VC on
/// every link that the other class can never allocate, which is exactly
/// the disjoint-buffering argument that makes the split policy safe. An
/// asymmetric reservation (one class only) adds no such guarantee for the
/// unreserved class and falls back to the base analysis.
void ValidatePolicyOrThrow(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing, VcPolicyKind policy,
                           bool allow_unsafe,
                           std::array<int, kNumClasses> qos_reserved = {});

}  // namespace gnoc
