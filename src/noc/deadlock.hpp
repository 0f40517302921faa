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
// algorithm, counts each class's crossings of every directed link (the
// Eq. 2 coefficients), and derives which VC policies are provably safe.
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

/// Per-directed-link crossing counts by class: how many core<->MC routes of
/// each class leave a router through a port. These are the paper's Eq. 2
/// coefficients (Figs. 4 & 6), and a link whose two counts are both
/// non-zero is a mixed link (Sec. 3.2.1). Links are identified by the
/// upstream router and its output port on the topology graph. Injection
/// links (local ports) are not counted: a NIC sends only its endpoint's
/// class (cores requests, MCs replies), so they never mix.
class LinkUsage {
 public:
  /// Sized for `topo`'s router/port table (the Topology itself is not
  /// retained; LinkUsage stays value-semantic).
  explicit LinkUsage(const Topology& topo);

  int num_routers() const { return num_routers_; }
  int radix() const { return radix_; }

  /// Routes of `cls` crossing the link leaving `router` through `port`.
  int Count(int router, Port port, TrafficClass cls) const;
  /// Counts one more `cls` route across the link.
  void Add(int router, Port port, TrafficClass cls);

  /// True when `cls` uses the link.
  bool Uses(int router, Port port, TrafficClass cls) const {
    return Count(router, port, cls) > 0;
  }

  /// True when both classes use the link.
  bool Mixed(int router, Port port) const;

  /// Number of directed inter-router links used by both classes.
  int NumMixedLinks() const;

  /// True when every mixed link is horizontal (the XY-YX situation on the
  /// grid topologies; circulants have no horizontal/vertical distinction,
  /// so any mixed chord link returns false).
  bool MixedLinksAllHorizontal() const;

  /// Sum of `cls`'s counts: its link traversals over all pairs, i.e. the
  /// Eq. 3 hop sum.
  long long Total(TrafficClass cls) const;

  /// Renders `cls`'s counts on the links leaving through `port` as an
  /// ASCII grid, one line per row of the router grid (RouterCoord).
  std::string RenderGrid(Port port, TrafficClass cls) const;

 private:
  std::size_t Index(int router, Port port, TrafficClass cls) const;
  bool IsHorizontal(int port) const;

  TopologyKind kind_;
  int grid_width_;  ///< routers per router-grid row
  int num_routers_;
  int radix_;
  int num_local_ports_;
  /// counts_[(router * radix + port) * kNumClasses + class]
  std::vector<int> counts_;
};

/// Walks every request (core->MC) and reply (MC->core) route of the tile
/// plan on `topo`'s graph (wrap links, concentration and chords included)
/// and counts each class's crossings per link. With `idealized` every tile,
/// MC tiles included, counts as a core, matching the paper's Eq. 2
/// derivation; otherwise only the plan's core tiles do, which is the
/// traffic the simulator carries.
LinkUsage AnalyzeLinkUsage(const Topology& topo, const TilePlan& plan,
                           RoutingAlgorithm routing, bool idealized = false);

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

/// Derives which VC policies are protocol-deadlock safe for the pair on
/// `topo`.
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
