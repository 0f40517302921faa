#include "analytic/hop_count.hpp"

namespace gnoc {

HopCounts EnumerateHopCounts(const Topology& topo, const TilePlan& plan) {
  HopCounts out;
  for (NodeId core : plan.core_nodes()) {
    for (NodeId mc : plan.mc_nodes()) {
      const DistanceParts parts = topo.DistanceSplit(core, mc);
      out.vertical += parts.d2;
      out.horizontal += parts.d1;
    }
  }
  out.num_pairs = static_cast<long long>(plan.core_nodes().size()) *
                  static_cast<long long>(plan.mc_nodes().size());
  return out;
}

namespace {

/// Mean |a - b| over ordered pairs (a, b) in [0, k)^2, self-pairs included:
/// sum = (k^3 - k) / 3, mean = (k^2 - 1) / (3k).
double LineMeanDistance(int k) {
  const double kd = k;
  return (kd * kd - 1.0) / (3.0 * kd);
}

/// Mean ring distance min(d, k - d) over d uniform in [0, k).
double RingMeanDistance(int k) {
  const double kd = k;
  return k % 2 == 0 ? kd / 4.0 : (kd * kd - 1.0) / (4.0 * kd);
}

}  // namespace

double IdealizedAverageDistance(const Topology& topo) {
  switch (topo.kind()) {
    case TopologyKind::kMesh:
      return LineMeanDistance(topo.width()) + LineMeanDistance(topo.height());
    case TopologyKind::kTorus:
      return RingMeanDistance(topo.width()) + RingMeanDistance(topo.height());
    case TopologyKind::kCMesh:
      // Each router hosts the same number of tiles, so tile pairs weight
      // router-grid pairs uniformly and the mesh closed form applies to the
      // router grid.
      return LineMeanDistance(topo.width() / 2) +
             LineMeanDistance(topo.height() / 2);
    case TopologyKind::kCirculant: {
      // Vertex-transitive: the distance distribution from any router equals
      // the distance-by-delta table, so one O(N) sweep is exact.
      const int n = topo.num_routers();
      long long sum = 0;
      for (int d = 0; d < n; ++d) sum += topo.Distance(0, d);
      return static_cast<double>(sum) / static_cast<double>(n);
    }
  }
  return 0.0;
}

ClosedFormHops ClosedFormHopCounts(McPlacement placement, int n) {
  const double nd = n;
  ClosedFormHops out;
  switch (placement) {
    case McPlacement::kBottom:
      out.vertical = nd * nd * nd * (nd - 1) / 2.0;
      out.vertical_exact = true;
      out.horizontal = nd * (nd + 1) * (nd - 1) * (nd - 1) / 3.0;
      out.horizontal_exact = true;
      break;
    case McPlacement::kEdge:
      // Horizontal: every tile is (N/2)(N-1) total horizontal hops from the
      // MC set, independent of position, so restricting to cores is exact.
      out.horizontal = nd * nd * (nd - 1) * (nd - 1) / 2.0;
      out.horizontal_exact = true;
      // Vertical: idealized over all N^2 tiles (MC rows are even rows).
      out.vertical = nd * nd * (nd + 1) * (nd - 1) / 3.0;
      out.vertical_exact = false;
      break;
    case McPlacement::kTopBottom:
      out.vertical = nd * nd * (nd - 1) * (nd - 1) / 2.0;
      out.vertical_exact = true;
      // Horizontal: staggered MC columns cover every column; the paper's
      // printed approximation assumes N-1 effective core rows.
      out.horizontal = nd * (nd + 1) * (nd - 1) * (nd - 1) / 3.0;
      out.horizontal_exact = false;
      break;
    case McPlacement::kDiamond:
      // Derived approximation for the central diamond ring: per-tile
      // expected distance to the ring is ~ (N+1)/4 per dimension, giving
      // N^2 (N^2 - 1) / 4 aggregate hops. (The paper's printed form
      // N^2 (N+1)(N-2)/8 normalizes implausibly small for N=8 — likely a
      // typesetting loss; see EXPERIMENTS.md.)
      out.vertical = nd * nd * (nd * nd - 1) / 4.0;
      out.horizontal = nd * nd * (nd * nd - 1) / 4.0;
      out.vertical_exact = false;
      out.horizontal_exact = false;
      break;
  }
  return out;
}

}  // namespace gnoc
