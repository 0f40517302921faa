// Average hop-count analysis per MC placement (paper Eq. 3 and Table 1).
//
// Eq. 3 for an (N x N) mesh with N MCs and N^2 - N cores:
//
//           sum_j sum_i |row_mc,i - row_core,j| + |col_mc,i - col_core,j|
//   Havg = ------------------------------------------------------------
//                                N^2 (N - 1)
//
// Table 1 reports closed forms for the aggregate vertical (Hvert) and
// horizontal (Hhori) hop sums of each placement. This module provides the
// exact enumeration (valid for any placement and mesh) and the closed forms,
// each labelled exact or approximate. "Approximate" closed forms idealize
// the core set (they ignore that MC tiles displace cores); the enumeration
// is the ground truth the tests compare against.
#pragma once

#include "noc/placement.hpp"
#include "noc/topology.hpp"

namespace gnoc {

/// Aggregate hop sums over all core->MC pairs (Eq. 3 numerator, split by
/// dimension) plus the resulting average.
struct HopCounts {
  double vertical = 0.0;    ///< Hvert
  double horizontal = 0.0;  ///< Hhori
  long long num_pairs = 0;  ///< cores x MCs (Eq. 3 denominator)

  double total() const { return vertical + horizontal; }
  double average() const {
    return num_pairs == 0 ? 0.0 : total() / static_cast<double>(num_pairs);
  }
};

/// Exact enumeration of Eq. 3 for any tile plan and topology: distances
/// are the graph's DistanceSplit between the core and MC tiles' routers
/// (d1 counts as horizontal, d2 as vertical; for the circulant they are
/// s1/s2 steps). The paper's Eq. 3 is the Topology::Mesh case.
HopCounts EnumerateHopCounts(const Topology& topo, const TilePlan& plan);

/// Idealized all-(ordered-)pairs average router distance on the topology,
/// self-pairs included — the topology analogue of Eq. 3 with every tile a
/// core and every tile an MC. Closed forms:
///
///   mesh        (w^2-1)/(3w) + (h^2-1)/(3h)
///   torus       ring mean per dimension: k/4 (even k), (k^2-1)/(4k) (odd)
///   cmesh       mesh closed form on the (w/2) x (h/2) router grid
///   circulant   exact sum over the shortest-path step table (no closed
///               form for general C(N; s1, s2))
///
/// Validated against brute-force enumeration of Topology::Distance in the
/// tests; all four forms are exact.
double IdealizedAverageDistance(const Topology& topo);

/// Closed-form Table 1 entry. `exact` reports whether the closed form is an
/// identity (bottom; top-bottom vertical) or an idealized approximation.
struct ClosedFormHops {
  double vertical = 0.0;
  double horizontal = 0.0;
  bool vertical_exact = false;
  bool horizontal_exact = false;

  double total() const { return vertical + horizontal; }
};

/// Evaluates the Table 1 closed forms for an N x N mesh with N MCs, using
/// this library's placement geometry (see noc/placement.cpp):
///
///   bottom      Hvert = N^3 (N-1) / 2 (exact)
///               Hhori = N (N+1) (N-1)^2 / 3 (exact)
///   edge        Hhori = N^2 (N-1)^2 / 2 (exact)
///               Hvert ~ N^2 (N+1) (N-1) / 3 (approx, idealized cores)
///   top-bottom  Hvert = N^2 (N-1)^2 / 2 (exact)
///               Hhori ~ N (N+1) (N-1)^2 / 3 (approx; paper's printed form)
///   diamond     Hvert ~ Hhori ~ N^2 (N^2 - 1) / 4 (derived approx; the
///               paper's printed N^2 (N+1)(N-2)/8 normalizes implausibly)
ClosedFormHops ClosedFormHopCounts(McPlacement placement, int n);

}  // namespace gnoc
