// Link-utilization coefficients (paper Eq. 2, Figs. 4 & 6).
//
// A coefficient is the number of (source, destination) communication pairs
// whose route crosses a given directed link, under the idealized assumption
// that every tile hosts a core sending one request to every MC and every MC
// answers each core once. Multiplying a coefficient by the per-pair traffic
// volume (Trqs or Trep from Eq. 1) approximates the flit load on that link.
//
// The paper derives closed forms for the bottom placement with XY routing
// (Eq. 2, 1-based row i and column j):
//
//   Csouth = N * i          Cnorth = N * (i - 1)        [reply mirror-image]
//   Ceast  = j * (N - j)    Cwest  = (N - j + 1) * (j - 1)
//
// This module holds those closed forms. The enumeration for any topology,
// placement and routing is AnalyzeLinkUsage (noc/deadlock.hpp) with
// `idealized` set; the tests cross-validate the two.
#pragma once

namespace gnoc {

/// Paper Eq. 2 closed forms for the bottom placement with XY routing,
/// request traffic, idealized cores. `i` is the 1-based row (from the top),
/// `j` the 1-based column (from the left), N the mesh edge size.
int Eq2CoefficientSouth(int n, int i);
int Eq2CoefficientNorth(int n, int i);
int Eq2CoefficientEast(int n, int j);
int Eq2CoefficientWest(int n, int j);

}  // namespace gnoc
