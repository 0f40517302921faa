// Dimension-ordered routing algorithms (paper Sec. 3.2.2).
//
//   XY    — both classes route X first, then Y.
//   YX    — both classes route Y first, then X.
//   XY-YX — requests route XY, replies route YX: with bottom MCs this removes
//           all reply traffic from the horizontal links between MCs, the
//           paper's best-performing combination (Fig. 6).
//
// The paper deliberately excludes adaptive routing (footnote 1), so all
// routes are deterministic and minimal.
#pragma once

#include <string>

#include "common/types.hpp"

namespace gnoc {

/// The three routing algorithms evaluated in the paper.
enum class RoutingAlgorithm : std::uint8_t {
  kXY = 0,
  kYX = 1,
  kXYYX = 2,  ///< request: XY, reply: YX
};

/// Human readable name ("XY", "YX", "XY-YX").
const char* RoutingName(RoutingAlgorithm r);

/// Parses "xy" / "yx" / "xy-yx" (case-insensitive). Throws
/// std::invalid_argument on unknown names.
RoutingAlgorithm ParseRouting(const std::string& name);

/// The dimension order a packet of class `cls` follows under `algo`.
enum class DimensionOrder : std::uint8_t { kXFirst, kYFirst };

/// Resolves the per-class dimension order of `algo`.
constexpr DimensionOrder OrderFor(RoutingAlgorithm algo, TrafficClass cls) {
  switch (algo) {
    case RoutingAlgorithm::kXY: return DimensionOrder::kXFirst;
    case RoutingAlgorithm::kYX: return DimensionOrder::kYFirst;
    case RoutingAlgorithm::kXYYX:
      return cls == TrafficClass::kRequest ? DimensionOrder::kXFirst
                                           : DimensionOrder::kYFirst;
  }
  return DimensionOrder::kXFirst;
}

/// Computes the output port a packet of class `cls` takes at coordinate
/// `here` towards `dst` under routing algorithm `algo`. Returns kLocal when
/// `here == dst` (ejection).
Port ComputeOutputPort(RoutingAlgorithm algo, TrafficClass cls, Coord here,
                       Coord dst);

}  // namespace gnoc
