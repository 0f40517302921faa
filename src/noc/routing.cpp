#include "noc/routing.hpp"

#include <cassert>

#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

const EnumRegistry<RoutingAlgorithm>& RoutingRegistry() {
  static const EnumRegistry<RoutingAlgorithm> kRegistry{
      "routing",
      {
          {"XY", RoutingAlgorithm::kXY},
          {"YX", RoutingAlgorithm::kYX},
          {"XY-YX", RoutingAlgorithm::kXYYX},
          {"xyyx", RoutingAlgorithm::kXYYX},
      }};
  return kRegistry;
}

}  // namespace

const char* RoutingName(RoutingAlgorithm r) {
  return RoutingRegistry().Name(r);
}

RoutingAlgorithm ParseRouting(const std::string& name) {
  return RoutingRegistry().Parse(name);
}

Port ComputeOutputPort(RoutingAlgorithm algo, TrafficClass cls, Coord here,
                       Coord dst) {
  if (here == dst) return Port::kLocal;
  const DimensionOrder order = OrderFor(algo, cls);
  const bool need_x = here.x != dst.x;
  const bool need_y = here.y != dst.y;
  const bool go_x =
      need_x && (order == DimensionOrder::kXFirst || !need_y);
  if (go_x) {
    return dst.x > here.x ? Port::kEast : Port::kWest;
  }
  assert(need_y);
  // y grows southwards (row 0 is the top row).
  return dst.y > here.y ? Port::kSouth : Port::kNorth;
}

}  // namespace gnoc
