#include "dse/space.hpp"

#include <cassert>
#include <charconv>
#include <climits>
#include <sstream>
#include <stdexcept>

#include "sim/gpu_system.hpp"

namespace gnoc {

DesignSpace DesignSpace::Default() {
  DesignSpace s;
  s.placements = {McPlacement::kBottom, McPlacement::kEdge,
                  McPlacement::kTopBottom, McPlacement::kDiamond};
  s.routings = {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX,
                RoutingAlgorithm::kXYYX};
  s.vc_policies = {VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
                   VcPolicyKind::kPartialMonopolize, VcPolicyKind::kAsymmetric};
  s.topologies = {TopologyKind::kMesh, TopologyKind::kTorus};
  s.vc_counts = {2, 4};
  s.vc_depths = {4, 8};
  return s;
}

std::size_t DesignSpace::AxisSize(std::size_t axis) const {
  switch (axis) {
    case 0: return placements.size();
    case 1: return routings.size();
    case 2: return vc_policies.size();
    case 3: return topologies.size();
    case 4: return vc_counts.size();
    case 5: return vc_depths.size();
    default: assert(false && "axis out of range"); return 0;
  }
}

std::uint64_t DesignSpace::NumPoints() const {
  std::uint64_t n = 1;
  for (std::size_t a = 0; a < kNumDesignAxes; ++a) {
    const std::size_t size = AxisSize(a);
    if (size == 0) {
      throw std::invalid_argument("DesignSpace axis " + std::to_string(a) +
                                  " is empty");
    }
    n *= size;
  }
  return n;
}

DesignPoint DesignSpace::PointAt(std::uint64_t index) const {
  assert(index < NumPoints());
  DesignPoint p;
  // Last axis varies fastest (row-major over the axes).
  for (std::size_t a = kNumDesignAxes; a-- > 0;) {
    const std::uint64_t size = AxisSize(a);
    p.coord[a] = static_cast<std::uint16_t>(index % size);
    index /= size;
  }
  return p;
}

namespace {

/// Bounds-checked axis lookup shared by MakeConfig/PointLabel.
template <typename T>
const T& AxisValue(const std::vector<T>& axis, std::uint16_t idx) {
  assert(idx < axis.size());
  return axis[idx];
}

template <typename T, typename Parse>
void ParseInto(std::vector<T>& axis, const std::vector<std::string>& values,
               Parse parse) {
  std::vector<T> parsed;
  for (const std::string& value : values) parsed.push_back(parse(value));
  axis = std::move(parsed);
}

}  // namespace

void SetAxis(DesignSpace& space, std::size_t axis,
             const std::vector<std::string>& values, const std::string& key) {
  const auto positive_int = [&key](const std::string& value) {
    int v = 0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, v);
    if (error != std::errc() || stop != end || v < 1) {
      throw std::invalid_argument("'" + key + "' must be an integer in [1, " +
                                  std::to_string(INT_MAX) + "], got " + value);
    }
    return v;
  };
  switch (axis) {
    case 0: ParseInto(space.placements, values, ParseMcPlacement); break;
    case 1: ParseInto(space.routings, values, ParseRouting); break;
    case 2: ParseInto(space.vc_policies, values, ParseVcPolicy); break;
    case 3: ParseInto(space.topologies, values, ParseTopology); break;
    case 4: ParseInto(space.vc_counts, values, positive_int); break;
    case 5: ParseInto(space.vc_depths, values, positive_int); break;
    default: assert(false && "axis out of range");
  }
}

GpuConfig MakeConfig(const DesignSpace& space, const DesignPoint& point) {
  GpuConfig cfg = space.base;
  cfg.placement = AxisValue(space.placements, point.coord[0]);
  cfg.routing = AxisValue(space.routings, point.coord[1]);
  cfg.vc_policy = AxisValue(space.vc_policies, point.coord[2]);
  cfg.topology = AxisValue(space.topologies, point.coord[3]);
  cfg.num_vcs = AxisValue(space.vc_counts, point.coord[4]);
  cfg.vc_depth = AxisValue(space.vc_depths, point.coord[5]);
  return cfg;
}

std::string PointLabel(const DesignSpace& space, const DesignPoint& point) {
  std::ostringstream oss;
  oss << McPlacementName(AxisValue(space.placements, point.coord[0])) << '/'
      << RoutingName(AxisValue(space.routings, point.coord[1])) << '/'
      << VcPolicyName(AxisValue(space.vc_policies, point.coord[2])) << '/'
      << TopologyName(AxisValue(space.topologies, point.coord[3])) << '/'
      << AxisValue(space.vc_counts, point.coord[4]) << 'v' << 'x'
      << AxisValue(space.vc_depths, point.coord[5]);
  return oss.str();
}

std::string DesignInfeasibility(const DesignSpace& space,
                                const DesignPoint& point) {
  try {
    CheckGpuConfig(MakeConfig(space, point));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

double BufferAreaFlits(const DesignSpace& space, const DesignPoint& point) {
  const GpuConfig cfg = MakeConfig(space, point);
  // Invalid topologies have no meaningful area; report the degenerate
  // router-less value instead of throwing (the caller already knows the
  // point is infeasible from DesignInfeasibility).
  try {
    const Topology topo = Topology::Make(cfg.topology, cfg.width, cfg.height,
                                         cfg.circulant_s1, cfg.circulant_s2);
    return static_cast<double>(topo.num_routers()) *
           static_cast<double>(topo.radix()) *
           static_cast<double>(cfg.num_vcs) *
           static_cast<double>(cfg.vc_depth);
  } catch (const std::exception&) {
    return 0.0;
  }
}

}  // namespace gnoc
