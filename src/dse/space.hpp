// The discrete NoC design space the Pareto search explores (DESIGN.md §13).
//
// A DesignSpace is six ordered axes over the paper's configuration knobs —
// MC placement, routing algorithm, VC policy, topology, VC count and VC
// depth — layered on a fixed base GpuConfig (grid size, cores, memory).
// A DesignPoint is one index per axis; MakeConfig turns a point into the
// GpuConfig it denotes and PointLabel gives it a stable human-readable
// name. Both are pure functions of (space, point), which is what lets a
// resumed search re-derive identical sweep schemes (and therefore hit its
// batches' cell files) without storing configs anywhere.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/vc_policy.hpp"
#include "sim/gpu_config.hpp"

namespace gnoc {

/// Number of searchable axes (placement, routing, vc_policy, topology,
/// num_vcs, vc_depth).
inline constexpr std::size_t kNumDesignAxes = 6;

/// The axes' names, in axis order: the job spec's `space` keys and
/// pareto_search's axis flags.
inline constexpr std::array<const char*, kNumDesignAxes> kDesignAxisNames{
    "placements", "routings",  "vc_policies",
    "topologies", "vc_counts", "vc_depths"};

/// One point of the space: an index into each axis's value list.
struct DesignPoint {
  std::array<std::uint16_t, kNumDesignAxes> coord{};

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.coord);
  }

  friend bool operator==(const DesignPoint&, const DesignPoint&) = default;
  /// Lexicographic, for ordered containers / deterministic iteration.
  friend auto operator<=>(const DesignPoint&, const DesignPoint&) = default;
};

/// The searchable axes plus the fixed base configuration.
struct DesignSpace {
  std::vector<McPlacement> placements{McPlacement::kBottom};
  std::vector<RoutingAlgorithm> routings{RoutingAlgorithm::kXY};
  std::vector<VcPolicyKind> vc_policies{VcPolicyKind::kSplit};
  std::vector<TopologyKind> topologies{TopologyKind::kMesh};
  std::vector<int> vc_counts{2};
  std::vector<int> vc_depths{4};

  /// Every non-axis knob (grid size, circulant steps, cores, memory, seed).
  GpuConfig base = GpuConfig::Baseline();

  /// The paper's full sweep space over the 8x8 baseline: all four
  /// placements, all three routings, the four static VC policies, mesh and
  /// torus fabrics, 2/4 VCs and depths 4/8.
  static DesignSpace Default();

  /// Size of axis `axis` (0 <= axis < kNumDesignAxes).
  std::size_t AxisSize(std::size_t axis) const;

  /// Product of the axis sizes. Throws std::invalid_argument when any axis
  /// is empty — a space with an empty axis has no points.
  std::uint64_t NumPoints() const;

  /// The `index`-th point in lexicographic (axis-major) order,
  /// 0 <= index < NumPoints(). The last axis varies fastest.
  DesignPoint PointAt(std::uint64_t index) const;
};

/// Replaces axis `axis` of `space` with `values`: names through the enum
/// parsers (any case, aliases too), VC counts and depths as integers in
/// [1, INT_MAX]. Throws std::invalid_argument: the parser's refusal, or
/// "'<key>' must be an integer in [1, 2147483647], got <value>".
void SetAxis(DesignSpace& space, std::size_t axis,
             const std::vector<std::string>& values, const std::string& key);

/// The configuration a point denotes: `space.base` with the six axis
/// values applied. Asserts every coordinate is in range.
GpuConfig MakeConfig(const DesignSpace& space, const DesignPoint& point);

/// Stable display label, e.g. "bottom/XY/split/mesh/2v x4". Unique within
/// a space (one axis value per segment) and a pure function of the axis
/// values, so resumed searches regenerate identical sweep scheme labels.
std::string PointLabel(const DesignSpace& space, const DesignPoint& point);

/// Why `point` cannot be simulated, or "" when it can: the refusal of the
/// construction check itself (CheckGpuConfig on MakeConfig), caught, so
/// the search can skip infeasible designs without building a GpuSystem
/// instead of letting one of them abort a whole evaluation batch.
std::string DesignInfeasibility(const DesignSpace& space,
                                const DesignPoint& point);

/// Total input-buffer area of the design, in flit slots: routers x radix x
/// num_vcs x vc_depth on the point's topology. The cost objective of the
/// search — the paper's bandwidth-efficient designs are exactly the ones
/// that move this Pareto frontier.
double BufferAreaFlits(const DesignSpace& space, const DesignPoint& point);

}  // namespace gnoc
