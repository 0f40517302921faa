// Memory-controller placement schemes (paper Fig. 5).
//
// The baseline GPGPU is an 8x8 mesh with 56 SM tiles and 8 MC tiles; the
// placement scheme decides which tiles host the MCs:
//
//   bottom      all MCs on the bottom row (the paper's baseline)
//   edge        MCs split between the left and right columns
//   top-bottom  MCs split between the top and bottom rows
//   diamond     MCs arranged in a diamond ring near the centre (the best
//               prior-work placement from Abts et al., least average hops)
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace gnoc {

/// The four MC placement schemes of Fig. 5.
enum class McPlacement : std::uint8_t {
  kBottom = 0,
  kEdge = 1,
  kTopBottom = 2,
  kDiamond = 3,
};

/// All placements, in the paper's presentation order.
inline constexpr McPlacement kAllPlacements[] = {
    McPlacement::kBottom, McPlacement::kEdge, McPlacement::kTopBottom,
    McPlacement::kDiamond};

/// Human readable name.
const char* McPlacementName(McPlacement p);

/// Parses "bottom" / "edge" / "top-bottom" / "diamond" (case-insensitive).
/// Throws std::invalid_argument on unknown names.
McPlacement ParseMcPlacement(const std::string& name);

/// Describes a mesh populated with SM and MC tiles.
class TilePlan {
 public:
  /// Builds the tile plan for a `width` x `height` mesh with `num_mcs`
  /// memory controllers placed according to `placement`. Requires enough
  /// tiles on the chosen rows/columns; the canonical configuration is
  /// 8x8 with 8 MCs. Throws std::invalid_argument when the placement cannot
  /// accommodate `num_mcs`.
  TilePlan(int width, int height, int num_mcs, McPlacement placement);

  int width() const { return width_; }
  int height() const { return height_; }
  McPlacement placement() const { return placement_; }

  int num_nodes() const { return width_ * height_; }
  int num_mcs() const { return static_cast<int>(mc_nodes_.size()); }
  int num_cores() const { return num_nodes() - num_mcs(); }

  /// Node id from coordinate (row-major).
  NodeId NodeAt(Coord c) const;
  /// Coordinate from node id.
  Coord CoordOf(NodeId n) const;

  bool IsMc(NodeId n) const;
  bool IsCore(NodeId n) const { return !IsMc(n); }

  /// MC node ids in ascending order.
  const std::vector<NodeId>& mc_nodes() const { return mc_nodes_; }
  /// Core (SM) node ids in ascending order.
  const std::vector<NodeId>& core_nodes() const { return core_nodes_; }

  /// MC coordinates in the same order as mc_nodes().
  std::vector<Coord> McCoords() const;

 private:
  int width_;
  int height_;
  McPlacement placement_;
  std::vector<NodeId> mc_nodes_;
  std::vector<NodeId> core_nodes_;
  std::vector<bool> is_mc_;
};

/// Returns the MC coordinates for `placement` on a `width` x `height` mesh
/// (the function TilePlan uses internally). Coordinates are deterministic
/// and spread as evenly as the scheme allows.
std::vector<Coord> McCoordinates(int width, int height, int num_mcs,
                                 McPlacement placement);

}  // namespace gnoc
