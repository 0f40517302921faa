#include "noc/placement.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

const EnumRegistry<McPlacement>& PlacementRegistry() {
  static const EnumRegistry<McPlacement> kRegistry{
      "placement",
      {
          {"bottom", McPlacement::kBottom},
          {"edge", McPlacement::kEdge},
          {"top-bottom", McPlacement::kTopBottom},
          {"diamond", McPlacement::kDiamond},
          {"topbottom", McPlacement::kTopBottom},
      }};
  return kRegistry;
}

}  // namespace

const char* McPlacementName(McPlacement p) {
  return PlacementRegistry().Name(p);
}

McPlacement ParseMcPlacement(const std::string& name) {
  return PlacementRegistry().Parse(name);
}

namespace {

/// `count` indices spread evenly over [0, extent). `centered` offsets by
/// half a slot (used to stagger top-bottom columns vs edge rows).
std::vector<int> SpreadIndices(int count, int extent, bool centered) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double frac = centered ? (i + 0.5) : static_cast<double>(i);
    int idx = static_cast<int>(frac * extent / count);
    idx = std::clamp(idx, 0, extent - 1);
    out.push_back(idx);
  }
  return out;
}

}  // namespace

std::vector<Coord> McCoordinates(int width, int height, int num_mcs,
                                 McPlacement placement) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("mesh must be at least 2x2");
  }
  if (num_mcs < 1 || num_mcs >= width * height) {
    throw std::invalid_argument("invalid number of MCs");
  }
  std::vector<Coord> mcs;
  switch (placement) {
    case McPlacement::kBottom: {
      if (num_mcs > width) {
        throw std::invalid_argument("bottom placement needs num_mcs <= width");
      }
      for (int x : SpreadIndices(num_mcs, width, /*centered=*/true)) {
        mcs.push_back({x, height - 1});
      }
      break;
    }
    case McPlacement::kEdge: {
      const int left = num_mcs / 2;
      const int right = num_mcs - left;
      if (left > height || right > height) {
        throw std::invalid_argument("edge placement needs num_mcs/2 <= height");
      }
      for (int y : SpreadIndices(left, height, /*centered=*/false)) {
        mcs.push_back({0, y});
      }
      for (int y : SpreadIndices(right, height, /*centered=*/false)) {
        mcs.push_back({width - 1, y});
      }
      break;
    }
    case McPlacement::kTopBottom: {
      const int top = num_mcs / 2;
      const int bottom = num_mcs - top;
      if (top > width || bottom > width) {
        throw std::invalid_argument(
            "top-bottom placement needs num_mcs/2 <= width");
      }
      // Staggered: top MCs on even columns, bottom MCs on odd columns, so
      // the union spreads over every column (minimizes horizontal hops).
      for (int x : SpreadIndices(top, width, /*centered=*/false)) {
        mcs.push_back({x, 0});
      }
      for (int x : SpreadIndices(bottom, width, /*centered=*/true)) {
        mcs.push_back({x, height - 1});
      }
      break;
    }
    case McPlacement::kDiamond: {
      // The 8-MC diamond ring used by prior work (Abts et al.), scaled to
      // the mesh size. Fractions are over an 8x8 reference mesh.
      if (num_mcs != 8) {
        throw std::invalid_argument("diamond placement is defined for 8 MCs");
      }
      constexpr Coord kRef[] = {{3, 2}, {4, 2}, {2, 3}, {5, 3},
                                {2, 4}, {5, 4}, {3, 5}, {4, 5}};
      for (const Coord& r : kRef) {
        Coord c{r.x * width / 8, r.y * height / 8};
        c.x = std::clamp(c.x, 0, width - 1);
        c.y = std::clamp(c.y, 0, height - 1);
        mcs.push_back(c);
      }
      break;
    }
  }
  // Placements must produce distinct tiles.
  std::set<std::pair<int, int>> seen;
  for (const Coord& c : mcs) {
    if (!seen.insert({c.x, c.y}).second) {
      throw std::invalid_argument(
          "MC placement produced duplicate tiles; mesh too small");
    }
  }
  return mcs;
}

TilePlan::TilePlan(int width, int height, int num_mcs, McPlacement placement)
    : width_(width),
      height_(height),
      placement_(placement),
      is_mc_(static_cast<std::size_t>(width * height), false) {
  for (const Coord& c : McCoordinates(width, height, num_mcs, placement)) {
    is_mc_[static_cast<std::size_t>(NodeAt(c))] = true;
  }
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (is_mc_[static_cast<std::size_t>(n)]) {
      mc_nodes_.push_back(n);
    } else {
      core_nodes_.push_back(n);
    }
  }
}

NodeId TilePlan::NodeAt(Coord c) const {
  assert(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_);
  return c.y * width_ + c.x;
}

Coord TilePlan::CoordOf(NodeId n) const {
  assert(n >= 0 && n < num_nodes());
  return Coord{n % width_, n / width_};
}

bool TilePlan::IsMc(NodeId n) const {
  assert(n >= 0 && n < num_nodes());
  return is_mc_[static_cast<std::size_t>(n)];
}

std::vector<Coord> TilePlan::McCoords() const {
  std::vector<Coord> out;
  out.reserve(mc_nodes_.size());
  for (NodeId n : mc_nodes_) out.push_back(CoordOf(n));
  return out;
}

}  // namespace gnoc
