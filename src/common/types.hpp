// Fundamental scalar types and small value types shared across the library.
//
// The simulator is cycle driven: every component exposes a `tick(Cycle now)`
// style interface and all timestamps are expressed in `Cycle`.
#pragma once

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <string>

namespace gnoc {

/// Simulation time in router clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "never": later than any reachable cycle (an empty VC's
/// ready cycle, an idle link's or NIC's next-due cycle).
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/// Flat node identifier inside a mesh (row-major: id = y * width + x).
using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;

/// Identifier of a virtual channel within an input or output port.
using VcId = std::int32_t;

/// Sentinel for "no VC assigned".
inline constexpr VcId kInvalidVc = -1;

/// Unique (per simulation) packet identifier.
using PacketId = std::uint64_t;

/// The five router ports of a 2D-mesh VC router.
///
/// `kLocal` is the injection/ejection port that connects the router to its
/// attached tile (an SM or a memory controller).
enum class Port : std::uint8_t {
  kLocal = 0,
  kNorth = 1,
  kEast = 2,
  kSouth = 3,
  kWest = 4,
};

/// Number of ports of a mesh router.
inline constexpr int kNumPorts = 5;

/// Converts a port to its array index.
constexpr int PortIndex(Port p) { return static_cast<int>(p); }

/// Human readable port name ("local", "north", ...).
const char* PortName(Port p);

/// Protocol class of a packet. GPGPU NoC traffic is two-phase:
/// cores send *requests* to memory controllers which answer with *replies*.
/// Keeping the classes on disjoint virtual networks (or proving their paths
/// disjoint, cf. VC monopolizing) is what guarantees protocol-deadlock
/// freedom.
enum class TrafficClass : std::uint8_t {
  kRequest = 0,
  kReply = 1,
};

/// Number of traffic classes.
inline constexpr int kNumClasses = 2;

/// Converts a traffic class to its array index.
constexpr int ClassIndex(TrafficClass c) { return static_cast<int>(c); }

/// Human readable class name ("request"/"reply").
const char* ClassName(TrafficClass c);

/// Integer coordinate of a tile in the mesh. x grows eastwards, y grows
/// southwards (row 0 is the top row, matching Fig. 4/5 of the paper).
struct Coord {
  int x = 0;
  int y = 0;

  friend constexpr auto operator<=>(const Coord&, const Coord&) = default;

  /// Snapshot layout: x, y (common/serialize.hpp).
  template <class Self, class Ar>
  static void Fields(Self& c, Ar& ar) {
    Io(ar, c.x);
    Io(ar, c.y);
  }
};

std::ostream& operator<<(std::ostream& os, Coord c);
std::ostream& operator<<(std::ostream& os, Port p);
std::ostream& operator<<(std::ostream& os, TrafficClass c);

/// Formats a coordinate as "(x,y)".
std::string ToString(Coord c);

}  // namespace gnoc
