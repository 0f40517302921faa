// Packet types of the GPGPU request/reply protocol and packet<->flit
// segmentation.
//
// The paper (Sec. 3.1.1) distinguishes four packet types:
//   read request  -> short (1 flit)          class: request
//   write request -> long  (3..5 flits)      class: request
//   read reply    -> long  (5 flits)         class: reply
//   write reply   -> short (1 flit)          class: reply
#pragma once

#include "common/ring.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace gnoc {

/// Protocol-level packet type.
enum class PacketType : std::uint8_t {
  kReadRequest = 0,
  kWriteRequest = 1,
  kReadReply = 2,
  kWriteReply = 3,
};

/// Number of packet types.
inline constexpr int kNumPacketTypes = 4;

/// Maps a packet type to its traffic class (virtual network).
constexpr TrafficClass ClassOf(PacketType t) {
  return (t == PacketType::kReadRequest || t == PacketType::kWriteRequest)
             ? TrafficClass::kRequest
             : TrafficClass::kReply;
}

/// Human readable type name.
const char* PacketTypeName(PacketType t);

/// Default flit counts used throughout the library (paper Sec. 3.1.1).
struct PacketSizes {
  int read_request = 1;
  int write_request = 5;  ///< paper: 3..5 flits; 5 by default, configurable
  int read_reply = 5;
  int write_reply = 1;

  /// Returns the flit count for `t`.
  int SizeOf(PacketType t) const;
};

/// A protocol packet as seen by endpoints. The NoC transports packets by
/// segmenting them into flits at the source NIC and reassembling them at the
/// destination NIC.
struct Packet {
  PacketId id = 0;
  PacketType type = PacketType::kReadRequest;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int num_flits = 1;
  Cycle created = 0;           ///< cycle the endpoint produced the packet
  Cycle injected = 0;          ///< cycle the head flit left the source NIC
  Cycle ejected = 0;           ///< cycle the tail flit reached the dest NIC
  std::uint64_t payload = 0;   ///< opaque transaction handle
  std::uint64_t addr = 0;      ///< memory address of the transaction (if any)

  TrafficClass cls() const { return ClassOf(type); }

  /// Snapshot layout (DESIGN.md §10): all fields, declaration order.
  template <class Self, class Ar>
  static void Fields(Self& p, Ar& ar) {
    Io(ar, p.id);
    Io(ar, p.type);
    Io(ar, p.src);
    Io(ar, p.dst);
    Io(ar, p.num_flits);
    Io(ar, p.created);
    Io(ar, p.injected);
    Io(ar, p.ejected);
    Io(ar, p.payload);
    Io(ar, p.addr);
  }
};

inline void Save(Serializer& s, const Packet& p) { Packet::Fields(p, s); }
inline void Load(Deserializer& d, Packet& p) { Packet::Fields(p, d); }

/// Segments `packet` into `packet.num_flits` flits, appended in order to
/// `out`. `dst_coord` is the mesh coordinate of `packet.dst` (the NIC knows
/// the mapping). The flits leave `vc` and `injected` for the NIC to stamp.
void Packetize(const Packet& packet, Coord dst_coord, Ring<Flit>& out);

}  // namespace gnoc
