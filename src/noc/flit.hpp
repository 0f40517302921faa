// Flit: the unit of flow control in the wormhole-switched NoC.
//
// Packets are segmented into flits at the source NIC (see packet.hpp). Only
// head flits carry routing state; body/tail flits follow the wormhole their
// head opened.
#pragma once

#include <string>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace gnoc {

/// Position of a flit within its packet.
enum class FlitKind : std::uint8_t {
  kHead = 0,      ///< first flit of a multi-flit packet
  kBody = 1,      ///< middle flit
  kTail = 2,      ///< last flit of a multi-flit packet
  kHeadTail = 3,  ///< single-flit packet (head and tail at once)
};

/// Returns true for kHead and kHeadTail.
constexpr bool IsHead(FlitKind k) {
  return k == FlitKind::kHead || k == FlitKind::kHeadTail;
}

/// Returns true for kTail and kHeadTail.
constexpr bool IsTail(FlitKind k) {
  return k == FlitKind::kTail || k == FlitKind::kHeadTail;
}

/// One flit in flight. Small and trivially copyable: flits are moved between
/// buffers and channels every cycle.
struct Flit {
  PacketId packet_id = 0;
  FlitKind kind = FlitKind::kHeadTail;
  TrafficClass cls = TrafficClass::kRequest;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Coord dst_coord{};      ///< destination tile; used by route computation
  std::uint16_t seq = 0;  ///< flit index within the packet (0 = head)
  std::uint16_t packet_size = 1;  ///< total flits in the packet
  Cycle created = 0;      ///< cycle the parent packet was created
  Cycle injected = 0;     ///< cycle the head flit entered the network
  Cycle ready = 0;        ///< router-internal: cycle this flit becomes
                          ///< pipeline-eligible at its current hop
  VcId vc = kInvalidVc;   ///< VC this flit occupies on the current link
  std::uint8_t type_raw = 0;  ///< PacketType of the parent packet (raw enum
                              ///< value; packet.hpp depends on this header)
  std::uint64_t payload = 0;  ///< opaque handle for the transport user
  std::uint64_t addr = 0;     ///< memory address of the transaction (if any)

  void Save(Serializer& s) const { Fields(*this, s); }
  /// Throws SerializeError for a kind or class no packet has: traversal
  /// and ejection index per-class arrays by `cls`.
  void Load(Deserializer& d);

  /// Snapshot layout (DESIGN.md §10): all fields, declaration order.
  template <class Self, class Ar>
  static void Fields(Self& f, Ar& ar) {
    Io(ar, f.packet_id);
    Io(ar, f.kind);
    Io(ar, f.cls);
    Io(ar, f.src);
    Io(ar, f.dst);
    Io(ar, f.dst_coord);
    Io(ar, f.seq);
    Io(ar, f.packet_size);
    Io(ar, f.created);
    Io(ar, f.injected);
    Io(ar, f.ready);
    Io(ar, f.vc);
    Io(ar, f.type_raw);
    Io(ar, f.payload);
    Io(ar, f.addr);
  }
};

inline void Flit::Load(Deserializer& d) {
  Fields(*this, d);
  if (kind > FlitKind::kHeadTail || ClassIndex(cls) >= kNumClasses) {
    throw SerializeError(
        "flit of packet " + std::to_string(packet_id) + " has kind " +
        std::to_string(static_cast<int>(kind)) + " and class " +
        std::to_string(ClassIndex(cls)) + "; kinds stop at " +
        std::to_string(static_cast<int>(FlitKind::kHeadTail)) +
        " and classes at " + std::to_string(kNumClasses - 1));
  }
}

inline void Save(Serializer& s, const Flit& f) { f.Save(s); }
inline void Load(Deserializer& d, Flit& f) { f.Load(d); }

/// Returns true for head flits (convenience overload).
constexpr bool IsHead(const Flit& f) { return IsHead(f.kind); }

/// Returns true for tail flits (convenience overload).
constexpr bool IsTail(const Flit& f) { return IsTail(f.kind); }

}  // namespace gnoc
