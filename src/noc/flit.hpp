// Flit: the unit of flow control in the wormhole-switched NoC.
//
// Packets are segmented into flits at the source NIC (see packet.hpp). Only
// head flits carry routing state; body/tail flits follow the wormhole their
// head opened.
#pragma once

#include <cstdint>

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

/// The kind of flit `seq` of a `size`-flit packet (`seq` < `size`).
constexpr FlitKind KindAt(int seq, int size) {
  if (size == 1) return FlitKind::kHeadTail;
  if (seq == 0) return FlitKind::kHead;
  return seq == size - 1 ? FlitKind::kTail : FlitKind::kBody;
}

/// Index of a packet's record in its network's PacketTable (packet.hpp).
using PacketSlot = std::uint32_t;

/// One flit in flight: the fields a hop reads, and the slot of its packet's
/// record for everything else (id, source, timestamps, payload). Every
/// router-to-router hop copies it several times, so it stays at 24 bytes.
struct Flit {
  Cycle ready = 0;        ///< router-internal: cycle this flit becomes
                          ///< pipeline-eligible at its current hop
  PacketSlot slot = 0;    ///< the packet's record in the PacketTable
  NodeId dst = kInvalidNode;  ///< destination tile; the RC LUT's index
  VcId vc = kInvalidVc;   ///< VC this flit occupies on the current link
  std::uint16_t seq = 0;  ///< flit index within the packet (0 = head)
  FlitKind kind = FlitKind::kHeadTail;
  TrafficClass cls = TrafficClass::kRequest;
};

static_assert(sizeof(Flit) <= 24, "a hop copies the flit several times");

/// Returns true for head flits (convenience overload).
constexpr bool IsHead(const Flit& f) { return IsHead(f.kind); }

/// Returns true for tail flits (convenience overload).
constexpr bool IsTail(const Flit& f) { return IsTail(f.kind); }

}  // namespace gnoc
