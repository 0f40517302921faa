// Packet types of the GPGPU request/reply protocol, packet<->flit
// segmentation, and the per-network table that holds the per-packet fields
// of the packets in flight.
//
// The paper (Sec. 3.1.1) distinguishes four packet types:
//   read request  -> short (1 flit)          class: request
//   write request -> long  (3..5 flits)      class: request
//   read reply    -> long  (5 flits)         class: reply
//   write reply   -> short (1 flit)          class: reply
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring.hpp"
#include "common/serialize.hpp"
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

/// Why a packet from `src` to `dst` of `num_flits` flits cannot enter a
/// network of `tiles` tiles — a source or destination that is not a tile,
/// or a flit count outside [1, 65535] (its record counts flits in 16
/// bits) — or "" when it can.
std::string InjectionProblem(NodeId src, NodeId dst, int num_flits,
                             int tiles);

/// Throws std::invalid_argument, naming `packet`, when InjectionProblem
/// finds one on a network of `tiles` tiles.
void CheckInjectable(const Packet& packet, int tiles);

/// The per-packet fields of a packet in flight: what its flits share and
/// no hop reads. One record per packet, from segmentation at the source NIC
/// until the destination's sink accepts the tail.
struct PacketRecord {
  PacketId id = 0;
  Cycle created = 0;
  Cycle injected = 0;
  std::uint64_t payload = 0;
  std::uint64_t addr = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Coord dst_coord{};       ///< dst's coordinate (the v5 flit carries it)
  std::uint16_t size = 1;  ///< flits in the packet
  PacketType type = PacketType::kReadRequest;
  bool live = false;       ///< set by PacketTable::Add, cleared by Release

  /// The record of `packet` (at most 65535 flits), whose destination has
  /// coordinate `dst_coord`.
  static PacketRecord Of(const Packet& packet, Coord dst_coord);

  /// The packet these fields describe, delivered at `ejected`.
  Packet ToPacket(Cycle ejected) const;
};

/// The records of one network's packets in flight, indexed by the flits'
/// slots. Released slots are reused, most recently released first. The
/// grid is the network's tile grid, which Intern checks destinations
/// against.
class PacketTable {
 public:
  PacketTable(int width, int height) : width_(width), height_(height) {}

  /// Stores `record` in a free slot and returns the slot.
  PacketSlot Add(const PacketRecord& record) {
    PacketSlot slot;
    if (free_.empty()) {
      slot = static_cast<PacketSlot>(records_.size());
      records_.push_back(record);
    } else {
      slot = free_.back();
      free_.pop_back();
      records_[slot] = record;
    }
    records_[slot].live = true;
    return slot;
  }

  /// The record in `slot`, which must be live.
  const PacketRecord& operator[](PacketSlot slot) const {
    assert(records_[slot].live && "read of a released packet record");
    return records_[slot];
  }

  /// Frees `slot`, which must be live, for reuse.
  void Release(PacketSlot slot) {
    assert(records_[slot].live && "released a free packet record");
    records_[slot].live = false;
    free_.push_back(slot);
  }

  /// Records in use.
  std::size_t live() const { return records_.size() - free_.size(); }

  /// Visits the live records in slot order.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const PacketRecord& r : records_) {
      if (r.live) fn(r);
    }
  }

  // --- snapshot support (DESIGN.md §10) ---

  /// Starts a Load: drops every record and the packet-id index Intern
  /// keeps.
  void Clear() {
    records_.clear();
    free_.clear();
    loaded_.clear();
  }

  /// The slot of the packet a loaded flit belongs to: `record` holds the
  /// per-packet fields read with `flit` (its `dst` is taken from the flit).
  /// The first flit of a packet id since Clear adds its record; later ones
  /// share it. Throws SerializeError for what the network could not have
  /// made and the next Tick would index by: a kind or class past the last,
  /// a source or destination that is not a tile, a `dst_coord` that is not
  /// the destination's coordinate, a kind that contradicts `seq` and the
  /// packet size, a packet type not of the flit's class, and flits of one
  /// packet id that disagree on a per-packet field.
  PacketSlot Intern(const Flit& flit, const PacketRecord& record);

  /// Throws SerializeError for a loaded NIC's queued packet (one of class
  /// `queue`'s) whose flits Intern would refuse, or whose flit count is
  /// outside [1, 65535].
  void CheckQueued(const Packet& packet, Coord dst_coord,
                   TrafficClass queue) const;

 private:
  bool IsTile(NodeId n) const { return n >= 0 && n < width_ * height_; }
  Coord CoordOf(NodeId tile) const { return {tile % width_, tile / width_}; }

  /// Intern's refusals of one flit and its per-packet fields.
  void Check(const Flit& flit, const PacketRecord& record) const;

  int width_;
  int height_;
  std::vector<PacketRecord> records_;
  std::vector<PacketSlot> free_;
  std::unordered_map<PacketId, PacketSlot> loaded_;  ///< Intern's index
};

/// Snapshot layout of one flit (format v5, DESIGN.md §10): the fifteen
/// fields a flit carried before its per-packet fields moved into the
/// PacketTable, walked off the flit and its packet's record.
template <class F, class R, class Ar>
void FlitFields(F& flit, R& record, Ar& ar) {
  Io(ar, record.id);
  Io(ar, flit.kind);
  Io(ar, flit.cls);
  Io(ar, record.src);
  Io(ar, flit.dst);
  Io(ar, record.dst_coord);
  Io(ar, flit.seq);
  Io(ar, record.size);
  Io(ar, record.created);
  Io(ar, record.injected);
  Io(ar, flit.ready);
  Io(ar, flit.vc);
  Io(ar, record.type);
  Io(ar, record.payload);
  Io(ar, record.addr);
}

/// A flit in its v5 layout, with the per-packet fields read from (Save)
/// or interned into (Load) `packets`.
inline void IoFlit(Serializer& s, const Flit& flit,
                   const PacketTable& packets) {
  FlitFields(flit, packets[flit.slot], s);
}
inline void IoFlit(Deserializer& d, Flit& flit, PacketTable& packets) {
  PacketRecord record;
  FlitFields(flit, record, d);
  flit.slot = packets.Intern(flit, record);
}

/// Segments `packet` into `packet.num_flits` (1 to 65535) flits, appended
/// in order to `out`, over one new record in `packets`. `dst_coord` is the
/// mesh coordinate of `packet.dst` (the NIC knows the mapping). The flits
/// leave `vc` for the NIC to stamp.
void Packetize(const Packet& packet, Coord dst_coord, PacketTable& packets,
               Ring<Flit>& out);

}  // namespace gnoc
