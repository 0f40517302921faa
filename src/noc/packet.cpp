#include "noc/packet.hpp"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace gnoc {

const char* PacketTypeName(PacketType t) {
  switch (t) {
    case PacketType::kReadRequest: return "read-request";
    case PacketType::kWriteRequest: return "write-request";
    case PacketType::kReadReply: return "read-reply";
    case PacketType::kWriteReply: return "write-reply";
  }
  return "?";
}

std::string InjectionProblem(NodeId src, NodeId dst, int num_flits,
                             int tiles) {
  const bool src_ok = src >= 0 && src < tiles;
  if (!src_ok || dst < 0 || dst >= tiles) {
    return std::string(src_ok ? "dst" : "src") + " is not a tile of the " +
           std::to_string(tiles) + "-tile network";
  }
  if (num_flits < 1 || num_flits > UINT16_MAX) {
    return "the flit count is outside [1, 65535]";
  }
  return {};
}

void CheckInjectable(const Packet& packet, int tiles) {
  const std::string problem =
      InjectionProblem(packet.src, packet.dst, packet.num_flits, tiles);
  if (problem.empty()) return;
  throw std::invalid_argument(
      std::string(PacketTypeName(packet.type)) + " packet " +
      std::to_string(packet.id) + " (src " + std::to_string(packet.src) +
      ", dst " + std::to_string(packet.dst) + ", " +
      std::to_string(packet.num_flits) + " flits): " + problem);
}

int PacketSizes::SizeOf(PacketType t) const {
  switch (t) {
    case PacketType::kReadRequest: return read_request;
    case PacketType::kWriteRequest: return write_request;
    case PacketType::kReadReply: return read_reply;
    case PacketType::kWriteReply: return write_reply;
  }
  return 1;
}

PacketRecord PacketRecord::Of(const Packet& packet, Coord dst_coord) {
  PacketRecord r;
  r.id = packet.id;
  r.created = packet.created;
  r.injected = packet.injected;
  r.payload = packet.payload;
  r.addr = packet.addr;
  r.src = packet.src;
  r.dst = packet.dst;
  r.dst_coord = dst_coord;
  r.size = static_cast<std::uint16_t>(packet.num_flits);
  r.type = packet.type;
  return r;
}

Packet PacketRecord::ToPacket(Cycle ejected) const {
  Packet p;
  p.id = id;
  p.type = type;
  p.src = src;
  p.dst = dst;
  p.num_flits = size;
  p.created = created;
  p.injected = injected;
  p.ejected = ejected;
  p.payload = payload;
  p.addr = addr;
  return p;
}

namespace {

/// The first per-packet field on which `a` and `b` differ, nullptr when
/// none does.
const char* FirstDifference(const PacketRecord& a, const PacketRecord& b) {
  if (a.src != b.src) return "src";
  if (a.dst != b.dst) return "dst";
  if (a.dst_coord != b.dst_coord) return "dst_coord";
  if (a.size != b.size) return "packet_size";
  if (a.created != b.created) return "created";
  if (a.injected != b.injected) return "injected";
  if (a.type != b.type) return "type_raw";
  if (a.payload != b.payload) return "payload";
  if (a.addr != b.addr) return "addr";
  return nullptr;
}

}  // namespace

void PacketTable::Check(const Flit& flit, const PacketRecord& record) const {
  const auto what = [&] {
    return "flit of packet " + std::to_string(record.id);
  };
  // Traversal and ejection index per-class arrays by the class.
  if (flit.kind > FlitKind::kHeadTail ||
      ClassIndex(flit.cls) >= kNumClasses) {
    throw SerializeError(
        what() + " has kind " + std::to_string(static_cast<int>(flit.kind)) +
        " and class " + std::to_string(ClassIndex(flit.cls)) +
        "; kinds stop at " +
        std::to_string(static_cast<int>(FlitKind::kHeadTail)) +
        " and classes at " + std::to_string(kNumClasses - 1));
  }
  // RC indexes its LUT by the destination; a sink replies to the source.
  for (const NodeId tile : {record.src, flit.dst}) {
    if (!IsTile(tile)) {
      throw SerializeError(what() + ": node " + std::to_string(tile) +
                           " is not a tile of the " + std::to_string(width_) +
                           "x" + std::to_string(height_) + " grid");
    }
  }
  if (record.dst_coord != CoordOf(flit.dst)) {
    throw SerializeError(what() + ": dst_coord " + ToString(record.dst_coord) +
                         " is not tile " + std::to_string(flit.dst) + "'s " +
                         ToString(CoordOf(flit.dst)));
  }
  // The NIC reassembles by kind: a tail ends the packet.
  if (flit.seq >= record.size || flit.kind != KindAt(flit.seq, record.size)) {
    throw SerializeError(what() + ": kind " +
                         std::to_string(static_cast<int>(flit.kind)) +
                         " contradicts seq " + std::to_string(flit.seq) +
                         " of a " + std::to_string(record.size) +
                         "-flit packet");
  }
  const int type = static_cast<int>(record.type);
  if (type >= kNumPacketTypes || ClassOf(record.type) != flit.cls) {
    throw SerializeError(what() + ": type " + std::to_string(type) +
                         " is not a packet type of class " +
                         std::to_string(ClassIndex(flit.cls)));
  }
}

PacketSlot PacketTable::Intern(const Flit& flit, const PacketRecord& record) {
  Check(flit, record);
  PacketRecord fields = record;
  fields.dst = flit.dst;
  const auto [it, first] = loaded_.try_emplace(record.id, PacketSlot{0});
  if (first) {
    it->second = Add(fields);
  } else if (const char* field = FirstDifference(records_[it->second],
                                                 fields)) {
    throw SerializeError("flits of packet " + std::to_string(record.id) +
                         " disagree on " + field);
  }
  return it->second;
}

void PacketTable::CheckQueued(const Packet& packet, Coord dst_coord,
                              TrafficClass queue) const {
  if (packet.num_flits < 1 || packet.num_flits > UINT16_MAX) {
    throw SerializeError("queued packet " + std::to_string(packet.id) +
                         " has " + std::to_string(packet.num_flits) +
                         " flits, outside [1, " +
                         std::to_string(UINT16_MAX) + "]");
  }
  Flit head;
  head.dst = packet.dst;
  head.kind = KindAt(0, packet.num_flits);
  head.cls = queue;
  Check(head, PacketRecord::Of(packet, dst_coord));
}

void Packetize(const Packet& packet, Coord dst_coord, PacketTable& packets,
               Ring<Flit>& out) {
  assert(packet.num_flits >= 1 && packet.num_flits <= UINT16_MAX);
  const PacketSlot slot = packets.Add(PacketRecord::Of(packet, dst_coord));
  for (int i = 0; i < packet.num_flits; ++i) {
    Flit& f = out.emplace_back();
    f.slot = slot;
    f.dst = packet.dst;
    f.seq = static_cast<std::uint16_t>(i);
    f.kind = KindAt(i, packet.num_flits);
    f.cls = packet.cls();
  }
}

}  // namespace gnoc
