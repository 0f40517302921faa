#include "noc/packet.hpp"

#include <cassert>

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

int PacketSizes::SizeOf(PacketType t) const {
  switch (t) {
    case PacketType::kReadRequest: return read_request;
    case PacketType::kWriteRequest: return write_request;
    case PacketType::kReadReply: return read_reply;
    case PacketType::kWriteReply: return write_reply;
  }
  return 1;
}

void Packetize(const Packet& packet, Coord dst_coord, Ring<Flit>& out) {
  assert(packet.num_flits >= 1);
  for (int i = 0; i < packet.num_flits; ++i) {
    Flit& f = out.emplace_back();
    f.packet_id = packet.id;
    if (packet.num_flits == 1) {
      f.kind = FlitKind::kHeadTail;
    } else if (i == 0) {
      f.kind = FlitKind::kHead;
    } else if (i == packet.num_flits - 1) {
      f.kind = FlitKind::kTail;
    } else {
      f.kind = FlitKind::kBody;
    }
    f.cls = packet.cls();
    f.src = packet.src;
    f.dst = packet.dst;
    f.dst_coord = dst_coord;
    f.seq = static_cast<std::uint16_t>(i);
    f.packet_size = static_cast<std::uint16_t>(packet.num_flits);
    f.created = packet.created;
    f.type_raw = static_cast<std::uint8_t>(packet.type);
    f.payload = packet.payload;
    f.addr = packet.addr;
  }
}

}  // namespace gnoc
