// Unit tests for packet types, flit segmentation, the packet table and the
// v5 flit walk through it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/packet.hpp"

namespace gnoc {
namespace {

// The flits Packetize appends to an empty ring, oldest first, over records
// in `table`.
std::vector<Flit> PacketizeToVector(const Packet& packet, Coord dst_coord,
                                    PacketTable& table) {
  Ring<Flit> ring;
  Packetize(packet, dst_coord, table, ring);
  return {ring.begin(), ring.end()};
}

TEST(PacketTest, ClassOfMapsProtocolPhases) {
  EXPECT_EQ(ClassOf(PacketType::kReadRequest), TrafficClass::kRequest);
  EXPECT_EQ(ClassOf(PacketType::kWriteRequest), TrafficClass::kRequest);
  EXPECT_EQ(ClassOf(PacketType::kReadReply), TrafficClass::kReply);
  EXPECT_EQ(ClassOf(PacketType::kWriteReply), TrafficClass::kReply);
}

TEST(PacketTest, DefaultSizesMatchPaper) {
  // Sec. 3.1.1: read requests and write replies are single-flit; read
  // replies are 5 flits; write requests are 3..5 flits (we default to 5).
  PacketSizes sizes;
  EXPECT_EQ(sizes.SizeOf(PacketType::kReadRequest), 1);
  EXPECT_EQ(sizes.SizeOf(PacketType::kWriteReply), 1);
  EXPECT_EQ(sizes.SizeOf(PacketType::kReadReply), 5);
  EXPECT_GE(sizes.SizeOf(PacketType::kWriteRequest), 3);
  EXPECT_LE(sizes.SizeOf(PacketType::kWriteRequest), 5);
}

TEST(PacketizeTest, SingleFlitIsHeadTail) {
  Packet p;
  p.id = 42;
  p.type = PacketType::kReadRequest;
  p.src = 1;
  p.dst = 2;
  p.num_flits = 1;
  p.created = 10;
  p.injected = 12;
  p.payload = 77;
  PacketTable table(4, 4);
  const auto flits = PacketizeToVector(p, Coord{2, 0}, table);
  ASSERT_EQ(flits.size(), 1u);
  EXPECT_EQ(flits[0].kind, FlitKind::kHeadTail);
  EXPECT_EQ(flits[0].cls, TrafficClass::kRequest);
  EXPECT_EQ(flits[0].dst, 2);
  // The per-packet fields live in the packet's one record.
  ASSERT_EQ(table.live(), 1u);
  const PacketRecord& r = table[flits[0].slot];
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(r.src, 1);
  EXPECT_EQ(r.dst_coord, (Coord{2, 0}));
  EXPECT_EQ(r.size, 1);
  EXPECT_EQ(r.payload, 77u);
  EXPECT_EQ(r.created, 10u);
  EXPECT_EQ(r.injected, 12u);
  EXPECT_EQ(r.type, PacketType::kReadRequest);
  Packet back = r.ToPacket(/*ejected=*/30);
  EXPECT_EQ(back.ejected, 30u);
  back.ejected = 0;
  EXPECT_EQ(back.id, p.id);
  EXPECT_EQ(back.num_flits, p.num_flits);
  EXPECT_EQ(back.payload, p.payload);
  EXPECT_EQ(back.dst, p.dst);
}

TEST(PacketizeTest, MultiFlitStructure) {
  Packet p;
  p.id = 7;
  p.type = PacketType::kReadReply;
  p.num_flits = 5;
  PacketTable table(4, 4);
  const auto flits = PacketizeToVector(p, Coord{0, 0}, table);
  ASSERT_EQ(flits.size(), 5u);
  EXPECT_EQ(flits[0].kind, FlitKind::kHead);
  EXPECT_EQ(flits[1].kind, FlitKind::kBody);
  EXPECT_EQ(flits[2].kind, FlitKind::kBody);
  EXPECT_EQ(flits[3].kind, FlitKind::kBody);
  EXPECT_EQ(flits[4].kind, FlitKind::kTail);
  for (std::size_t i = 0; i < flits.size(); ++i) {
    EXPECT_EQ(flits[i].seq, i);
    EXPECT_EQ(flits[i].slot, flits[0].slot) << "one record per packet";
    EXPECT_EQ(flits[i].cls, TrafficClass::kReply);
  }
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table[flits[0].slot].size, 5);
}

TEST(PacketizeTest, TwoFlitPacketHasHeadAndTail) {
  Packet p;
  p.num_flits = 2;
  PacketTable table(4, 4);
  const auto flits = PacketizeToVector(p, Coord{}, table);
  ASSERT_EQ(flits.size(), 2u);
  EXPECT_EQ(flits[0].kind, FlitKind::kHead);
  EXPECT_EQ(flits[1].kind, FlitKind::kTail);
}

TEST(PacketizeTest, AppendsBehindQueuedFlits) {
  Packet first;
  first.id = 1;
  first.num_flits = 2;
  Packet second;
  second.id = 2;
  second.num_flits = 3;
  PacketTable table(4, 4);
  Ring<Flit> ring;
  Packetize(first, Coord{}, table, ring);
  Packetize(second, Coord{}, table, ring);
  const std::vector<Flit> flits(ring.begin(), ring.end());
  ASSERT_EQ(flits.size(), 5u);
  EXPECT_EQ(table[flits[1].slot].id, 1u);
  EXPECT_EQ(flits[1].kind, FlitKind::kTail);
  EXPECT_EQ(table[flits[2].slot].id, 2u);
  EXPECT_EQ(flits[2].kind, FlitKind::kHead);
  EXPECT_EQ(flits[4].seq, 2);
  EXPECT_EQ(table.live(), 2u);
}

/// The record of a `size`-flit read reply from tile 1 to tile 6 of a 4x4
/// grid.
PacketRecord Reply(PacketId id, int size = 5) {
  Packet p;
  p.id = id;
  p.type = PacketType::kReadReply;
  p.src = 1;
  p.dst = 6;
  p.num_flits = size;
  p.created = 100;
  p.injected = 104;
  p.payload = 0xABCD;
  p.addr = 0x4000;
  return PacketRecord::Of(p, Coord{2, 1});
}

/// Flit `seq` of the packet `record` describes.
Flit FlitOf(const PacketRecord& record, int seq) {
  Flit f;
  f.dst = record.dst;
  f.seq = static_cast<std::uint16_t>(seq);
  f.kind = KindAt(seq, record.size);
  f.cls = ClassOf(record.type);
  f.vc = 1;
  return f;
}

TEST(PacketTableTest, AReleasedSlotIsReused) {
  PacketTable table(4, 4);
  const PacketSlot a = table.Add(Reply(1));
  const PacketSlot b = table.Add(Reply(2));
  EXPECT_NE(a, b);
  EXPECT_EQ(table.live(), 2u);
  table.Release(a);
  EXPECT_EQ(table.live(), 1u);
  const PacketSlot c = table.Add(Reply(3));
  EXPECT_EQ(c, a) << "the released slot comes back first";
  EXPECT_EQ(table[c].id, 3u);
  EXPECT_EQ(table[b].id, 2u) << "the other record is untouched";
  EXPECT_EQ(table.live(), 2u);
  std::vector<PacketId> live;
  table.ForEachLive([&](const PacketRecord& r) { live.push_back(r.id); });
  EXPECT_EQ(live, (std::vector<PacketId>{3, 2}));
  table.Clear();
  EXPECT_EQ(table.live(), 0u);
}

TEST(PacketTableTest, ReleasingAFreeSlotAsserts) {
  PacketTable table(4, 4);
  const PacketSlot a = table.Add(Reply(1));
  table.Release(a);
  EXPECT_DEBUG_DEATH(table.Release(a), "released a free packet record");
  EXPECT_DEBUG_DEATH((void)table[a], "read of a released packet record");
}

// Load interns one record per packet id: a packet's flits share it, and a
// flit that disagrees with the record on a per-packet field is refused.
TEST(PacketTableTest, InterningDisagreeingFieldsThrows) {
  const PacketRecord reply = Reply(9);
  PacketTable table(4, 4);
  const PacketSlot head = table.Intern(FlitOf(reply, 0), reply);
  EXPECT_EQ(table.Intern(FlitOf(reply, 4), reply), head);
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table[head].dst, 6);
  const PacketSlot other = table.Intern(FlitOf(Reply(10), 0), Reply(10));
  EXPECT_NE(other, head);

  const auto intern_error = [&](PacketRecord r, Flit f) -> std::string {
    try {
      table.Intern(f, r);
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  const Flit body = FlitOf(reply, 2);
  PacketRecord r = reply;
  r.created = 101;
  EXPECT_EQ(intern_error(r, body), "flits of packet 9 disagree on created");
  r = reply;
  r.payload = 1;
  EXPECT_EQ(intern_error(r, body), "flits of packet 9 disagree on payload");
  r = reply;
  r.src = 2;
  EXPECT_EQ(intern_error(r, body), "flits of packet 9 disagree on src");
  r = reply;
  r.type = PacketType::kWriteReply;
  EXPECT_EQ(intern_error(r, body), "flits of packet 9 disagree on type_raw");
  Flit moved = body;
  moved.dst = 5;
  r = reply;
  r.dst_coord = Coord{1, 1};
  EXPECT_EQ(intern_error(r, moved), "flits of packet 9 disagree on dst");
  EXPECT_EQ(table.live(), 2u) << "a refused flit adds no record";
  EXPECT_EQ(intern_error(reply, body), "");
}

// The v5 walk of a flit writes the fifteen fields the fat flit carried, 75
// bytes: u64 packet_id @0, u8 kind @8, u8 cls @9, i32 src @10, i32 dst @14,
// i32 dst_coord x @18 and y @22, u16 seq @26, u16 packet_size @28, u64
// created @30, u64 injected @38, u64 ready @46, i32 vc @54, u8 type_raw
// @58, u64 payload @59, u64 addr @67. Loading it into a fresh table
// rebuilds the record and the flit.
TEST(FlitTest, WalkWritesTheV5FieldsAndLoadRebuildsTheRecord) {
  const PacketRecord reply = Reply(9);
  PacketTable table(4, 4);
  Flit flit = FlitOf(reply, 4);
  flit.slot = table.Add(reply);
  flit.ready = 77;
  Serializer s;
  IoFlit(s, flit, table);
  const std::string& bytes = s.bytes();
  ASSERT_EQ(bytes.size(), 75u);
  Deserializer check(bytes);
  EXPECT_EQ(check.U64(), 9u);
  EXPECT_EQ(check.U8(), static_cast<int>(FlitKind::kTail));
  EXPECT_EQ(check.U8(), ClassIndex(TrafficClass::kReply));
  EXPECT_EQ(check.I32(), 1);                 // src
  EXPECT_EQ(check.I32(), 6);                 // dst
  EXPECT_EQ(check.I32(), 2);                 // dst_coord
  EXPECT_EQ(check.I32(), 1);
  EXPECT_EQ(check.U16(), 4);                 // seq
  EXPECT_EQ(check.U16(), 5);                 // packet_size
  EXPECT_EQ(check.U64(), 100u);              // created
  EXPECT_EQ(check.U64(), 104u);              // injected
  EXPECT_EQ(check.U64(), 77u);               // ready
  EXPECT_EQ(check.I32(), 1);                 // vc
  EXPECT_EQ(check.U8(), static_cast<int>(PacketType::kReadReply));
  EXPECT_EQ(check.U64(), 0xABCDu);           // payload
  EXPECT_EQ(check.U64(), 0x4000u);           // addr
  check.Finish();

  PacketTable fresh(4, 4);
  Flit loaded;
  Deserializer d(bytes);
  IoFlit(d, loaded, fresh);
  d.Finish();
  Serializer again;
  IoFlit(again, loaded, fresh);
  EXPECT_EQ(again.bytes(), bytes);
  EXPECT_EQ(loaded.ready, 77u);
  EXPECT_EQ(fresh.live(), 1u);
}

// A loaded flit's kind, class, source, destination, seq, packet size and
// type are refused unless a network could have made them: traversal and
// ejection index per-class arrays by the class, RC indexes its LUT by the
// destination, the NIC reassembles by kind and a sink replies to the
// source. Each case patches one field of a saved tail flit (offsets as
// above).
TEST(FlitTest, LoadRefusesKindAndClassNoPacketHas) {
  const PacketRecord reply = Reply(9);
  PacketTable table(4, 4);
  Flit flit = FlitOf(reply, 4);
  flit.slot = table.Add(reply);
  Serializer s;
  IoFlit(s, flit, table);
  const std::string clean = s.bytes();
  // The error message of loading `bytes` into a flit, "" if none.
  const auto load_error = [](const std::string& bytes) -> std::string {
    PacketTable fresh(4, 4);
    Flit f;
    Deserializer d(bytes);
    try {
      IoFlit(d, f, fresh);
      d.Finish();
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  const auto patched = [&](std::size_t offset, std::uint32_t value,
                           int width) {
    std::string bytes = clean;
    for (int i = 0; i < width; ++i) {
      bytes[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    return bytes;
  };
  EXPECT_EQ(load_error(clean), "");
  EXPECT_NE(load_error(patched(8, 4, 1)).find("kind 4"), std::string::npos);
  EXPECT_NE(load_error(patched(9, 2, 1)).find("class 2"), std::string::npos);
  // In range, but not what the network makes.
  EXPECT_NE(load_error(patched(8, 1, 1)).find("kind 1 contradicts seq 4"),
            std::string::npos);
  EXPECT_NE(load_error(patched(26, 5, 2)).find("contradicts seq 5"),
            std::string::npos);
  EXPECT_NE(load_error(patched(28, 0, 2)).find("of a 0-flit packet"),
            std::string::npos);
  EXPECT_NE(load_error(patched(9, 0, 1)).find("not a packet type of class 0"),
            std::string::npos);
  EXPECT_NE(load_error(patched(58, 4, 1)).find("type 4"), std::string::npos);
  EXPECT_EQ(load_error(patched(58, 3, 1)), "") << "a write reply loads";
  EXPECT_NE(load_error(patched(14, 16, 4)).find("node 16 is not a tile"),
            std::string::npos);
  EXPECT_NE(load_error(patched(10, 0xFFFFFFFF, 4)).find("node -1"),
            std::string::npos);
  EXPECT_NE(load_error(patched(18, 100000, 4))
                .find("dst_coord (100000,1) is not tile 6's (2,1)"),
            std::string::npos);
}

TEST(PacketTest, Names) {
  EXPECT_STREQ(PacketTypeName(PacketType::kReadRequest), "read-request");
  EXPECT_STREQ(PacketTypeName(PacketType::kWriteReply), "write-reply");
}

}  // namespace
}  // namespace gnoc
