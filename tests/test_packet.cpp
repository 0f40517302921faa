// Unit tests for packet types and flit segmentation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/packet.hpp"

namespace gnoc {
namespace {

// The flits Packetize appends to an empty ring, oldest first.
std::vector<Flit> PacketizeToVector(const Packet& packet, Coord dst_coord) {
  Ring<Flit> ring;
  Packetize(packet, dst_coord, ring);
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
  p.payload = 77;
  const auto flits = PacketizeToVector(p, Coord{2, 0});
  ASSERT_EQ(flits.size(), 1u);
  EXPECT_EQ(flits[0].kind, FlitKind::kHeadTail);
  EXPECT_EQ(flits[0].packet_id, 42u);
  EXPECT_EQ(flits[0].cls, TrafficClass::kRequest);
  EXPECT_EQ(flits[0].dst_coord, (Coord{2, 0}));
  EXPECT_EQ(flits[0].payload, 77u);
  EXPECT_EQ(flits[0].created, 10u);
  EXPECT_EQ(static_cast<PacketType>(flits[0].type_raw),
            PacketType::kReadRequest);
}

TEST(PacketizeTest, MultiFlitStructure) {
  Packet p;
  p.id = 7;
  p.type = PacketType::kReadReply;
  p.num_flits = 5;
  const auto flits = PacketizeToVector(p, Coord{0, 0});
  ASSERT_EQ(flits.size(), 5u);
  EXPECT_EQ(flits[0].kind, FlitKind::kHead);
  EXPECT_EQ(flits[1].kind, FlitKind::kBody);
  EXPECT_EQ(flits[2].kind, FlitKind::kBody);
  EXPECT_EQ(flits[3].kind, FlitKind::kBody);
  EXPECT_EQ(flits[4].kind, FlitKind::kTail);
  for (std::size_t i = 0; i < flits.size(); ++i) {
    EXPECT_EQ(flits[i].seq, i);
    EXPECT_EQ(flits[i].packet_size, 5);
    EXPECT_EQ(flits[i].cls, TrafficClass::kReply);
  }
}

TEST(PacketizeTest, TwoFlitPacketHasHeadAndTail) {
  Packet p;
  p.num_flits = 2;
  const auto flits = PacketizeToVector(p, Coord{});
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
  Ring<Flit> ring;
  Packetize(first, Coord{}, ring);
  Packetize(second, Coord{}, ring);
  const std::vector<Flit> flits(ring.begin(), ring.end());
  ASSERT_EQ(flits.size(), 5u);
  EXPECT_EQ(flits[1].packet_id, 1u);
  EXPECT_EQ(flits[1].kind, FlitKind::kTail);
  EXPECT_EQ(flits[2].packet_id, 2u);
  EXPECT_EQ(flits[2].kind, FlitKind::kHead);
  EXPECT_EQ(flits[4].seq, 2);
}

// Flit::Load refuses a kind or class no packet has. Each case patches one
// byte of a saved flit, laid out as: u64 packet_id @0, u8 kind @8, u8 cls
// @9, then the other fields.
TEST(FlitTest, LoadRefusesKindAndClassNoPacketHas) {
  Flit flit;
  flit.packet_id = 9;
  Serializer s;
  Save(s, flit);
  const std::string clean = s.bytes();
  // The error message of loading `bytes` into a flit, "" if none.
  const auto load_error = [](const std::string& bytes) -> std::string {
    Flit f;
    Deserializer d(bytes);
    try {
      Load(d, f);
      d.Finish();
    } catch (const SerializeError& e) {
      return e.what();
    }
    return "";
  };
  const auto patched = [&](std::size_t offset, std::uint8_t value) {
    std::string bytes = clean;
    bytes[offset] = static_cast<char>(value);
    return bytes;
  };
  EXPECT_EQ(load_error(clean), "");
  EXPECT_EQ(load_error(patched(8, 3)), "");  // kHeadTail
  EXPECT_EQ(load_error(patched(9, 1)), "");  // kReply
  EXPECT_NE(load_error(patched(8, 4)).find("kind 4"), std::string::npos);
  EXPECT_NE(load_error(patched(9, 2)).find("class 2"), std::string::npos);
}

TEST(PacketTest, Names) {
  EXPECT_STREQ(PacketTypeName(PacketType::kReadRequest), "read-request");
  EXPECT_STREQ(PacketTypeName(PacketType::kWriteReply), "write-reply");
}

}  // namespace
}  // namespace gnoc
