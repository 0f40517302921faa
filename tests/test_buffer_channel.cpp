// Unit tests for the Ring FIFO and the VcBuffer and DelayLine channels
// built on it.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/ring.hpp"
#include "common/serialize.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"

namespace gnoc {
namespace {

Flit MakeFlit(PacketId id) {
  Flit f;
  f.packet_id = id;
  return f;
}

TEST(VcBufferTest, FifoOrder) {
  VcBuffer buf(4);
  buf.Push(MakeFlit(1));
  buf.Push(MakeFlit(2));
  buf.Push(MakeFlit(3));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.Pop().packet_id, 1u);
  EXPECT_EQ(buf.Pop().packet_id, 2u);
  EXPECT_EQ(buf.Front().packet_id, 3u);
  EXPECT_EQ(buf.Pop().packet_id, 3u);
  EXPECT_TRUE(buf.empty());
}

TEST(VcBufferTest, CapacityTracking) {
  VcBuffer buf(2);
  EXPECT_EQ(buf.free_slots(), 2u);
  EXPECT_FALSE(buf.full());
  buf.Push(MakeFlit(1));
  EXPECT_EQ(buf.free_slots(), 1u);
  buf.Push(MakeFlit(2));
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.free_slots(), 0u);
  buf.Pop();
  EXPECT_FALSE(buf.full());
}

TEST(VcBufferTest, ClearEmpties) {
  VcBuffer buf(3);
  buf.Push(MakeFlit(1));
  buf.Clear();
  EXPECT_TRUE(buf.empty());
}

TEST(DelayLineTest, RespectsLatency) {
  DelayLine<int> line(3);
  line.Push(42, 10);
  EXPECT_FALSE(line.Deliverable(10));
  EXPECT_FALSE(line.Deliverable(12));
  EXPECT_FALSE(line.Pop(12).has_value());
  EXPECT_TRUE(line.Deliverable(13));
  auto v = line.Pop(13);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(line.empty());
}

TEST(DelayLineTest, PreservesOrderUnderBackToBackPushes) {
  DelayLine<int> line(1);
  line.Push(1, 0);
  line.Push(2, 0);
  line.Push(3, 1);
  EXPECT_EQ(*line.Pop(1), 1);
  EXPECT_EQ(*line.Pop(1), 2);
  EXPECT_FALSE(line.Pop(1).has_value());
  EXPECT_EQ(*line.Pop(2), 3);
}

TEST(DelayLineTest, LateConsumerStillGetsItems) {
  DelayLine<int> line(1);
  line.Push(9, 0);
  // Consumer checks much later: item must still be there.
  EXPECT_EQ(*line.Pop(100), 9);
}

TEST(DelayLineTest, SizeCountsInFlight) {
  DelayLine<int> line(2);
  EXPECT_EQ(line.size(), 0u);
  line.Push(1, 0);
  line.Push(2, 1);
  EXPECT_EQ(line.size(), 2u);
  line.Pop(2);
  EXPECT_EQ(line.size(), 1u);
}

// The ring's items oldest first, through its iterators.
template <typename T>
std::vector<T> Items(const Ring<T>& ring) {
  return {ring.begin(), ring.end()};
}

TEST(RingTest, KeepsFifoOrderAcrossManyWrapArounds) {
  Ring<int> ring;
  ring.reserve(4);
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 3; ++i) ring.push_back(next_in++);
  // Hold three items while the head laps the four slots 250 times.
  for (int i = 0; i < 1000; ++i) {
    ring.push_back(next_in++);
    ASSERT_EQ(ring.front(), next_out);
    ring.pop_front();
    ++next_out;
  }
  EXPECT_EQ(ring.capacity(), 4u) << "never more than 4 items: no growth";
  EXPECT_EQ(Items(ring), (std::vector<int>{next_out, next_out + 1,
                                           next_out + 2}));
}

TEST(RingTest, GrowthWhileWrappedKeepsOrder) {
  Ring<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // full, and the oldest item sits in slot 2
  ASSERT_EQ(ring.capacity(), 4u);
  ring.push_back(6);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.push_back(7);
  EXPECT_EQ(ring.back(), 7);
  for (int want = 2; want <= 7; ++want) {
    ASSERT_EQ(ring.front(), want);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingTest, PushOfItsOwnBackSurvivesGrowth) {
  Ring<Flit> ring;
  for (PacketId id = 1; id <= 4; ++id) ring.push_back(MakeFlit(id));
  ring.pop_front();
  ring.push_back(MakeFlit(5));  // full and wrapped
  ASSERT_EQ(ring.size(), ring.capacity());
  ring.push_back(ring.back());  // the argument lives in a slot that moves
  ASSERT_EQ(ring.size(), 5u);
  std::vector<PacketId> ids;
  for (const Flit& f : ring) ids.push_back(f.packet_id);
  EXPECT_EQ(ids, (std::vector<PacketId>{2, 3, 4, 5, 5}));
}

TEST(RingTest, IteratesOldestFirst) {
  Ring<int> ring;
  EXPECT_TRUE(Items(ring).empty());
  for (int i = 0; i < 8; ++i) ring.push_back(i);
  for (int i = 0; i < 5; ++i) ring.pop_front();
  for (int i = 8; i < 12; ++i) ring.push_back(i);  // wraps into slots 0..3
  EXPECT_EQ(Items(ring), (std::vector<int>{5, 6, 7, 8, 9, 10, 11}));
  for (int& x : ring) x *= 10;  // mutable iteration writes the slots
  EXPECT_EQ(ring.front(), 50);
  EXPECT_EQ(ring.back(), 110);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(Items(ring).empty());
}

// The snapshot walk of a ring is byte for byte that of a deque with the
// same contents, so replacing the flit path's deques kept format v5.
TEST(RingTest, IoSeqWritesTheBytesOfADequeWithTheSameContents) {
  Ring<std::pair<Cycle, Flit>> ring;
  std::deque<std::pair<Cycle, Flit>> deque;
  for (PacketId id = 1; id <= 6; ++id) {
    Flit f = MakeFlit(id);
    f.kind = id % 2 == 0 ? FlitKind::kBody : FlitKind::kTail;
    f.vc = static_cast<VcId>(id % 3);
    f.addr = 0x1000 * id;
    ring.emplace_back(Cycle{10 + id}, f);
    deque.emplace_back(Cycle{10 + id}, f);
    if (id % 2 == 0) {  // wrap the ring's head past its first slots
      ring.pop_front();
      deque.pop_front();
    }
  }
  Serializer from_ring;
  Serializer from_deque;
  IoSeq(from_ring, ring);
  IoSeq(from_deque, deque);
  ASSERT_EQ(from_ring.bytes(), from_deque.bytes());

  Ring<std::pair<Cycle, Flit>> loaded;
  loaded.push_back({});  // Load replaces old contents
  Deserializer d(from_deque.bytes());
  IoSeq(d, loaded);
  d.Finish();
  Serializer again;
  IoSeq(again, loaded);
  EXPECT_EQ(again.bytes(), from_deque.bytes());
}

}  // namespace
}  // namespace gnoc
