// Unit tests for the Ring FIFO, the DelayLine channels built on it, and
// the router's per-VC flit FIFOs in one slab (VcBufferTest).
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/ring.hpp"
#include "common/serialize.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"
#include "noc/packet.hpp"

namespace gnoc {
namespace {

/// A flit told apart by its `ready` cycle.
Flit MakeFlit(Cycle id) {
  Flit f;
  f.ready = id;
  return f;
}

/// VC `vc`'s flits in `slab`, oldest first, by id.
std::vector<Cycle> Ids(const FlitSlab& slab, int vc) {
  std::vector<Cycle> ids;
  slab.ForEach(vc, [&](const Flit& f) { ids.push_back(f.ready); });
  return ids;
}

// Each VC of the slab is a FIFO over its own slots: order holds across
// wrap-arounds and traffic on one VC never shows on another.
TEST(VcBufferTest, FifoOrder) {
  FlitSlab slab(/*num_vcs=*/3, /*depth=*/4);
  for (Cycle id = 1; id <= 3; ++id) slab.Push(1, MakeFlit(id));
  slab.Push(2, MakeFlit(100));
  EXPECT_EQ(slab.size(1), 3u);
  EXPECT_EQ(slab.Front(1).ready, 1u);
  slab.Pop(1);
  EXPECT_EQ(slab.Front(1).ready, 2u);
  slab.Pop(1);
  // Wrap VC 1's head past the end of its slots.
  for (Cycle id = 4; id <= 6; ++id) slab.Push(1, MakeFlit(id));
  EXPECT_EQ(Ids(slab, 1), (std::vector<Cycle>{3, 4, 5, 6}));
  for (Cycle want = 3; want <= 6; ++want) {
    ASSERT_EQ(slab.Front(1).ready, want);
    slab.Pop(1);
  }
  EXPECT_TRUE(slab.empty(1));
  EXPECT_TRUE(slab.empty(0));
  EXPECT_EQ(Ids(slab, 2), (std::vector<Cycle>{100}));
}

TEST(VcBufferTest, CapacityTracking) {
  FlitSlab slab(/*num_vcs=*/2, /*depth=*/2);
  EXPECT_FALSE(slab.full(0));
  slab.Push(0, MakeFlit(1));
  EXPECT_EQ(slab.size(0), 1u);
  slab.Push(0, MakeFlit(2));
  EXPECT_TRUE(slab.full(0));
  EXPECT_FALSE(slab.full(1)) << "each VC has its own capacity";
  slab.Pop(0);
  EXPECT_FALSE(slab.full(0));
  EXPECT_EQ(slab.size(0), 1u);
}

// A VC's snapshot walk writes the v5 bytes of a VC buffer (a u64 count,
// then the flits); loading replaces the VC's contents, so a VC that held
// flits is emptied by an empty record, and a count past the depth is
// refused before any flit is read.
TEST(VcBufferTest, ClearEmpties) {
  const auto ready_io = [](auto& ar, auto& f) { Io(ar, f.ready); };
  FlitSlab slab(/*num_vcs=*/2, /*depth=*/3);
  slab.Push(0, MakeFlit(1));
  slab.Push(1, MakeFlit(7));
  Serializer one_flit;
  slab.Walk(one_flit, 1, ready_io);
  EXPECT_EQ(one_flit.bytes().size(), 16u) << "u64 count, one u64 ready";
  Serializer no_flits;
  FlitSlab(2, 3).Walk(no_flits, 0, ready_io);
  ASSERT_EQ(no_flits.bytes(), std::string(8, '\0'));

  Deserializer d(no_flits.bytes());
  slab.Walk(d, 0, ready_io);
  d.Finish();
  EXPECT_TRUE(slab.empty(0)) << "an empty record clears the VC";
  EXPECT_EQ(Ids(slab, 1), (std::vector<Cycle>{7})) << "and only that VC";

  Deserializer one(one_flit.bytes());
  slab.Walk(one, 0, ready_io);
  one.Finish();
  EXPECT_EQ(Ids(slab, 0), (std::vector<Cycle>{7}));

  Serializer four;
  four.U64(4);
  for (std::uint64_t i = 0; i < 4; ++i) four.U64(i);
  Deserializer past(four.bytes());
  EXPECT_THROW(slab.Walk(past, 0, ready_io), SerializeError);
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
  for (Cycle id = 1; id <= 4; ++id) ring.push_back(MakeFlit(id));
  ring.pop_front();
  ring.push_back(MakeFlit(5));  // full and wrapped
  ASSERT_EQ(ring.size(), ring.capacity());
  ring.push_back(ring.back());  // the argument lives in a slot that moves
  ASSERT_EQ(ring.size(), 5u);
  std::vector<Cycle> ids;
  for (const Flit& f : ring) ids.push_back(f.ready);
  EXPECT_EQ(ids, (std::vector<Cycle>{2, 3, 4, 5, 5}));
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
// same contents, so replacing the flit path's deques kept format v5. The
// items are those of a NIC's injection queue.
TEST(RingTest, IoSeqWritesTheBytesOfADequeWithTheSameContents) {
  Ring<std::pair<Packet, Coord>> ring;
  std::deque<std::pair<Packet, Coord>> deque;
  for (PacketId id = 1; id <= 6; ++id) {
    Packet p;
    p.id = id;
    p.type = id % 2 == 0 ? PacketType::kReadReply : PacketType::kWriteRequest;
    p.num_flits = static_cast<int>(id % 3) + 1;
    p.addr = 0x1000 * id;
    const Coord at{static_cast<int>(id), 2};
    ring.emplace_back(p, at);
    deque.emplace_back(p, at);
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

  Ring<std::pair<Packet, Coord>> loaded;
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
