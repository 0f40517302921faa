// Unit tests for fundamental types.
#include <gtest/gtest.h>

#include "noc/flit.hpp"
#include "common/types.hpp"

namespace gnoc {
namespace {

TEST(TypesTest, CoordComparison) {
  EXPECT_EQ((Coord{1, 2}), (Coord{1, 2}));
  EXPECT_NE((Coord{1, 2}), (Coord{2, 1}));
}

TEST(TypesTest, Names) {
  EXPECT_STREQ(PortName(Port::kLocal), "local");
  EXPECT_STREQ(PortName(Port::kNorth), "north");
  EXPECT_STREQ(ClassName(TrafficClass::kRequest), "request");
  EXPECT_STREQ(ClassName(TrafficClass::kReply), "reply");
  EXPECT_EQ(ToString(Coord{3, 5}), "(3,5)");
}

TEST(FlitKindTest, HeadTailPredicates) {
  EXPECT_TRUE(IsHead(FlitKind::kHead));
  EXPECT_TRUE(IsHead(FlitKind::kHeadTail));
  EXPECT_FALSE(IsHead(FlitKind::kBody));
  EXPECT_FALSE(IsHead(FlitKind::kTail));
  EXPECT_TRUE(IsTail(FlitKind::kTail));
  EXPECT_TRUE(IsTail(FlitKind::kHeadTail));
  EXPECT_FALSE(IsTail(FlitKind::kHead));
  EXPECT_FALSE(IsTail(FlitKind::kBody));
}

}  // namespace
}  // namespace gnoc
