// Tests for the static protocol-deadlock safety analysis — the executable
// form of the paper's Sec. 3.2.1 argument.
#include <gtest/gtest.h>

#include "noc/deadlock.hpp"

namespace gnoc {
namespace {

TilePlan Plan(McPlacement p) { return TilePlan(8, 8, 8, p); }

/// The link table of placement `p` on the paper's 8x8 mesh.
LinkUsage Usage(McPlacement p, RoutingAlgorithm routing) {
  return AnalyzeLinkUsage(Topology::Mesh(8, 8), Plan(p), routing);
}

/// The safety report of placement `p` on the paper's 8x8 mesh.
SafetyReport Safety(McPlacement p, RoutingAlgorithm routing) {
  return AnalyzeSafety(Topology::Mesh(8, 8), Plan(p), routing);
}

TEST(LinkUsageTest, BottomXyHasNoMixedLinks) {
  // Fig. 4: with bottom MCs and XY routing, request and reply traffic never
  // share a directed link -> full monopolizing is safe.
  const auto usage = Usage(McPlacement::kBottom, RoutingAlgorithm::kXY);
  EXPECT_EQ(usage.NumMixedLinks(), 0);
}

TEST(LinkUsageTest, BottomYxHasNoMixedLinks) {
  const auto usage = Usage(McPlacement::kBottom, RoutingAlgorithm::kYX);
  EXPECT_EQ(usage.NumMixedLinks(), 0);
}

TEST(LinkUsageTest, BottomXyYxMixesOnHorizontalLinksOnly) {
  // Fig. 6c: XY-YX mixes classes on horizontal links, never vertical.
  const auto usage = Usage(McPlacement::kBottom, RoutingAlgorithm::kXYYX);
  EXPECT_GT(usage.NumMixedLinks(), 0);
  EXPECT_TRUE(usage.MixedLinksAllHorizontal());
}

TEST(LinkUsageTest, DiamondXyMixesLinks) {
  // Dispersed MCs mix request and reply traffic (Sec. 4.2, asymmetric VC
  // partitioning paragraph).
  const auto usage = Usage(McPlacement::kDiamond, RoutingAlgorithm::kXY);
  EXPECT_GT(usage.NumMixedLinks(), 0);
}

TEST(LinkUsageTest, BottomXyDirectionalPattern) {
  // With bottom MCs + XY: all request traffic moves south on vertical links,
  // all reply traffic moves north (Fig. 4a/4b).
  const TilePlan plan = Plan(McPlacement::kBottom);
  const auto usage = Usage(McPlacement::kBottom, RoutingAlgorithm::kXY);
  for (NodeId n = 0; n < plan.num_nodes(); ++n) {
    EXPECT_FALSE(usage.Uses(n, Port::kNorth, TrafficClass::kRequest));
    EXPECT_FALSE(usage.Uses(n, Port::kSouth, TrafficClass::kReply));
  }
  // Horizontal request traffic exists only in core rows; reply horizontal
  // traffic only in the MC row under XY.
  for (NodeId n : plan.core_nodes()) {
    EXPECT_FALSE(usage.Uses(n, Port::kEast, TrafficClass::kReply));
    EXPECT_FALSE(usage.Uses(n, Port::kWest, TrafficClass::kReply));
  }
}

TEST(SafetyTest, BottomXyAndYxAllowFullMonopolizing) {
  for (auto routing : {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX}) {
    const auto report = Safety(McPlacement::kBottom, routing);
    EXPECT_TRUE(report.full_monopolize_safe) << RoutingName(routing);
    EXPECT_TRUE(report.partial_monopolize_safe) << RoutingName(routing);
    EXPECT_EQ(report.BestSafePolicy(), VcPolicyKind::kFullMonopolize);
  }
}

TEST(SafetyTest, BottomXyYxAllowsPartialOnly) {
  const auto report = Safety(McPlacement::kBottom, RoutingAlgorithm::kXYYX);
  EXPECT_FALSE(report.full_monopolize_safe);
  EXPECT_TRUE(report.partial_monopolize_safe);
  EXPECT_EQ(report.BestSafePolicy(), VcPolicyKind::kPartialMonopolize);
}

TEST(SafetyTest, ValidateThrowsOnUnsafeConfig) {
  const TilePlan plan = Plan(McPlacement::kBottom);
  const Topology mesh = Topology::Mesh(8, 8);
  EXPECT_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                     VcPolicyKind::kFullMonopolize,
                                     /*allow_unsafe=*/false),
               std::invalid_argument);
  EXPECT_NO_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                        VcPolicyKind::kFullMonopolize,
                                        /*allow_unsafe=*/true));
  EXPECT_NO_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXY,
                                        VcPolicyKind::kFullMonopolize,
                                        /*allow_unsafe=*/false));
  // Split and asymmetric are always safe.
  EXPECT_NO_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                        VcPolicyKind::kSplit, false));
  EXPECT_NO_THROW(ValidatePolicyOrThrow(mesh, plan, RoutingAlgorithm::kXYYX,
                                        VcPolicyKind::kAsymmetric, false));
}

TEST(LinkUsageTest, MarkAndQueryRoundTrip) {
  LinkUsage usage(Topology::Mesh(4, 4));
  EXPECT_FALSE(usage.Uses(0, Port::kEast, TrafficClass::kRequest));
  usage.Add(0, Port::kEast, TrafficClass::kRequest);
  EXPECT_TRUE(usage.Uses(0, Port::kEast, TrafficClass::kRequest));
  EXPECT_FALSE(usage.Uses(0, Port::kEast, TrafficClass::kReply));
  EXPECT_FALSE(usage.Mixed(0, Port::kEast));
  usage.Add(0, Port::kEast, TrafficClass::kReply);
  EXPECT_TRUE(usage.Mixed(0, Port::kEast));
  EXPECT_EQ(usage.NumMixedLinks(), 1);
}

// Every (placement, routing) pair: the report must be internally consistent.
class SafetyMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<McPlacement, RoutingAlgorithm>> {};

TEST_P(SafetyMatrixTest, ReportIsConsistent) {
  const auto [placement, routing] = GetParam();
  const auto report = Safety(placement, routing);
  if (report.mixed_links == 0) {
    EXPECT_TRUE(report.full_monopolize_safe);
  }
  if (report.full_monopolize_safe) {
    EXPECT_EQ(report.mixed_links, 0);
  }
  // Link-aware partial monopolizing is safe for every pair by construction.
  EXPECT_TRUE(report.partial_monopolize_safe);
  EXPECT_FALSE(report.ToString().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SafetyMatrixTest,
    ::testing::Combine(::testing::ValuesIn(kAllPlacements),
                       ::testing::Values(RoutingAlgorithm::kXY,
                                         RoutingAlgorithm::kYX,
                                         RoutingAlgorithm::kXYYX)),
    [](const auto& info) {
      std::string n = std::string(McPlacementName(std::get<0>(info.param))) +
                      "_" + RoutingName(std::get<1>(info.param));
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace gnoc
