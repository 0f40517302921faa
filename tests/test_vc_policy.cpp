// Unit tests for VC organization policies.
#include <gtest/gtest.h>

#include <stdexcept>

#include "noc/vc_policy.hpp"

namespace gnoc {
namespace {

constexpr Port kAllPorts[] = {Port::kLocal, Port::kNorth, Port::kEast,
                              Port::kSouth, Port::kWest};

TEST(VcPolicyTest, SplitDividesEvenly) {
  VcPolicy policy(VcPolicyKind::kSplit, 4);
  for (Port p : kAllPorts) {
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kRequest, p), (VcRange{0, 2}));
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kReply, p), (VcRange{2, 4}));
    EXPECT_FALSE(policy.ClassesShareVcs(p));
  }
}

TEST(VcPolicyTest, FullMonopolizeSharesEverything) {
  VcPolicy policy(VcPolicyKind::kFullMonopolize, 2);
  for (Port p : kAllPorts) {
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kRequest, p), (VcRange{0, 2}));
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kReply, p), (VcRange{0, 2}));
    EXPECT_TRUE(policy.ClassesShareVcs(p));
  }
}

TEST(VcPolicyTest, PartialMonopolizeIsLinkAware) {
  VcPolicy policy(VcPolicyKind::kPartialMonopolize, 2);
  for (Port p : kAllPorts) {
    // Mixed links (the conservative default) stay split.
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kRequest, p, LinkMode::kMixed),
              (VcRange{0, 1}));
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kReply, p, LinkMode::kMixed),
              (VcRange{1, 2}));
    EXPECT_FALSE(policy.ClassesShareVcs(p, LinkMode::kMixed));
    // Statically single-class links are monopolized.
    EXPECT_EQ(
        policy.AllowedVcs(TrafficClass::kRequest, p, LinkMode::kSingleClass),
        (VcRange{0, 2}));
    EXPECT_EQ(
        policy.AllowedVcs(TrafficClass::kReply, p, LinkMode::kSingleClass),
        (VcRange{0, 2}));
    EXPECT_TRUE(policy.ClassesShareVcs(p, LinkMode::kSingleClass));
  }
}

TEST(VcPolicyTest, LinkModeOnlyAffectsPartialMonopolize) {
  for (auto kind : {VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
                    VcPolicyKind::kAsymmetric}) {
    VcPolicy policy(kind, 4);
    for (Port p : kAllPorts) {
      for (auto cls : {TrafficClass::kRequest, TrafficClass::kReply}) {
        EXPECT_EQ(policy.AllowedVcs(cls, p, LinkMode::kMixed),
                  policy.AllowedVcs(cls, p, LinkMode::kSingleClass))
            << VcPolicyName(kind);
      }
    }
  }
}

TEST(VcPolicyTest, AsymmetricFavorsReplies) {
  VcPolicy policy(VcPolicyKind::kAsymmetric, 4);
  for (Port p : kAllPorts) {
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kRequest, p), (VcRange{0, 1}));
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kReply, p), (VcRange{1, 4}));
    EXPECT_FALSE(policy.ClassesShareVcs(p));
  }
}

TEST(VcPolicyTest, RangesCoverAllVcsWithoutGaps) {
  // For partitioning policies, the two class ranges must tile [0, V).
  for (auto kind : {VcPolicyKind::kSplit, VcPolicyKind::kAsymmetric}) {
    for (int v : {2, 4, 6, 8}) {
      VcPolicy policy(kind, v);
      for (Port p : kAllPorts) {
        const VcRange rq = policy.AllowedVcs(TrafficClass::kRequest, p);
        const VcRange rp = policy.AllowedVcs(TrafficClass::kReply, p);
        EXPECT_EQ(rq.begin, 0);
        EXPECT_EQ(rq.end, rp.begin);
        EXPECT_EQ(rp.end, v);
        EXPECT_GE(rq.size(), 1);
        EXPECT_GE(rp.size(), 1);
      }
    }
  }
}

// A partitioning policy gives each class VCs of its own, so it cannot
// divide one VC; the constructor refuses that in every build, while full
// monopolizing shares the one VC.
TEST(VcPolicyTest, PartitioningThrowsAtOneVc) {
  for (auto kind : {VcPolicyKind::kSplit, VcPolicyKind::kPartialMonopolize,
                    VcPolicyKind::kAsymmetric, VcPolicyKind::kDynamic}) {
    EXPECT_THROW(VcPolicy(kind, 1), std::invalid_argument)
        << VcPolicyName(kind);
  }
  EXPECT_NO_THROW(VcPolicy(VcPolicyKind::kFullMonopolize, 1));
}

TEST(VcRangeTest, ContainsAndSize) {
  const VcRange r{1, 4};
  EXPECT_EQ(r.size(), 3);
  EXPECT_FALSE(r.Contains(0));
  EXPECT_TRUE(r.Contains(1));
  EXPECT_TRUE(r.Contains(3));
  EXPECT_FALSE(r.Contains(4));
}

TEST(VcPolicyTest, PartitionAtSplitsAtBoundary) {
  EXPECT_EQ(PartitionAt(TrafficClass::kRequest, 1, 4), (VcRange{0, 1}));
  EXPECT_EQ(PartitionAt(TrafficClass::kReply, 1, 4), (VcRange{1, 4}));
  EXPECT_EQ(PartitionAt(TrafficClass::kRequest, 3, 4), (VcRange{0, 3}));
  EXPECT_EQ(PartitionAt(TrafficClass::kReply, 3, 4), (VcRange{3, 4}));
  // The two ranges always tile [0, num_vcs).
  for (VcId b = 1; b <= 3; ++b) {
    const VcRange rq = PartitionAt(TrafficClass::kRequest, b, 4);
    const VcRange rp = PartitionAt(TrafficClass::kReply, b, 4);
    EXPECT_EQ(rq.end, rp.begin);
    EXPECT_GE(rq.size(), 1);
    EXPECT_GE(rp.size(), 1);
  }
}

TEST(VcPolicyTest, BoundaryForShareClampsAndRounds) {
  EXPECT_EQ(BoundaryForShare(0.0, 4), 1);   // replies never take everything
  EXPECT_EQ(BoundaryForShare(1.0, 4), 3);   // requests never take everything
  EXPECT_EQ(BoundaryForShare(0.5, 4), 2);
  EXPECT_EQ(BoundaryForShare(0.25, 4), 1);
  EXPECT_EQ(BoundaryForShare(0.75, 4), 3);
  EXPECT_EQ(BoundaryForShare(-1.0, 2), 1);
  EXPECT_EQ(BoundaryForShare(2.0, 2), 1);
}

TEST(VcPolicyTest, InitialBoundaryIsTheSharedSeed) {
  // Both ends of a link must seed the dynamic partition from this helper
  // (regression: the NIC used max(1, n/2) while the router used n/2, so on
  // num_vcs=1 links the router granted replies VC 0 and the NIC did not).
  EXPECT_EQ(InitialBoundary(1), 1);
  EXPECT_EQ(InitialBoundary(2), 1);
  EXPECT_EQ(InitialBoundary(3), 1);
  EXPECT_EQ(InitialBoundary(4), 2);
  EXPECT_EQ(InitialBoundary(5), 2);
  EXPECT_EQ(InitialBoundary(6), 3);
  EXPECT_EQ(InitialBoundary(8), 4);
  // Always a valid PartitionAt boundary: both classes get >= 1 VC when
  // num_vcs >= 2.
  for (int n = 2; n <= 8; ++n) {
    const VcId b = InitialBoundary(n);
    EXPECT_GE(b, 1) << n;
    EXPECT_LE(b, n - 1) << n;
  }
}

TEST(VcPolicyTest, DynamicStaticViewIsBalancedSplit) {
  VcPolicy policy(VcPolicyKind::kDynamic, 4);
  for (Port p : kAllPorts) {
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kRequest, p), (VcRange{0, 2}));
    EXPECT_EQ(policy.AllowedVcs(TrafficClass::kReply, p), (VcRange{2, 4}));
  }
}

TEST(VcPolicyTest, ParseNames) {
  EXPECT_EQ(ParseVcPolicy("split"), VcPolicyKind::kSplit);
  EXPECT_EQ(ParseVcPolicy("mono"), VcPolicyKind::kFullMonopolize);
  EXPECT_EQ(ParseVcPolicy("FULL"), VcPolicyKind::kFullMonopolize);
  EXPECT_EQ(ParseVcPolicy("partial"), VcPolicyKind::kPartialMonopolize);
  EXPECT_EQ(ParseVcPolicy("pm"), VcPolicyKind::kPartialMonopolize);
  EXPECT_EQ(ParseVcPolicy("asym"), VcPolicyKind::kAsymmetric);
  EXPECT_EQ(ParseVcPolicy("dynamic"), VcPolicyKind::kDynamic);
  EXPECT_EQ(ParseVcPolicy("feedback"), VcPolicyKind::kDynamic);
  EXPECT_THROW(ParseVcPolicy("bogus"), std::invalid_argument);
  EXPECT_STREQ(VcPolicyName(VcPolicyKind::kAsymmetric), "asymmetric");
}

}  // namespace
}  // namespace gnoc
