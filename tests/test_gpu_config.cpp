// Tests for GpuConfig defaults (Table 2) and command-line overrides.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "sim/gpu_config.hpp"

namespace gnoc {
namespace {

TEST(GpuConfigTest, BaselineMatchesTable2) {
  const GpuConfig cfg = GpuConfig::Baseline();
  EXPECT_EQ(cfg.width, 8);
  EXPECT_EQ(cfg.height, 8);
  EXPECT_EQ(cfg.num_mcs, 8);
  EXPECT_EQ(cfg.placement, McPlacement::kBottom);
  EXPECT_EQ(cfg.routing, RoutingAlgorithm::kXY);
  EXPECT_EQ(cfg.vc_policy, VcPolicyKind::kSplit);
  EXPECT_EQ(cfg.num_vcs, 2);
  EXPECT_EQ(cfg.vc_depth, 4);
  // The GPU's NIC inject queue is the one default GpuConfig sets over
  // NetworkConfig's.
  EXPECT_EQ(cfg.inject_queue_capacity, 16);
  EXPECT_EQ(NetworkConfig{}.inject_queue_capacity, 64);
  EXPECT_EQ(cfg.division, NetworkDivision::kVirtual);
  EXPECT_FALSE(cfg.ideal_noc);
  EXPECT_FALSE(cfg.record_trace);
  EXPECT_EQ(cfg.mc.scheduler, McScheduler::kInOrder);
  // L2 slice per MC: 64KB, 8-way (Table 2); L1: 16KB, 4-way.
  EXPECT_EQ(cfg.mc.l2.size_bytes, 64u * 1024u);
  EXPECT_EQ(cfg.mc.l2.ways, 8u);
  EXPECT_EQ(cfg.sm.l1.size_bytes, 16u * 1024u);
  EXPECT_EQ(cfg.sm.l1.ways, 4u);
}

TEST(GpuConfigTest, OverridesApply) {
  Config args;
  args.Set("placement", "diamond");
  args.Set("routing", "xy-yx");
  args.Set("vc_policy", "asym");
  args.SetInt("num_vcs", 4);
  args.SetInt("vc_depth", 8);
  args.Set("division", "physical");
  args.SetBool("allow_unsafe", true);
  args.SetBool("record_trace", true);
  args.SetBool("ideal_noc", true);
  args.SetBool("real_l1", true);
  args.Set("arbiter", "matrix");
  args.Set("mc_scheduler", "fr-fcfs");
  args.SetInt("mc_inject_bw", 2);
  args.SetInt("warps", 48);
  args.SetInt("seed", 99);
  // The run keys reach a sweep's cells only through this path.
  args.SetBool("audit", true);
  args.SetInt("audit_interval", 64);
  args.SetBool("telemetry", true);
  args.SetInt("telemetry_interval", 50);
  args.SetInt("telemetry_max_windows", 8);
  args.Set("scheduling", "full");
  args.SetInt("dynamic_epoch", 256);
  args.SetBool("atomic_vc_realloc", false);
  args.SetInt("circulant_s1", 3);
  args.SetInt("circulant_s2", 5);

  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(args);
  EXPECT_EQ(cfg.placement, McPlacement::kDiamond);
  EXPECT_EQ(cfg.routing, RoutingAlgorithm::kXYYX);
  EXPECT_EQ(cfg.vc_policy, VcPolicyKind::kAsymmetric);
  EXPECT_EQ(cfg.num_vcs, 4);
  EXPECT_EQ(cfg.vc_depth, 8);
  EXPECT_EQ(cfg.division, NetworkDivision::kPhysical);
  EXPECT_TRUE(cfg.allow_unsafe);
  EXPECT_TRUE(cfg.record_trace);
  EXPECT_TRUE(cfg.ideal_noc);
  EXPECT_TRUE(cfg.sm.use_real_l1);
  EXPECT_EQ(cfg.arbiter, ArbiterKind::kMatrix);
  EXPECT_EQ(cfg.mc.scheduler, McScheduler::kFrFcfs);
  EXPECT_EQ(cfg.mc_inject_flits_per_cycle, 2);
  EXPECT_EQ(cfg.sm.warps_per_sm, 48);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_TRUE(cfg.audit);
  EXPECT_EQ(cfg.audit_interval, 64u);
  EXPECT_TRUE(cfg.telemetry);
  EXPECT_EQ(cfg.telemetry_interval, 50u);
  EXPECT_EQ(cfg.telemetry_max_windows, 8u);
  EXPECT_EQ(cfg.scheduling, SchedulingMode::kFull);
  EXPECT_EQ(cfg.dynamic_epoch, 256u);
  EXPECT_FALSE(cfg.atomic_vc_realloc);
  EXPECT_EQ(cfg.circulant_s1, 3);
  EXPECT_EQ(cfg.circulant_s2, 5);
}

TEST(GpuConfigTest, RadixShorthandScalesGridAndMcs) {
  // radix=N is the paper's scaling: an N x N grid with N MCs (one per
  // bottom-row column, keeping the classes link-disjoint under DOR).
  Config args;
  args.SetInt("radix", 16);
  args.Set("topology", "torus");
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(args);
  EXPECT_EQ(cfg.width, 16);
  EXPECT_EQ(cfg.height, 16);
  EXPECT_EQ(cfg.num_mcs, 16);
  EXPECT_EQ(cfg.topology, TopologyKind::kTorus);

  // An explicit num_mcs= wins over the shorthand.
  Config mixed;
  mixed.SetInt("radix", 16);
  mixed.SetInt("num_mcs", 8);
  GpuConfig cfg2 = GpuConfig::Baseline();
  cfg2.ApplyOverrides(mixed);
  EXPECT_EQ(cfg2.width, 16);
  EXPECT_EQ(cfg2.num_mcs, 8);
}

TEST(GpuConfigTest, AbsentOverridesKeepDefaults) {
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(Config{});
  const GpuConfig fresh = GpuConfig::Baseline();
  EXPECT_EQ(cfg.placement, fresh.placement);
  EXPECT_EQ(cfg.routing, fresh.routing);
  EXPECT_EQ(cfg.num_vcs, fresh.num_vcs);
  EXPECT_EQ(cfg.seed, fresh.seed);
}

TEST(GpuConfigTest, MalformedOverridesThrow) {
  GpuConfig cfg = GpuConfig::Baseline();
  Config bad_placement;
  bad_placement.Set("placement", "center");
  EXPECT_THROW(cfg.ApplyOverrides(bad_placement), std::invalid_argument);
  Config bad_division;
  bad_division.Set("division", "triple");
  EXPECT_THROW(cfg.ApplyOverrides(bad_division), std::invalid_argument);
  Config bad_sched;
  bad_sched.Set("mc_scheduler", "oracle");
  EXPECT_THROW(cfg.ApplyOverrides(bad_sched), std::invalid_argument);
  Config bad_arbiter;
  bad_arbiter.Set("arbiter", "priority");
  EXPECT_THROW(cfg.ApplyOverrides(bad_arbiter), std::invalid_argument);
}

TEST(GpuConfigTest, DescribeNamesTheDesignPoint) {
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.routing = RoutingAlgorithm::kYX;
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  const std::string desc = cfg.Describe();
  EXPECT_NE(desc.find("bottom"), std::string::npos);
  EXPECT_NE(desc.find("YX"), std::string::npos);
  EXPECT_NE(desc.find("full-monopolize"), std::string::npos);
  cfg.division = NetworkDivision::kPhysical;
  EXPECT_NE(cfg.Describe().find("dual physical"), std::string::npos);
  // Only the non-default scheduling mode is named.
  EXPECT_EQ(desc.find("sched"), std::string::npos);
  cfg.scheduling = SchedulingMode::kFull;
  EXPECT_NE(cfg.Describe().find(", full sched"), std::string::npos);
}

/// The flags RegisterGpuConfigFlags defines.
FlagSet GpuConfigFlags() {
  FlagSet flags("prog", "");
  RegisterGpuConfigFlags(flags);
  return flags;
}

/// `key`=`value` as one config.
Config One(const std::string& key, const std::string& value) {
  Config config;
  config.Set(key, value);
  return config;
}

// ApplyOverrides narrows these keys to int: a value past INT_MAX would
// wrap (num_vcs=4294967298 ran as 2 VCs), so the flag refuses it.
TEST(GpuConfigTest, IntFlagsRefuseValuesTheirFieldCannotHold) {
  const FlagSet flags = GpuConfigFlags();
  for (const char* key :
       {"width", "height", "radix", "num_mcs", "circulant_s1", "circulant_s2",
        "num_vcs", "vc_depth", "mc_inject_bw", "warps", "mshr"}) {
    for (const char* value : {"2147483648", "4294967298"}) {
      try {
        flags.Check(One(key, value));
        ADD_FAILURE() << key << "=" << value << " passed";
      } catch (const CliError& e) {
        EXPECT_NE(std::string(e.what()).find("must be <= 2147483647"),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_NO_THROW(flags.Check(One(key, "2147483647"))) << key;
  }
  // Cycle-valued keys keep their 64-bit range.
  EXPECT_NO_THROW(flags.Check(One("dynamic_epoch", "4294967298")));
}

// Every enum-valued key accepts what its parser accepts, in any case.
TEST(GpuConfigTest, EnumFlagsAcceptWhatTheirParserAccepts) {
  const FlagSet flags = GpuConfigFlags();
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"topology", "Torus"}, {"division", "Physical"},
           {"routing", "XY"}, {"vc_policy", "MONO"}, {"scheduling", "SOA"}}) {
    EXPECT_NO_THROW(flags.Check(One(key, value))) << key << "=" << value;
    GpuConfig cfg = GpuConfig::Baseline();
    EXPECT_NO_THROW(cfg.ApplyOverrides(One(key, value)))
        << key << "=" << value;
  }
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(One("topology", "TORUS"));
  EXPECT_EQ(cfg.topology, TopologyKind::kTorus);
  EXPECT_THROW(flags.Check(One("topology", "tor")), CliError);
}

TEST(GpuConfigTest, SchedulingDefaultsToSoa) {
  EXPECT_EQ(GpuConfig::Baseline().scheduling, SchedulingMode::kSoa);
  EXPECT_EQ(NetworkConfig{}.scheduling, SchedulingMode::kSoa);
}

}  // namespace
}  // namespace gnoc
