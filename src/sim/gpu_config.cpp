#include "sim/gpu_config.hpp"

#include <climits>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

const EnumRegistry<NetworkDivision>& DivisionRegistry() {
  static const EnumRegistry<NetworkDivision> kRegistry{
      "division",
      {
          {"virtual", NetworkDivision::kVirtual},
          {"physical", NetworkDivision::kPhysical},
      }};
  return kRegistry;
}

}  // namespace

GpuConfig GpuConfig::Baseline() { return GpuConfig{}; }

void GpuConfig::ApplyOverrides(const Config& overrides) {
  width = static_cast<int>(overrides.GetInt("width", width));
  height = static_cast<int>(overrides.GetInt("height", height));
  if (overrides.Contains("radix")) {
    // Square-grid shorthand: radix=16 == width=16 height=16 num_mcs=16 —
    // the paper's scaling (N MCs in an N x N grid, one per bottom-row
    // column, which keeps the classes link-disjoint under DOR). An
    // explicit num_mcs= still wins below.
    const int n = static_cast<int>(overrides.GetInt("radix", width));
    width = n;
    height = n;
    num_mcs = n;
  }
  num_mcs = static_cast<int>(overrides.GetInt("num_mcs", num_mcs));
  if (overrides.Contains("placement")) {
    placement = ParseMcPlacement(overrides.GetString("placement"));
  }
  if (overrides.Contains("topology")) {
    topology = ParseTopology(overrides.GetString("topology"));
  }
  circulant_s1 =
      static_cast<int>(overrides.GetInt("circulant_s1", circulant_s1));
  circulant_s2 =
      static_cast<int>(overrides.GetInt("circulant_s2", circulant_s2));
  if (overrides.Contains("routing")) {
    routing = ParseRouting(overrides.GetString("routing"));
  }
  if (overrides.Contains("vc_policy")) {
    vc_policy = ParseVcPolicy(overrides.GetString("vc_policy"));
  }
  num_vcs = static_cast<int>(overrides.GetInt("num_vcs", num_vcs));
  vc_depth = static_cast<int>(overrides.GetInt("vc_depth", vc_depth));
  dynamic_epoch = static_cast<Cycle>(overrides.GetInt(
      "dynamic_epoch", static_cast<std::int64_t>(dynamic_epoch)));
  allow_unsafe = overrides.GetBool("allow_unsafe", allow_unsafe);
  if (overrides.Contains("division")) {
    division = DivisionRegistry().Parse(overrides.GetString("division"));
  }
  atomic_vc_realloc =
      overrides.GetBool("atomic_vc_realloc", atomic_vc_realloc);
  record_trace = overrides.GetBool("record_trace", record_trace);
  audit = overrides.GetBool("audit", audit);
  audit_interval = static_cast<Cycle>(overrides.GetInt(
      "audit_interval", static_cast<std::int64_t>(audit_interval)));
  telemetry = overrides.GetBool("telemetry", telemetry);
  telemetry_interval = static_cast<Cycle>(overrides.GetInt(
      "telemetry_interval", static_cast<std::int64_t>(telemetry_interval)));
  telemetry_max_windows = static_cast<std::size_t>(overrides.GetInt(
      "telemetry_max_windows",
      static_cast<std::int64_t>(telemetry_max_windows)));
  if (overrides.Contains("scheduling")) {
    scheduling = ParseSchedulingMode(overrides.GetString("scheduling"));
  }
  ideal_noc = overrides.GetBool("ideal_noc", ideal_noc);
  mc_inject_flits_per_cycle = static_cast<int>(overrides.GetInt(
      "mc_inject_bw", mc_inject_flits_per_cycle));
  if (overrides.Contains("mc_scheduler")) {
    mc.scheduler = ParseMcScheduler(overrides.GetString("mc_scheduler"));
  }
  if (overrides.Contains("arbiter")) {
    arbiter = ParseArbiterKind(overrides.GetString("arbiter"));
  }
  ApplyQosOverrides(qos, overrides);
  sm.warps_per_sm =
      static_cast<int>(overrides.GetInt("warps", sm.warps_per_sm));
  sm.mshr_entries =
      static_cast<int>(overrides.GetInt("mshr", sm.mshr_entries));
  sm.use_real_l1 = overrides.GetBool("real_l1", sm.use_real_l1);
  mc.l2_latency = static_cast<Cycle>(
      overrides.GetInt("l2_latency", static_cast<std::int64_t>(mc.l2_latency)));
  seed = static_cast<std::uint64_t>(
      overrides.GetInt("seed", static_cast<std::int64_t>(seed)));
}

void RegisterGpuConfigFlags(FlagSet& flags) {
  const GpuConfig def;
  const auto at_least = [](std::int64_t min, std::int64_t max = INT64_MAX) {
    return [min, max](std::int64_t v) {
      if (v < min) return "must be >= " + std::to_string(min);
      return v > max ? "must be <= " + std::to_string(max) : std::string();
    };
  };
  // A key whose field is an int: ApplyOverrides narrows the value to it.
  const auto int_at_least = [&at_least](std::int64_t min) {
    return at_least(min, INT_MAX);
  };
  flags.AddInt("width", def.width, "tile grid width", int_at_least(1));
  flags.AddInt("height", def.height, "tile grid height", int_at_least(1));
  flags.AddInt("radix", def.width,
               "square-grid shorthand: width = height = num_mcs = radix",
               int_at_least(2));
  flags.AddInt("num_mcs", def.num_mcs, "number of memory controllers",
               int_at_least(1));
  flags.AddEnum("topology", "mesh", "interconnect topology",
                TopologyRegistry());
  flags.AddInt("circulant_s1", def.circulant_s1,
               "circulant chord step s1 (topology=circulant)", int_at_least(1));
  flags.AddInt("circulant_s2", def.circulant_s2,
               "circulant chord step s2 (0 = near-sqrt(N))", int_at_least(0));
  // The enum-ish keys accept the aliases their Parse* functions accept
  // (e.g. routing xyyx/xy-yx), so they register as validated strings.
  flags.AddString("placement", "bottom",
                  "MC placement (bottom|edge|top-bottom|diamond|...)",
                  FlagSet::ParsedBy(ParseMcPlacement));
  flags.AddString("routing", "xy", "routing algorithm (xy|yx|xy-yx)",
                  FlagSet::ParsedBy(ParseRouting));
  flags.AddString("vc_policy", "split",
                  "VC policy (split|mono|partial|asym|dynamic|...)",
                  FlagSet::ParsedBy(ParseVcPolicy));
  flags.AddInt("num_vcs", def.num_vcs, "VCs per port", int_at_least(1));
  flags.AddInt("vc_depth", def.vc_depth, "flit slots per VC", int_at_least(1));
  flags.AddInt("dynamic_epoch", static_cast<std::int64_t>(def.dynamic_epoch),
               "cycles per dynamic VC partitioning epoch (vc_policy=dynamic)",
               at_least(1));
  flags.AddBool("allow_unsafe", def.allow_unsafe,
                "allow protocol-deadlock-unsafe configurations");
  flags.AddEnum("division", "virtual", "request/reply network division",
                DivisionRegistry());
  flags.AddBool("atomic_vc_realloc", def.atomic_vc_realloc,
                "conservative (atomic) VC reallocation");
  flags.AddBool("record_trace", def.record_trace,
                "record every injected packet");
  flags.AddBool("audit", def.audit, "run the NoC invariant auditor");
  flags.AddInt("audit_interval", static_cast<std::int64_t>(def.audit_interval),
               "cycles between auditor sweeps", at_least(1));
  flags.AddBool("telemetry", def.telemetry, "run the NoC telemetry sampler");
  flags.AddInt("telemetry_interval",
               static_cast<std::int64_t>(def.telemetry_interval),
               "cycles between telemetry samples", at_least(1));
  flags.AddInt("telemetry_max_windows",
               static_cast<std::int64_t>(def.telemetry_max_windows),
               "telemetry window cap (0 = unbounded)", at_least(0));
  flags.AddString("scheduling", "soa",
                  "NoC component scheduling (" +
                      SchedulingRegistry().Choices() + ")",
                  FlagSet::ParsedBy(ParseSchedulingMode));
  flags.AddString("qos", "none",
                  "QoS arbitration discipline (none|strict|wrr)",
                  FlagSet::ParsedBy(ParseQosArbitration));
  flags.AddString(
      "qos_class", "",
      "traffic class spec '<name>[,prio=N][,rate=X][,burst=N][,vcs=N]"
      "[,p99=X]'; the i-th occurrence configures class i (request, reply)",
      FlagSet::ParsedBy(ParseTrafficClassSpec));
  flags.AddBool("ideal_noc", def.ideal_noc,
                "replace the NoC with the contention-free ideal fabric");
  flags.AddInt("mc_inject_bw", def.mc_inject_flits_per_cycle,
               "MC NIC injection bandwidth (flits/cycle)", int_at_least(1));
  flags.AddString("mc_scheduler", "in-order",
                  "MC request scheduling (in-order|fr-fcfs)",
                  FlagSet::ParsedBy(ParseMcScheduler));
  flags.AddString("arbiter", "rr", "VA/SA arbiter (rr|matrix)",
                  FlagSet::ParsedBy(ParseArbiterKind));
  flags.AddInt("warps", def.sm.warps_per_sm, "warps per SM", int_at_least(1));
  flags.AddInt("mshr", def.sm.mshr_entries, "MSHR entries per SM",
               int_at_least(1));
  flags.AddBool("real_l1", def.sm.use_real_l1,
                "model the L1 structurally instead of probabilistically");
  flags.AddInt("l2_latency", static_cast<std::int64_t>(def.mc.l2_latency),
               "MC-side L2 read service latency", at_least(0));
  flags.AddInt("seed", static_cast<std::int64_t>(def.seed), "master RNG seed");
}

std::string GpuConfig::Describe() const {
  std::ostringstream oss;
  oss << McPlacementName(placement) << " + " << RoutingName(routing) << ", "
      << VcPolicyName(vc_policy) << ", " << num_vcs << " VCs x depth "
      << vc_depth;
  if (topology != TopologyKind::kMesh) {
    oss << ", " << TopologyName(topology);
  }
  if (division == NetworkDivision::kPhysical) oss << ", dual physical nets";
  if (scheduling == SchedulingMode::kFull) oss << ", full sched";
  if (qos.Enabled()) oss << ", qos " << QosArbitrationName(qos.arbitration);
  return oss.str();
}

}  // namespace gnoc
