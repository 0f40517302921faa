// Full-system configuration matching the paper's Table 2, plus the NoC
// design-space knobs the paper sweeps (routing, VC policy, MC placement).
#pragma once

#include <string>

#include "common/config.hpp"
#include "gpgpu/mc.hpp"
#include "gpgpu/sm.hpp"
#include "noc/fabric.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/qos.hpp"
#include "noc/topology.hpp"

namespace gnoc {

class FlagSet;

/// Everything needed to build a GpuSystem.
struct GpuConfig {
  // --- mesh & placement (Table 2: 8x8 2D mesh, 8 MCs at the bottom) ---
  int width = 8;
  int height = 8;
  int num_mcs = 8;
  McPlacement placement = McPlacement::kBottom;

  /// Interconnect topology over the width x height tile grid (see
  /// noc/topology.hpp). Placement and traffic stay tile-grid concepts on
  /// every topology; only the router graph changes.
  TopologyKind topology = TopologyKind::kMesh;
  /// Circulant chord steps for topology=circulant: C(N; s1, s2) over
  /// N = width * height routers. s2 == 0 picks a near-sqrt(N) chord.
  int circulant_s1 = 1;
  int circulant_s2 = 0;

  // --- NoC (Table 2: 2 VCs/port, depth 4, XY routing baseline) ---
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  VcPolicyKind vc_policy = VcPolicyKind::kSplit;
  int num_vcs = 2;
  int vc_depth = 4;
  Cycle link_latency = 1;
  int inject_queue_capacity = 16;
  int eject_capacity = 32;
  /// Conservative (atomic) VC reallocation; see RouterConfig.
  bool atomic_vc_realloc = true;
  /// Epoch of the dynamic-partitioning feedback loop (kDynamic only).
  Cycle dynamic_epoch = 512;
  /// Arbiter microarchitecture for the VA/SA stages.
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;

  /// Refuse provably protocol-deadlock-unsafe (placement, routing, policy)
  /// combinations at construction (see noc/deadlock.hpp).
  bool allow_unsafe = false;

  /// Virtual (single physical network, default) vs physical division.
  NetworkDivision division = NetworkDivision::kVirtual;

  /// Record every injected packet (GpuSystem::trace(), noc/trace.hpp).
  bool record_trace = false;

  /// Run the NoC invariant auditor (noc/audit.hpp): per-link credit
  /// conservation, global flit conservation, wormhole integrity and
  /// end-of-run quiescence. The report lands in GpuRunStats::audit.
  bool audit = false;
  /// Cycles between auditor snapshot sweeps (audit only).
  Cycle audit_interval = 16;

  /// Run the NoC telemetry sampler (noc/telemetry.hpp): windowed per-link
  /// utilization, VC occupancy/credit stalls, injection/ejection rates and
  /// latency histograms. The report lands in GpuRunStats::telemetry.
  bool telemetry = false;
  /// Cycles between telemetry samples (telemetry only).
  Cycle telemetry_interval = 100;
  /// Per-track window cap; 2x-downsamples when exceeded (0 = unbounded).
  std::size_t telemetry_max_windows = 512;

  /// NoC component scheduling: kSoa (default) skips idle routers and
  /// channels bit-identically; kFull ticks everything every cycle (see
  /// SchedulingMode in noc/network.hpp).
  SchedulingMode scheduling = SchedulingMode::kSoa;

  /// Replace the NoC with a contention-free ideal interconnect (upper
  /// bound; routing/VC settings are ignored).
  bool ideal_noc = false;

  /// Injection bandwidth (flits/cycle) of the MC NICs. Prior work [3, 11]
  /// provisions 2x injection bandwidth at the few MCs for burst replies;
  /// 1 matches the paper's symmetric baseline.
  int mc_inject_flits_per_cycle = 1;

  /// QoS traffic classes (noc/qos.hpp, DESIGN.md §15): per-class allocator
  /// priority, token-bucket injection regulation, VC reservation and p99
  /// SLO target. Defaults are a behaviour-preserving no-op. Set via `qos=`
  /// and repeated `qos_class=` overrides.
  QosConfig qos;

  // --- cores & memory (Table 2) ---
  SmConfig sm;
  McConfig mc;

  std::uint64_t seed = 0xC0FFEE;

  /// The paper's baseline: bottom MCs, XY routing, 2 VCs split 1:1.
  static GpuConfig Baseline();

  /// Applies "key=value" overrides (keys: width, height, num_mcs, placement,
  /// routing, vc_policy, num_vcs, vc_depth, warps, mshr, seed, ...).
  void ApplyOverrides(const Config& overrides);

  /// One-line description, e.g. "bottom + XY-YX, partial-monopolize, 2 VCs".
  std::string Describe() const;
};

/// Registers every ApplyOverrides key on a FlagSet (typed, documented,
/// validated), so drivers that expose the full configuration surface get
/// help text and unknown-flag rejection for free.
void RegisterGpuConfigFlags(FlagSet& flags);

}  // namespace gnoc
