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

/// Everything needed to build a GpuSystem: the network it runs on (every
/// NoC knob the paper sweeps is a NetworkConfig field, declared once
/// there) plus the tile plan, division and cores around it.
struct GpuConfig : NetworkConfig {
  /// Table 2's NoC is NetworkConfig's default but for the NIC inject
  /// queue: a GPU NIC holds 16 packets, a bare network's 64.
  GpuConfig() { inject_queue_capacity = 16; }

  // --- placement (Table 2: 8 MCs at the bottom of the 8x8 mesh) ---
  int num_mcs = 8;
  McPlacement placement = McPlacement::kBottom;

  /// Refuse provably protocol-deadlock-unsafe (placement, routing, policy)
  /// combinations at construction (see noc/deadlock.hpp).
  bool allow_unsafe = false;

  /// Virtual (single physical network, default) vs physical division.
  NetworkDivision division = NetworkDivision::kVirtual;

  /// Record every injected packet (GpuSystem::trace(), noc/trace.hpp).
  bool record_trace = false;

  /// Replace the NoC with a contention-free ideal interconnect (upper
  /// bound; routing/VC settings are ignored).
  bool ideal_noc = false;

  /// Injection bandwidth (flits/cycle) of the MC NICs. Prior work [3, 11]
  /// provisions 2x injection bandwidth at the few MCs for burst replies;
  /// 1 matches the paper's symmetric baseline.
  int mc_inject_flits_per_cycle = 1;

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
