// The one configuration of a network (DESIGN.md §9). The Network builds its
// topology from it and hands every Router, NIC and the telemetry sampler a
// copy; the hot paths in router.hpp and nic.hpp read it inline, so it
// lives apart from network.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/qos.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/vc_policy.hpp"

namespace gnoc {

/// How Network::Tick schedules component updates (DESIGN.md §9). The
/// numeric values are hashed into GpuConfigFingerprint, so they never
/// change.
enum class SchedulingMode : std::uint8_t {
  /// Tick every router, NIC and channel every cycle (the tick-everything
  /// reference the lockstep tests and bit-identity gates hold kSoa's
  /// skip rules against).
  kFull = 0,
  /// The skip schedule (DESIGN.md §14), the default: one occupancy bit per
  /// link, router and NIC, set where the entry can get work, and each
  /// phase visits only the set bits in the dense order, asking each
  /// object whether it has work; a blocked router or NIC sleeps until an
  /// event could unblock it. Bit-identical to kFull — stats, telemetry
  /// windows, audit reports and watchdog verdicts all match.
  /// (The name dates from the structure-of-arrays planes it kept once.)
  kSoa = 3,
};

/// Canonical name ("full" or "soa").
const char* SchedulingModeName(SchedulingMode m);

/// Parses "full" / "soa" (case-insensitive). The retired backend names
/// "active-set", "active", "activeset" and "event" are kept as aliases of
/// "soa" so existing configs and job specs still parse. Throws
/// std::invalid_argument on unknown names.
SchedulingMode ParseSchedulingMode(const std::string& name);

template <typename E>
class EnumRegistry;

/// The scheduling-mode name registry behind the two helpers above (flag
/// registration wants its canonical choice list).
const EnumRegistry<SchedulingMode>& SchedulingRegistry();

/// Full network configuration.
struct NetworkConfig {
  /// Topology family; width x height stays the *tile* grid on every
  /// topology (cmesh concentrates 2x2 tile blocks onto one router,
  /// circulant rings the row-major tile order).
  TopologyKind topology = TopologyKind::kMesh;
  int width = 8;
  int height = 8;
  /// Circulant chord steps (kCirculant only); s2 == 0 picks near-sqrt(N).
  int circulant_s1 = 1;
  int circulant_s2 = 0;
  int num_vcs = 2;
  int vc_depth = 4;
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  VcPolicyKind vc_policy = VcPolicyKind::kSplit;
  Cycle link_latency = 1;
  int inject_queue_capacity = 64;  ///< packets per class, per NIC
  int eject_capacity = 32;         ///< flits per class, per NIC
  /// Atomic (conservative) VC reallocation, in routers and on the NICs'
  /// injection links: an output VC becomes free for the next packet only
  /// after its downstream buffer has fully drained (all credits returned),
  /// not merely after the tail left. This matches low-cost router designs
  /// and makes per-VC buffering the throughput limiter on saturated links
  /// — the effect VC monopolizing exploits.
  bool atomic_vc_realloc = true;
  /// Epoch of the dynamic-partitioning feedback loop (kDynamic only).
  Cycle dynamic_epoch = 512;
  /// Arbiter microarchitecture for the VA/SA stages.
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  /// Cycles without any flit movement (while flits are buffered) after which
  /// the watchdog declares deadlock.
  Cycle deadlock_threshold = 2000;
  /// Enables the runtime invariant auditor (see noc/audit.hpp). Off by
  /// default: when off the network carries no auditing state at all.
  bool audit = false;
  /// Cycles between auditor snapshot sweeps (credit/flit conservation and
  /// structural wormhole checks); per-flit checks always run when auditing.
  Cycle audit_interval = 16;
  /// Enables the telemetry sampler (see noc/telemetry.hpp). Off by default:
  /// when off the network carries no telemetry state and every hook is a
  /// null-pointer test.
  bool telemetry = false;
  /// Cycles between telemetry samples (= initial time-series window width).
  Cycle telemetry_interval = 100;
  /// Window cap per metric track; when reached, adjacent windows merge and
  /// the width doubles (0 = unbounded).
  std::size_t telemetry_max_windows = 512;
  /// Component scheduling discipline; kSoa (default) skips idle routers,
  /// channels and NICs bit-identically (see SchedulingMode).
  SchedulingMode scheduling = SchedulingMode::kSoa;
  /// Per-class QoS contracts (noc/qos.hpp): allocator priorities, token-
  /// bucket injection regulation, VC reservation, SLO targets. Defaults
  /// are a no-op, bit-identical to a QoS-less build.
  QosConfig qos;
};

}  // namespace gnoc
