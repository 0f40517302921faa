// QoS traffic classes (ROADMAP item 3, and PAPERS.md "Algorithms for
// Network-on-Chip Design with Guaranteed QoS"): the paper's request/reply
// pair generalized into first-class `TrafficClassSpec`s with a name, an
// allocator priority, token-bucket rate regulation at injection, a
// per-port VC reservation, and a p99 latency target tracked by telemetry.
//
// Design (DESIGN.md §15):
//  - Priorities bias the router's VA/SA arbiters (strict or weighted
//    round-robin) without changing the per-VC arbiter state layout, so
//    `qos=none` stays bit-identical to the pre-QoS allocators.
//  - Rate/burst gate packet starts at the NIC with a deterministic
//    integer token bucket; regulated packets wait in the source-side
//    inject queue and the wait is charged as inject stall cycles.
//  - `reserved_vcs` carves private VCs per class out of every port before
//    the configured vc_policy divides the remainder, so a class keeps
//    guaranteed buffering even under full monopolizing by the other.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace gnoc {

class Config;
class JsonWriter;
class Serializer;
class Deserializer;

/// The per-class service contract. Default-constructed specs (all knobs
/// zero) describe best-effort classes and leave behaviour bit-identical
/// to the pre-QoS simulator; only `name` is cosmetic (JSON keys, labels).
struct TrafficClassSpec {
  std::string name;         ///< stable identity for JSON keys and labels
  int priority = 0;         ///< allocator precedence (higher wins) / WRR weight
  double rate = 0.0;        ///< token refill, flits/cycle (0 = unregulated)
  int burst = 0;            ///< token-bucket capacity, flits (0 = 1 with rate)
  int reserved_vcs = 0;     ///< VCs per port this class always owns
  double p99_target = 0.0;  ///< SLO: per-window p99 latency target (0 = none)

  friend bool operator==(const TrafficClassSpec&,
                         const TrafficClassSpec&) = default;
};

/// Which discipline the VA/SA arbiters use to honour class priorities.
enum class QosArbitration : std::uint8_t {
  kNone = 0,    ///< plain per-VC arbitration (ignores priorities)
  kStrict = 1,  ///< highest-priority requesting class wins outright
  kWrr = 2,     ///< weighted round-robin, weight = max(1, priority)
};

const char* QosArbitrationName(QosArbitration a);
QosArbitration ParseQosArbitration(const std::string& text);

/// The whole QoS surface of one network. Defaults are a faithful no-op:
/// classes named after the protocol pair, every knob zero.
struct QosConfig {
  QosArbitration arbitration = QosArbitration::kNone;
  std::array<TrafficClassSpec, kNumClasses> classes = DefaultClasses();

  /// "request"/"reply" specs with all guarantees off.
  static std::array<TrafficClassSpec, kNumClasses> DefaultClasses();

  /// True when any knob deviates from the neutral default (names are
  /// ignored — renaming a class does not change behaviour).
  bool Enabled() const;

  /// True when any class regulates injection (rate > 0).
  bool RegulatesInjection() const;

  /// True when any class reserves VCs.
  bool ReservesVcs() const;

  /// Each class's reserved_vcs, as VcPolicy takes them.
  std::array<int, kNumClasses> ReservedVcs() const {
    return {classes[0].reserved_vcs, classes[1].reserved_vcs};
  }

  friend bool operator==(const QosConfig&, const QosConfig&) = default;
};

/// Parses one `qos_class=` flag occurrence:
///   "<name>[,prio=<int>][,rate=<flits/cycle>][,burst=<flits>]
///          [,vcs=<reserved>][,p99=<cycles>]"
/// e.g. "latency_critical,prio=2,vcs=1,p99=400". The i-th occurrence
/// replaces class i wholesale (unlisted knobs go to their zero default).
/// Throws std::invalid_argument on malformed input.
TrafficClassSpec ParseTrafficClassSpec(const std::string& text);

/// Applies the `qos=` mode flag and repeated `qos_class=` occurrences
/// from `overrides` onto `qos`. Throws when more classes are given than
/// the simulator models (kNumClasses).
void ApplyQosOverrides(QosConfig& qos, const Config& overrides);

/// Folds every behaviour-affecting QoS knob into an FNV-1a style hash
/// accumulator (used by the GpuConfig fingerprint; names included since
/// they key the output JSON).
std::uint64_t HashQosConfig(std::uint64_t h, const QosConfig& qos);

/// Per-class outcome of a run: the class's configured contract, then what
/// it got under it.
struct QosClassReport : TrafficClassSpec {
  std::uint64_t throttle_cycles = 0;  ///< cycles injection sat token-blocked
  std::uint64_t packets_delivered = 0;
  double p99_latency = 0.0;  ///< whole-run p99 packet latency (0 = no packets)

  // SLO accounting (telemetry-derived; zero when telemetry is off or no
  // p99 target is set). A "window" is one telemetry sampling interval.
  std::uint64_t slo_windows = 0;  ///< windows in which the SLO was judged
  std::uint64_t slo_violation_windows = 0;  ///< windows whose p99 missed
  Cycle slo_time_in_violation = 0;  ///< cycles covered by violating windows

  /// The v5 walk: the spec fields in declaration order, then the counters.
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.name);
    Io(ar, self.priority);
    Io(ar, self.rate);
    Io(ar, self.burst);
    Io(ar, self.reserved_vcs);
    Io(ar, self.p99_target);
    Io(ar, self.throttle_cycles);
    Io(ar, self.packets_delivered);
    Io(ar, self.p99_latency);
    Io(ar, self.slo_windows);
    Io(ar, self.slo_violation_windows);
    Io(ar, self.slo_time_in_violation);
  }
};

/// The QoS section of a RunReport. Always carries the class names (so
/// per-class JSON stays string-keyed even with QoS off); counters are
/// only nonzero when the corresponding machinery ran.
struct QosReport {
  bool enabled = false;
  QosArbitration arbitration = QosArbitration::kNone;
  std::array<QosClassReport, kNumClasses> classes{};

  /// Folds another network's report in (dual physical networks): specs
  /// must agree, counters add, p99 takes the max (conservative).
  void Merge(const QosReport& other);

  void WriteJson(JsonWriter& w) const;
  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.enabled);
    Io(ar, self.arbitration);
    Io(ar, self.classes);
  }
};

}  // namespace gnoc
