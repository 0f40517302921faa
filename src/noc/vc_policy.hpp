// Virtual-channel organization policies — the paper's core contribution
// (Sec. 3.2.1).
//
//   Split              baseline: VCs divided 1:1 between request and reply
//                      (two virtual networks under one physical network).
//   Full monopolizing  every VC usable by either class. Protocol-deadlock
//                      safe only when request and reply traffic are proven
//                      never to share a directed link (e.g. bottom MC
//                      placement with XY or YX routing, Fig. 4).
//   Partial            link-aware monopolizing: VCs on links that a single
//   monopolizing       class uses (per the static route analysis) are
//                      monopolized; mixed links stay split. Always safe.
//                      For bottom MCs + XY-YX this is exactly the paper's
//                      "vertical links monopolized, horizontal links split"
//                      (Fig. 6c); for distributed placements it monopolizes
//                      whatever single-class links remain (Fig. 9 "PM").
//   Asymmetric         VCs partitioned 1 : (V-1) in favour of replies, which
//   partitioning       carry ~2x the flit volume (Fig. 10 uses 1:3 with 4
//                      VCs).
//   Dynamic            feedback-driven partitioning (Lee et al. [13], the
//   partitioning       related work the paper argues against): every epoch,
//                      each router moves its per-port request/reply VC
//                      boundary towards the observed traffic share. Always
//                      protocol-deadlock safe (classes stay disjoint and
//                      each keeps >= 1 VC), but needs per-router counters
//                      and an update mechanism — the hardware overhead the
//                      paper's static schemes avoid.
//
// QoS VC reservation (DESIGN.md §15) layers under every static policy:
// each class may reserve VCs it always owns (class 0 the lowest indices,
// class 1 the highest), and the configured policy divides only the
// remaining shared pool. Under full monopolizing this yields "everything
// except the other class's reserve", preserving guaranteed buffering for
// a latency-critical class while the bulk class monopolizes the rest.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace gnoc {

/// The VC organization schemes evaluated in the paper.
enum class VcPolicyKind : std::uint8_t {
  kSplit = 0,
  kFullMonopolize = 1,
  kPartialMonopolize = 2,
  kAsymmetric = 3,
  kDynamic = 4,
};

/// Human readable name.
const char* VcPolicyName(VcPolicyKind k);

/// Parses "split" / "mono" / "partial" / "asym" (several aliases accepted,
/// case-insensitive). Throws std::invalid_argument on unknown names.
VcPolicyKind ParseVcPolicy(const std::string& name);

/// Static class usage of one directed link, produced by the route analysis
/// (noc/deadlock.hpp) and distributed to routers/NICs at configuration time.
/// Partial (link-aware) monopolizing monopolizes kSingleClass links only.
/// kMixed is the conservative default: treating a single-class link as mixed
/// costs performance but never safety.
enum class LinkMode : std::uint8_t {
  kMixed = 0,
  kSingleClass = 1,
};

/// Half-open VC index range [begin, end).
struct VcRange {
  VcId begin = 0;
  VcId end = 0;

  int size() const { return end - begin; }
  bool Contains(VcId vc) const { return vc >= begin && vc < end; }

  friend bool operator==(const VcRange&, const VcRange&) = default;
};

/// Assigns VC ranges per (link direction, traffic class).
///
/// The "link direction" is identified by the upstream router's output port:
/// kNorth/kSouth for vertical links, kEast/kWest for horizontal links, and
/// kLocal for the NIC->router injection link. Both ends of a link derive the
/// same range from the same policy, so no negotiation is needed.
class VcPolicy {
 public:
  /// `num_vcs` is the number of VCs per input port. `reserved[c]` VCs are
  /// carved out for class c before the policy divides the remainder: class
  /// 0 owns the lowest indices, class 1 the highest. Throws
  /// std::invalid_argument when `num_vcs` is below 1, or below 2 for any
  /// policy that partitions, and when the reservation is unsatisfiable
  /// (more reserved than exist, a class left with no VC, a 1-VC shared pool
  /// no partitioning policy can divide) or combined with kDynamic, whose
  /// per-port feedback boundary bypasses this static map.
  VcPolicy(VcPolicyKind kind, int num_vcs,
           std::array<int, kNumClasses> reserved = {});

  VcPolicyKind kind() const { return kind_; }
  int num_vcs() const { return num_vcs_; }
  int reserved(TrafficClass cls) const { return reserved_[ClassIndex(cls)]; }
  /// Size of the pool the base policy divides (num_vcs minus reserves).
  int shared_vcs() const {
    return num_vcs_ - reserved_[0] - reserved_[1];
  }

  /// The VCs packets of `cls` may use on the link leaving through
  /// `link_direction`, given the link's statically analyzed class usage.
  /// Only kPartialMonopolize consults `mode`; the other policies are
  /// link-independent.
  VcRange AllowedVcs(TrafficClass cls, Port link_direction,
                     LinkMode mode = LinkMode::kMixed) const;

  /// True when the two classes may share at least one VC on this link
  /// direction under this policy.
  bool ClassesShareVcs(Port link_direction,
                       LinkMode mode = LinkMode::kMixed) const;

 private:
  /// The pre-reservation range of `cls` under the base policy over a
  /// `num_vcs`-sized pool.
  VcRange BaseAllowedVcs(TrafficClass cls, LinkMode mode, int num_vcs) const;

  VcPolicyKind kind_;
  int num_vcs_;
  std::array<int, kNumClasses> reserved_{};
};

/// The VC range of `cls` when the VCs [0, num_vcs) are split at `boundary`:
/// requests get [0, boundary), replies [boundary, num_vcs). Used by the
/// dynamic partitioning machinery in Router/Nic; `boundary` must be in
/// [1, num_vcs - 1] so both classes keep at least one VC.
VcRange PartitionAt(TrafficClass cls, VcId boundary, int num_vcs);

/// The boundary a traffic mix suggests: round(request_share * num_vcs),
/// clamped to [1, num_vcs - 1]. `request_share` in [0, 1].
VcId BoundaryForShare(double request_share, int num_vcs);

/// One dynamic-partitioning epoch commit at an endpoint (a router output
/// port or a NIC): clears the epoch's per-class flit counts and, unless both
/// were zero, moves `boundary` one VC towards BoundaryForShare of the
/// request share (hysteresis).
void StepBoundary(std::array<std::uint64_t, kNumClasses>& epoch_flits,
                  VcId& boundary, int num_vcs);

/// The boundary every dynamic-partitioning endpoint starts from: an even
/// split, clamped into PartitionAt's legal range. Both ends of a link must
/// seed from this one helper — the upstream VC allocator (router output
/// port or NIC) and any downstream observer would otherwise disagree on
/// which class owns a VC until the first epoch update.
VcId InitialBoundary(int num_vcs);

}  // namespace gnoc
