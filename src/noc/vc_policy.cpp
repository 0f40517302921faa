#include "noc/vc_policy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

const EnumRegistry<VcPolicyKind>& VcPolicyRegistry() {
  static const EnumRegistry<VcPolicyKind> kRegistry{
      "vc_policy",
      {
          {"split", VcPolicyKind::kSplit},
          {"full-monopolize", VcPolicyKind::kFullMonopolize},
          {"partial-monopolize", VcPolicyKind::kPartialMonopolize},
          {"asymmetric", VcPolicyKind::kAsymmetric},
          {"dynamic", VcPolicyKind::kDynamic},
          {"baseline", VcPolicyKind::kSplit},
          {"mono", VcPolicyKind::kFullMonopolize},
          {"full", VcPolicyKind::kFullMonopolize},
          {"monopolize", VcPolicyKind::kFullMonopolize},
          {"partial", VcPolicyKind::kPartialMonopolize},
          {"pm", VcPolicyKind::kPartialMonopolize},
          {"asym", VcPolicyKind::kAsymmetric},
          {"feedback", VcPolicyKind::kDynamic},
      }};
  return kRegistry;
}

}  // namespace

const char* VcPolicyName(VcPolicyKind k) { return VcPolicyRegistry().Name(k); }

VcPolicyKind ParseVcPolicy(const std::string& name) {
  return VcPolicyRegistry().Parse(name);
}

VcPolicy::VcPolicy(VcPolicyKind kind, int num_vcs,
                   std::array<int, kNumClasses> reserved)
    : kind_(kind), num_vcs_(num_vcs), reserved_(reserved) {
  // Every class needs a VC; a partitioning policy gives each its own.
  if (kind != VcPolicyKind::kFullMonopolize && num_vcs < 2) {
    throw std::invalid_argument(std::string("policy '") + VcPolicyName(kind) +
                                "' partitions VCs and needs num_vcs >= 2");
  }
  if (num_vcs < 1) {
    throw std::invalid_argument("num_vcs must be >= 1 (got " +
                                std::to_string(num_vcs) + ")");
  }
  if (reserved_[0] == 0 && reserved_[1] == 0) return;
  if (reserved_[0] < 0 || reserved_[1] < 0) {
    throw std::invalid_argument("reserved VC counts must be >= 0");
  }
  if (kind_ == VcPolicyKind::kDynamic) {
    throw std::invalid_argument(
        "vc_policy=dynamic is incompatible with reserved VCs: the per-port "
        "feedback boundary bypasses the static reservation map");
  }
  const int shared = num_vcs_ - reserved_[0] - reserved_[1];
  if (shared < 0) {
    throw std::invalid_argument("reserved VCs exceed num_vcs");
  }
  if (shared == 0 && (reserved_[0] == 0 || reserved_[1] == 0)) {
    throw std::invalid_argument(
        "reserved VCs leave a class with no usable VC");
  }
  if (shared == 1 && kind_ != VcPolicyKind::kFullMonopolize) {
    throw std::invalid_argument(
        "reserved VCs leave a 1-VC shared pool that a partitioning "
        "vc_policy cannot divide; reserve it too or free one VC");
  }
}

VcRange VcPolicy::BaseAllowedVcs(TrafficClass cls, LinkMode mode,
                                 int num_vcs) const {
  const VcRange all{0, num_vcs};
  const VcRange split_request{0, num_vcs / 2};
  const VcRange split_reply{num_vcs / 2, num_vcs};
  const VcRange asym_request{0, 1};
  const VcRange asym_reply{1, num_vcs};

  switch (kind_) {
    case VcPolicyKind::kSplit:
      return cls == TrafficClass::kRequest ? split_request : split_reply;
    case VcPolicyKind::kFullMonopolize:
      return all;
    case VcPolicyKind::kPartialMonopolize:
      // Links that only one class ever uses (per the static route analysis)
      // are monopolized by it; mixed links stay split to preserve protocol-
      // deadlock freedom. Under bottom MCs + XY-YX this reduces to the
      // paper's "vertical monopolized, horizontal split" (Fig. 6c).
      if (mode == LinkMode::kSingleClass) return all;
      return cls == TrafficClass::kRequest ? split_request : split_reply;
    case VcPolicyKind::kAsymmetric:
      return cls == TrafficClass::kRequest ? asym_request : asym_reply;
    case VcPolicyKind::kDynamic:
      // The static view of dynamic partitioning is the balanced split; the
      // Router/Nic override it per port with their current boundary.
      return cls == TrafficClass::kRequest ? split_request : split_reply;
  }
  return all;
}

VcRange VcPolicy::AllowedVcs(TrafficClass cls, Port link_direction,
                             LinkMode mode) const {
  (void)link_direction;
  const int r0 = reserved_[0];
  const int r1 = reserved_[1];
  if (r0 == 0 && r1 == 0) return BaseAllowedVcs(cls, mode, num_vcs_);

  // Reservation layering: class 0 owns [0, r0), class 1 owns
  // [num_vcs - r1, num_vcs), and the base policy divides the shared pool
  // in between. Every base policy gives class 0 a range starting at 0 and
  // class 1 a range ending at the pool size, so the mapped ranges stay
  // contiguous: each class's reserve abuts its share of the pool.
  const int shared = num_vcs_ - r0 - r1;
  if (shared == 0) {
    return cls == TrafficClass::kRequest ? VcRange{0, r0}
                                         : VcRange{r0, num_vcs_};
  }
  const VcRange base = BaseAllowedVcs(cls, mode, shared);
  if (cls == TrafficClass::kRequest) {
    assert(base.begin == 0);
    return VcRange{0, r0 + base.end};
  }
  assert(base.end == shared);
  return VcRange{r0 + base.begin, num_vcs_};
}

VcRange PartitionAt(TrafficClass cls, VcId boundary, int num_vcs) {
  assert(boundary >= 1 && boundary <= num_vcs - 1);
  return cls == TrafficClass::kRequest ? VcRange{0, boundary}
                                       : VcRange{boundary, num_vcs};
}

VcId BoundaryForShare(double request_share, int num_vcs) {
  assert(num_vcs >= 2);
  const double clamped = std::clamp(request_share, 0.0, 1.0);
  const auto raw =
      static_cast<VcId>(std::lround(clamped * static_cast<double>(num_vcs)));
  return std::clamp<VcId>(raw, 1, num_vcs - 1);
}

void StepBoundary(std::array<std::uint64_t, kNumClasses>& epoch_flits,
                  VcId& boundary, int num_vcs) {
  const std::uint64_t req = epoch_flits[ClassIndex(TrafficClass::kRequest)];
  const std::uint64_t rep = epoch_flits[ClassIndex(TrafficClass::kReply)];
  epoch_flits.fill(0);
  if (req + rep == 0) return;  // idle: keep the current boundary
  const VcId target = BoundaryForShare(
      static_cast<double>(req) / static_cast<double>(req + rep), num_vcs);
  // Hysteresis: move one VC per epoch towards the target.
  if (target > boundary) {
    ++boundary;
  } else if (target < boundary) {
    --boundary;
  }
}

VcId InitialBoundary(int num_vcs) {
  assert(num_vcs >= 1);
  return std::clamp<VcId>(static_cast<VcId>(num_vcs / 2), 1,
                          static_cast<VcId>(std::max(1, num_vcs - 1)));
}

bool VcPolicy::ClassesShareVcs(Port link_direction, LinkMode mode) const {
  const VcRange rq = AllowedVcs(TrafficClass::kRequest, link_direction, mode);
  const VcRange rp = AllowedVcs(TrafficClass::kReply, link_direction, mode);
  const VcId lo = std::max(rq.begin, rp.begin);
  const VcId hi = std::min(rq.end, rp.end);
  return lo < hi;
}

}  // namespace gnoc
