// The input-VC flit buffers of one router, in one contiguous slab.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "noc/arbiter.hpp"
#include "noc/flit.hpp"

namespace gnoc {

/// Fixed-capacity flit FIFOs, one per input VC, in one slot array: VC i
/// owns slots [i * depth, (i + 1) * depth) and keeps its head slot and
/// flit count in bytes, so a router allocates its buffers once. The credit
/// protocol guarantees Push is never called on a full VC (asserted).
class FlitSlab {
 public:
  /// The largest depth a byte count holds.
  static constexpr int kMaxDepth = UINT8_MAX;

  /// `num_vcs` FIFOs (at most kMaxArbiterInputs) of `depth` flits each.
  FlitSlab(int num_vcs, int depth)
      : depth_(static_cast<std::uint8_t>(depth)),
        slots_(static_cast<std::size_t>(num_vcs * depth)) {
    assert(depth >= 1 && depth <= kMaxDepth);
    assert(static_cast<std::size_t>(num_vcs) <= kMaxArbiterInputs &&
           "more input VCs than one request mask holds");
  }

  std::size_t size(int vc) const { return count_[Index(vc)]; }
  bool empty(int vc) const { return count_[Index(vc)] == 0; }
  bool full(int vc) const { return count_[Index(vc)] == depth_; }

  /// Appends a flit to VC `vc`. The caller must have a credit (!full).
  void Push(int vc, const Flit& flit) {
    assert(!full(vc));
    slots_[Slot(vc, count_[Index(vc)])] = flit;
    ++count_[Index(vc)];
  }

  /// The oldest flit of VC `vc`, which must not be empty.
  const Flit& Front(int vc) const {
    assert(!empty(vc));
    return slots_[Slot(vc, 0)];
  }

  /// Removes the oldest flit of VC `vc`, which must not be empty.
  void Pop(int vc) {
    assert(!empty(vc));
    const std::size_t i = Index(vc);
    head_[i] = static_cast<std::uint8_t>(head_[i] + 1 == depth_ ? 0
                                                                : head_[i] + 1);
    --count_[i];
  }

  /// Visits VC `vc`'s flits oldest-first (invariant auditing).
  template <typename Fn>
  void ForEach(int vc, Fn&& fn) const {
    for (int k = 0; k < count_[Index(vc)]; ++k) fn(slots_[Slot(vc, k)]);
  }

  /// Snapshot walk of VC `vc` (the v5 bytes of one VC buffer): its flit
  /// count, then its flits oldest-first, each through `flit_io(ar, flit)`.
  /// Load refuses more flits than the depth before reading any, and
  /// replaces the VC's contents.
  template <class FlitIo>
  void Walk(Serializer& s, int vc, FlitIo&& flit_io) const {
    s.U64(size(vc));
    ForEach(vc, [&](const Flit& f) { flit_io(s, f); });
  }
  template <class FlitIo>
  void Walk(Deserializer& d, int vc, FlitIo&& flit_io) {
    const std::size_t n = d.Count();
    if (n > depth_) {
      throw SerializeError("VC buffer holds " + std::to_string(n) +
                           " flits, capacity " + std::to_string(depth_));
    }
    const std::size_t i = Index(vc);
    head_[i] = 0;
    count_[i] = static_cast<std::uint8_t>(n);
    for (int k = 0; k < count_[i]; ++k) flit_io(d, slots_[Slot(vc, k)]);
  }

 private:
  static std::size_t Index(int vc) { return static_cast<std::size_t>(vc); }

  /// The slot of VC `vc`'s flit `k` places behind its oldest.
  std::size_t Slot(int vc, int k) const {
    int at = head_[Index(vc)] + k;
    if (at >= depth_) at -= depth_;
    return Index(vc) * depth_ + static_cast<std::size_t>(at);
  }

  std::uint8_t depth_;
  std::vector<Flit> slots_;
  std::array<std::uint8_t, kMaxArbiterInputs> head_{};
  std::array<std::uint8_t, kMaxArbiterInputs> count_{};
};

}  // namespace gnoc
