// Arbiters used by the separable VC and switch allocators.
//
// Round-robin is the arbiter the low-cost router of the paper assumes; a
// matrix (least-recently-served) arbiter is provided for ablation studies.
// Both are one value type, `Arbiter`, that carries its kind.
//
// Requests arrive as a RequestMask: bit i set means input i requests. A
// u64 covers every arbitration site of every supported topology — the
// widest, VA over all input VCs of a router, has radix × num_vcs inputs,
// which the Network bounds at 64 (cmesh: 8 ports × 8 VCs). A round-robin
// pick is then a mask of the bits at or above the pointer and a
// count-trailing-zeros.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gnoc {

class Serializer;
class Deserializer;

/// One bit per arbiter input, input i at bit i.
using RequestMask = std::uint64_t;

/// Widest arbiter a RequestMask can drive.
inline constexpr std::size_t kMaxArbiterInputs = 64;

/// The mask with only input `i` set.
constexpr RequestMask RequestBit(int i) { return RequestMask{1} << i; }

/// Which arbiter microarchitecture the router instantiates.
enum class ArbiterKind : std::uint8_t {
  kRoundRobin = 0,  ///< rotating priority (the low-cost default)
  kMatrix = 1,      ///< least-recently-served (strong fairness, more area)
};

/// Human readable name ("round-robin" / "matrix").
const char* ArbiterKindName(ArbiterKind k);

/// Parses "rr"/"round-robin"/"matrix" (case-insensitive). Throws
/// std::invalid_argument on unknown names.
ArbiterKind ParseArbiterKind(const std::string& name);

/// One arbiter of either kind, held by value: a router keeps its 3 x radix
/// arbiters in three contiguous vectors and calls them without a virtual
/// dispatch or a heap pointer. Round-robin state is a pointer: the input
/// after the most recent winner has highest priority. Matrix state
/// (least-recently-served, strong fairness) is a precedence matrix stored
/// by column, allocated only for that kind.
class Arbiter {
 public:
  /// Asserts 1 <= num_inputs <= kMaxArbiterInputs.
  Arbiter(ArbiterKind kind, std::size_t num_inputs);

  std::size_t num_inputs() const { return num_inputs_; }

  /// Picks a winner among the set bits of `requests` (no bit at or above
  /// num_inputs()), or -1 if none. Updates internal priority state only
  /// when a grant is issued.
  int Arbitrate(RequestMask requests) {
    return kind_ == ArbiterKind::kRoundRobin ? ArbitrateRoundRobin(requests)
                                             : ArbitrateMatrix(requests);
  }

  /// Round-robin only, exposed for tests: index with current highest
  /// priority.
  std::size_t pointer() const { return pointer_; }

  /// Snapshot support: priority state only (kind and width are
  /// construction-derived; the loader must match them). Round-robin: the
  /// pointer as a u64. Matrix: the matrix row by row, one bool per (i, j):
  /// i has precedence over j.
  void Save(Serializer& s) const;
  /// Throws SerializeError for a round-robin pointer >= num_inputs().
  void Load(Deserializer& d);

 private:
  /// The first requester at or after the pointer, wrapping to the lowest.
  int ArbitrateRoundRobin(RequestMask requests) {
    assert((requests >> (num_inputs_ - 1) >> 1) == 0);
    if (requests == 0) return -1;
    const RequestMask from_pointer = requests & (~RequestMask{0} << pointer_);
    const int winner =
        std::countr_zero(from_pointer != 0 ? from_pointer : requests);
    const int next = winner + 1;
    pointer_ = static_cast<std::uint8_t>(next == num_inputs_ ? 0 : next);
    return winner;
  }
  int ArbitrateMatrix(RequestMask requests);

  ArbiterKind kind_;
  std::uint8_t num_inputs_;
  std::uint8_t pointer_ = 0;  ///< round-robin
  /// Matrix: bit i of beaten_by_[j] set means i has precedence over j. The
  /// diagonal is kept (it round-trips through Save/Load) but never read.
  std::vector<RequestMask> beaten_by_;
};

}  // namespace gnoc
