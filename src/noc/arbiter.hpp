// Arbiters used by the separable VC and switch allocators.
//
// Round-robin is the arbiter the low-cost router of the paper assumes; a
// matrix (least-recently-served) arbiter is provided for ablation studies.
//
// Requests arrive as a RequestMask: bit i set means input i requests. A
// u64 covers every arbitration site of every supported topology — the
// widest, VA over all input VCs of a router, has radix × num_vcs inputs,
// which the Network bounds at 64 (cmesh: 8 ports × 8 VCs). A round-robin
// pick is then a mask of the bits at or above the pointer and a
// count-trailing-zeros.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Parses "rr"/"round-robin"/"matrix". Throws std::invalid_argument.
ArbiterKind ParseArbiterKind(const std::string& name);

/// Common interface: given a request mask, pick one winner (index) or -1.
class Arbiter {
 public:
  /// Asserts 1 <= num_inputs <= kMaxArbiterInputs.
  explicit Arbiter(std::size_t num_inputs);
  virtual ~Arbiter() = default;

  std::size_t num_inputs() const { return num_inputs_; }

  /// Picks a winner among the set bits of `requests` (no bit at or above
  /// num_inputs()), or -1 if none. Updates internal priority state only
  /// when a grant is issued.
  virtual int Arbitrate(RequestMask requests) = 0;

  /// Snapshot support: priority state only (kind and width are
  /// construction-derived; the loader must match them).
  virtual void Save(Serializer& s) const = 0;
  virtual void Load(Deserializer& d) = 0;

 protected:
  std::size_t num_inputs_;
};

/// Classic rotating-priority round-robin arbiter: the input after the most
/// recent winner has highest priority.
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(std::size_t num_inputs);

  int Arbitrate(RequestMask requests) override;

  void Save(Serializer& s) const override;
  /// Throws SerializeError for a pointer >= num_inputs().
  void Load(Deserializer& d) override;

  /// Exposed for tests: index with current highest priority.
  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t pointer_ = 0;
};

/// Matrix arbiter: grants the least recently served requester (strong
/// fairness). State is a precedence matrix, stored by column.
class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(std::size_t num_inputs);

  int Arbitrate(RequestMask requests) override;

  /// The matrix row by row, one bool per (i, j): i has precedence over j.
  void Save(Serializer& s) const override;
  void Load(Deserializer& d) override;

 private:
  /// Bit i of beaten_by_[j] set means i has precedence over j. The
  /// diagonal is kept (it round-trips through Save/Load) but never read.
  std::vector<RequestMask> beaten_by_;
};

/// Builds an arbiter of the requested kind.
std::unique_ptr<Arbiter> MakeArbiter(ArbiterKind kind, std::size_t num_inputs);

}  // namespace gnoc
