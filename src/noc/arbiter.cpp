#include "noc/arbiter.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"

namespace gnoc {

const char* ArbiterKindName(ArbiterKind k) {
  switch (k) {
    case ArbiterKind::kRoundRobin: return "round-robin";
    case ArbiterKind::kMatrix: return "matrix";
  }
  return "?";
}

ArbiterKind ParseArbiterKind(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "rr" || lower == "round-robin" || lower == "roundrobin") {
    return ArbiterKind::kRoundRobin;
  }
  if (lower == "matrix") return ArbiterKind::kMatrix;
  throw std::invalid_argument("unknown arbiter kind: '" + name + "'");
}

Arbiter::Arbiter(std::size_t num_inputs) : num_inputs_(num_inputs) {
  assert(num_inputs > 0 && num_inputs <= kMaxArbiterInputs);
}

namespace {

/// The mask with every input of an `n`-input arbiter set.
RequestMask AllInputs(std::size_t n) {
  return n == kMaxArbiterInputs ? ~RequestMask{0}
                                 : RequestBit(static_cast<int>(n)) - 1;
}

}  // namespace

RoundRobinArbiter::RoundRobinArbiter(std::size_t num_inputs)
    : Arbiter(num_inputs) {}

int RoundRobinArbiter::Arbitrate(RequestMask requests) {
  assert((requests & ~AllInputs(num_inputs_)) == 0);
  if (requests == 0) return -1;
  // The first requester at or after the pointer, wrapping to the lowest.
  const RequestMask from_pointer = requests & (~RequestMask{0} << pointer_);
  const int winner =
      std::countr_zero(from_pointer != 0 ? from_pointer : requests);
  const auto next = static_cast<std::size_t>(winner) + 1;
  pointer_ = next == num_inputs_ ? 0 : next;
  return winner;
}

MatrixArbiter::MatrixArbiter(std::size_t num_inputs)
    : Arbiter(num_inputs), beaten_by_(num_inputs) {
  // Initial total order: lower index has precedence.
  for (std::size_t j = 0; j < num_inputs; ++j) {
    beaten_by_[j] = RequestBit(static_cast<int>(j)) - 1;
  }
}

int MatrixArbiter::Arbitrate(RequestMask requests) {
  assert((requests & ~AllInputs(num_inputs_)) == 0);
  for (RequestMask rest = requests; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    const auto w = static_cast<std::size_t>(i);
    if ((beaten_by_[w] & requests & ~RequestBit(i)) != 0) continue;
    // Winner loses precedence against everyone.
    for (RequestMask& column : beaten_by_) column &= ~RequestBit(i);
    beaten_by_[w] = AllInputs(num_inputs_) & ~RequestBit(i);
    return i;
  }
  return -1;
}

std::unique_ptr<Arbiter> MakeArbiter(ArbiterKind kind,
                                     std::size_t num_inputs) {
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(num_inputs);
    case ArbiterKind::kMatrix:
      return std::make_unique<MatrixArbiter>(num_inputs);
  }
  return std::make_unique<RoundRobinArbiter>(num_inputs);
}

void RoundRobinArbiter::Save(Serializer& s) const { Io(s, pointer_); }

void RoundRobinArbiter::Load(Deserializer& d) {
  Io(d, pointer_);
  if (pointer_ >= num_inputs_) {
    throw SerializeError("round-robin arbiter pointer " +
                         std::to_string(pointer_) + " out of range for " +
                         std::to_string(num_inputs_) + " inputs");
  }
}

void MatrixArbiter::Save(Serializer& s) const {
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (const RequestMask column : beaten_by_) {
      s.Bool(((column >> i) & 1) != 0);
    }
  }
}

void MatrixArbiter::Load(Deserializer& d) {
  std::fill(beaten_by_.begin(), beaten_by_.end(), 0);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (RequestMask& column : beaten_by_) {
      if (d.Bool()) column |= RequestBit(static_cast<int>(i));
    }
  }
}

}  // namespace gnoc
