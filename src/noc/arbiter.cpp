#include "noc/arbiter.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "common/enum_registry.hpp"
#include "common/serialize.hpp"

namespace gnoc {

namespace {

const EnumRegistry<ArbiterKind>& ArbiterRegistry() {
  static const EnumRegistry<ArbiterKind> kRegistry{
      "arbiter",
      {
          {"round-robin", ArbiterKind::kRoundRobin},
          {"matrix", ArbiterKind::kMatrix},
          {"rr", ArbiterKind::kRoundRobin},
          {"roundrobin", ArbiterKind::kRoundRobin},
      }};
  return kRegistry;
}

}  // namespace

const char* ArbiterKindName(ArbiterKind k) { return ArbiterRegistry().Name(k); }

ArbiterKind ParseArbiterKind(const std::string& name) {
  return ArbiterRegistry().Parse(name);
}

namespace {

/// The mask with every input of an `n`-input arbiter set.
RequestMask AllInputs(std::size_t n) {
  return n == kMaxArbiterInputs ? ~RequestMask{0}
                                 : RequestBit(static_cast<int>(n)) - 1;
}

}  // namespace

Arbiter::Arbiter(ArbiterKind kind, std::size_t num_inputs)
    : kind_(kind), num_inputs_(static_cast<std::uint8_t>(num_inputs)) {
  assert(num_inputs > 0 && num_inputs <= kMaxArbiterInputs);
  if (kind_ != ArbiterKind::kMatrix) return;
  // Initial total order: lower index has precedence.
  beaten_by_.resize(num_inputs);
  for (std::size_t j = 0; j < num_inputs; ++j) {
    beaten_by_[j] = RequestBit(static_cast<int>(j)) - 1;
  }
}

int Arbiter::ArbitrateMatrix(RequestMask requests) {
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

void Arbiter::Save(Serializer& s) const {
  if (kind_ == ArbiterKind::kRoundRobin) {
    s.U64(pointer_);
    return;
  }
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (const RequestMask column : beaten_by_) {
      s.Bool(((column >> i) & 1) != 0);
    }
  }
}

void Arbiter::Load(Deserializer& d) {
  if (kind_ == ArbiterKind::kRoundRobin) {
    const std::uint64_t pointer = d.U64();
    if (pointer >= num_inputs_) {
      throw SerializeError("round-robin arbiter pointer " +
                           std::to_string(pointer) + " out of range for " +
                           std::to_string(num_inputs_) + " inputs");
    }
    pointer_ = static_cast<std::uint8_t>(pointer);
    return;
  }
  std::fill(beaten_by_.begin(), beaten_by_.end(), 0);
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    for (RequestMask& column : beaten_by_) {
      if (d.Bool()) column |= RequestBit(static_cast<int>(i));
    }
  }
}

}  // namespace gnoc
