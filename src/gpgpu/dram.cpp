#include "gpgpu/dram.hpp"

#include <algorithm>
#include <cassert>

#include "common/serialize.hpp"

namespace gnoc {

DramModel::DramModel(const DramConfig& config)
    : config_(config), banks_(static_cast<std::size_t>(config.num_banks)) {
  assert(config.num_banks > 0);
  assert(config.row_bytes >= config.line_bytes);
}

int DramModel::BankOf(std::uint64_t addr) const {
  // Interleave banks at row granularity so sequential lines stay in one
  // row (preserving row-buffer locality).
  return static_cast<int>((addr / config_.row_bytes) %
                          static_cast<std::uint64_t>(config_.num_banks));
}

std::uint64_t DramModel::RowOf(std::uint64_t addr) const {
  return addr / config_.row_bytes;
}

Cycle DramModel::BankReadyAt(std::uint64_t addr) const {
  return banks_[static_cast<std::size_t>(BankOf(addr))].busy_until;
}

bool DramModel::WouldRowHit(std::uint64_t addr) const {
  const Bank& bank = banks_[static_cast<std::size_t>(BankOf(addr))];
  return bank.row_valid && bank.open_row == RowOf(addr);
}

Cycle DramModel::Schedule(std::uint64_t addr, bool is_write, Cycle now) {
  Bank& bank = banks_[static_cast<std::size_t>(BankOf(addr))];
  const std::uint64_t row = RowOf(addr);

  const Cycle start = std::max(now, bank.busy_until);
  stats_.bank_wait_cycles += start - now;

  const bool row_hit = bank.row_valid && bank.open_row == row;
  const Cycle latency =
      row_hit ? config_.row_hit_latency : config_.row_miss_latency;

  bank.busy_until = start + config_.bank_occupancy;
  bank.open_row = row;
  bank.row_valid = true;

  ++stats_.accesses;
  if (row_hit) ++stats_.row_hits;
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  return start + latency;
}

void DramModel::Save(Serializer& s) const { Fields(*this, s); }
void DramModel::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
