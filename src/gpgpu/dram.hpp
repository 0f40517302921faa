// Banked DRAM timing model with open-row policy.
//
// Each memory controller owns one DramModel. The model captures the three
// properties the paper's results depend on: a long access latency (Table 2:
// 220-cycle minimum end-to-end), limited bandwidth (banks serialize), and
// row-buffer locality (sequential lines are cheaper than random ones —
// the reason the paper excludes request-reordering adaptive routing).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gnoc {

class Serializer;
class Deserializer;

struct DramConfig {
  int num_banks = 8;
  Cycle row_hit_latency = 60;    ///< access that hits the open row
  Cycle row_miss_latency = 110;  ///< precharge + activate + access
  Cycle bank_occupancy = 8;      ///< cycles a bank is busy per access
  std::uint32_t line_bytes = 64;
  std::uint32_t row_bytes = 2048;  ///< row-buffer size
};

struct DramStats {
  std::uint64_t accesses = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Total cycles requests waited for a busy bank.
  std::uint64_t bank_wait_cycles = 0;

  double row_hit_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(row_hits) / static_cast<double>(accesses);
  }
};

/// In-order per-bank scheduler: an access waits for its bank, pays the row
/// hit/miss latency, and occupies the bank for `bank_occupancy` cycles.
class DramModel {
 public:
  explicit DramModel(const DramConfig& config);

  /// Schedules an access starting no earlier than `now`; returns the cycle
  /// the data is available (read) or durably written (write).
  Cycle Schedule(std::uint64_t addr, bool is_write, Cycle now);

  /// Earliest cycle at which a new access to `addr`'s bank could start.
  Cycle BankReadyAt(std::uint64_t addr) const;

  /// True when an access to `addr` would hit its bank's open row right now
  /// (no state change). Used by FR-FCFS-style schedulers.
  bool WouldRowHit(std::uint64_t addr) const;

  const DramStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DramStats{}; }

  /// Snapshot support (DESIGN.md §10): bank state and stats.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  struct Bank {
    Cycle busy_until = 0;
    std::uint64_t open_row = 0;
    bool row_valid = false;
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    for (auto& bank : self.banks_) {
      Io(ar, bank.busy_until);
      Io(ar, bank.open_row);
      Io(ar, bank.row_valid);
    }
    Io(ar, self.stats_.accesses);
    Io(ar, self.stats_.row_hits);
    Io(ar, self.stats_.reads);
    Io(ar, self.stats_.writes);
    Io(ar, self.stats_.bank_wait_cycles);
  }

  int BankOf(std::uint64_t addr) const;
  std::uint64_t RowOf(std::uint64_t addr) const;

  DramConfig config_;
  std::vector<Bank> banks_;
  DramStats stats_;
};

}  // namespace gnoc
