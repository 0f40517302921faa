// Set-associative write-back cache model with LRU replacement.
//
// Used for the per-MC shared L2 slices (Table 2: 64KB per MC, 8-way LRU,
// write-back). The model tracks tags, dirty bits and LRU state — no data —
// and reports evictions of dirty lines so the caller can generate the
// corresponding DRAM write-back traffic.
#pragma once

#include <cstdint>
#include <vector>

namespace gnoc {

class Serializer;
class Deserializer;

/// Geometry of a cache. All values must be powers of two.
struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 8;
};

/// Running counters of one cache instance.
struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0;  ///< dirty lines evicted

  std::uint64_t accesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  double miss_rate() const {
    const std::uint64_t a = accesses();
    return a == 0 ? 0.0
                  : static_cast<double>(read_misses + write_misses) /
                        static_cast<double>(a);
  }
};

/// Tag-only set-associative cache with true-LRU replacement and
/// write-allocate / write-back policies.
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& config);

  /// Outcome of one access.
  struct AccessResult {
    bool hit = false;
    bool writeback = false;          ///< a dirty victim was evicted
    std::uint64_t writeback_addr = 0;  ///< line address of the victim
  };

  /// Performs a read (is_write = false) or write (is_write = true) of the
  /// byte address `addr`. Misses allocate the line (write-allocate).
  AccessResult Access(std::uint64_t addr, bool is_write);

  /// True when the line containing `addr` is resident (no state change).
  bool Probe(std::uint64_t addr) const;

  /// Invalidates everything (drops dirty state without write-back).
  void Flush();

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return config_.ways; }
  std::uint32_t line_bytes() const { return config_.line_bytes; }

  /// Snapshot support (DESIGN.md §10): lines, LRU clock and stats.
  /// Geometry is construction-derived; the loader must match it.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  ///< last-use stamp; smallest = LRU victim
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.use_counter_);
    for (auto& line : self.lines_) {
      Io(ar, line.tag);
      Io(ar, line.valid);
      Io(ar, line.dirty);
      Io(ar, line.lru);
    }
    Io(ar, self.stats_.read_hits);
    Io(ar, self.stats_.read_misses);
    Io(ar, self.stats_.write_hits);
    Io(ar, self.stats_.write_misses);
    Io(ar, self.stats_.writebacks);
  }

  std::uint64_t LineAddress(std::uint64_t addr) const;
  std::uint32_t SetIndex(std::uint64_t line_addr) const;
  std::uint64_t Tag(std::uint64_t line_addr) const;

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::uint64_t use_counter_ = 0;
  std::vector<Line> lines_;  // [set * ways + way]
  CacheStats stats_;
};

}  // namespace gnoc
