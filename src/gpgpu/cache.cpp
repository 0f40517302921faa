#include "gpgpu/cache.hpp"

#include <cassert>

#include "common/serialize.hpp"

namespace gnoc {

namespace {
constexpr bool IsPowerOfTwo(std::uint32_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}
}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& config) : config_(config) {
  assert(IsPowerOfTwo(config.size_bytes));
  assert(IsPowerOfTwo(config.line_bytes));
  assert(IsPowerOfTwo(config.ways));
  assert(config.size_bytes >= config.line_bytes * config.ways);
  num_sets_ = config.size_bytes / (config.line_bytes * config.ways);
  assert(IsPowerOfTwo(num_sets_));
  lines_.resize(static_cast<std::size_t>(num_sets_) * config.ways);
}

std::uint64_t SetAssocCache::LineAddress(std::uint64_t addr) const {
  return addr / config_.line_bytes;
}

std::uint32_t SetAssocCache::SetIndex(std::uint64_t line_addr) const {
  return static_cast<std::uint32_t>(line_addr & (num_sets_ - 1));
}

std::uint64_t SetAssocCache::Tag(std::uint64_t line_addr) const {
  return line_addr / num_sets_;
}

SetAssocCache::AccessResult SetAssocCache::Access(std::uint64_t addr,
                                                  bool is_write) {
  const std::uint64_t line_addr = LineAddress(addr);
  const std::uint32_t set = SetIndex(line_addr);
  const std::uint64_t tag = Tag(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];

  AccessResult result;
  ++use_counter_;

  // Hit path.
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = use_counter_;
      if (is_write) {
        line.dirty = true;
        ++stats_.write_hits;
      } else {
        ++stats_.read_hits;
      }
      result.hit = true;
      return result;
    }
  }

  // Miss: pick victim (invalid way first, else true LRU).
  if (is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }
  Line* victim = nullptr;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (victim == nullptr || line.lru < victim->lru) victim = &line;
  }
  assert(victim != nullptr);
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    result.writeback = true;
    // Reconstruct the victim's line address from tag and set.
    result.writeback_addr =
        (victim->tag * num_sets_ + set) * config_.line_bytes;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = is_write;  // write-allocate
  victim->lru = use_counter_;
  return result;
}

bool SetAssocCache::Probe(std::uint64_t addr) const {
  const std::uint64_t line_addr = LineAddress(addr);
  const std::uint32_t set = SetIndex(line_addr);
  const std::uint64_t tag = Tag(line_addr);
  const Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void SetAssocCache::Flush() {
  for (Line& line : lines_) line = Line{};
}

void SetAssocCache::Save(Serializer& s) const { Fields(*this, s); }
void SetAssocCache::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
