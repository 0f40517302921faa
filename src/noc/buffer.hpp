// Bounded FIFO buffer backing one virtual channel.
#pragma once

#include <cassert>
#include <cstddef>
#include <string>

#include "common/ring.hpp"
#include "noc/flit.hpp"

namespace gnoc {

/// A fixed-capacity flit FIFO. One instance backs one input VC; the credit
/// protocol guarantees Push is never called on a full buffer (asserted).
/// Its ring is sized for the capacity at construction, so a VC never
/// allocates afterwards.
class VcBuffer {
 public:
  explicit VcBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
    fifo_.reserve(capacity);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return fifo_.size(); }
  bool empty() const { return fifo_.empty(); }
  bool full() const { return fifo_.size() >= capacity_; }
  std::size_t free_slots() const { return capacity_ - fifo_.size(); }

  /// Appends a flit. The caller must have a credit (i.e. `!full()`).
  void Push(const Flit& flit) {
    assert(!full());
    fifo_.push_back(flit);
  }

  /// The flit at the head of the FIFO. Undefined when empty.
  const Flit& Front() const {
    assert(!empty());
    return fifo_.front();
  }

  /// Removes and returns the head flit.
  Flit Pop() {
    assert(!empty());
    Flit f = fifo_.front();
    fifo_.pop_front();
    return f;
  }

  /// Drops all contents (used only by tests / reset).
  void Clear() { fifo_.clear(); }

  /// Visits buffered flits oldest-first (invariant auditing).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Flit& f : fifo_) fn(f);
  }

  /// Snapshot support: contents only; capacity is construction-derived.
  void Save(Serializer& s) const { IoSeq(s, fifo_); }
  /// Reads what Save wrote. Throws SerializeError for more flits than the
  /// capacity before reading any, so the ring keeps its reserved slots.
  void Load(Deserializer& d) {
    const std::size_t n = d.Count();
    if (n > capacity_) {
      throw SerializeError("VC buffer holds " + std::to_string(n) +
                           " flits, capacity " + std::to_string(capacity_));
    }
    fifo_.clear();
    for (std::size_t i = 0; i < n; ++i) Io(d, fifo_.emplace_back());
  }

 private:
  std::size_t capacity_;
  Ring<Flit> fifo_;
};

}  // namespace gnoc
