// A growable FIFO on one contiguous slot array: the queue type of the flit
// path (VC buffers, link delay lines, NIC queues).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace gnoc {

/// A FIFO over a power-of-two array of slots: the oldest item sits at
/// `head_` and the others follow it, wrapping modulo the capacity. A push
/// into a full ring doubles the array; nothing shrinks it, so a queue that
/// has once held n items never allocates again while it holds at most n.
/// Popped items stay in their slots until overwritten, hence the
/// trivially destructible element type.
///
/// The interface is the part of std::deque the flit path and IoSeq use —
/// value_type, size, empty, front, back, push_back/emplace_back, pop_front,
/// clear and oldest-first iteration — plus reserve and capacity. Slots are
/// indexed through the vector's operator[], so _GLIBCXX_ASSERTIONS checks
/// them.
template <typename T>
class Ring {
  static_assert(std::is_trivially_destructible_v<T>,
                "Ring leaves popped items in their slots");

  /// Forward iterator over the items, oldest first.
  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;
    using RingPtr = std::conditional_t<Const, const Ring*, Ring*>;

    Iter() = default;
    Iter(RingPtr ring, std::uint32_t i) : ring_(ring), i_(i) {}

    reference operator*() const { return ring_->slots_[ring_->Slot(i_)]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& other) const { return i_ == other.i_; }

   private:
    RingPtr ring_ = nullptr;
    std::uint32_t i_ = 0;  ///< position from the oldest item
  };

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated: 0 or a power of two.
  std::size_t capacity() const { return slots_.size(); }

  /// Grows the slot array, if needed, to hold `n` items without another
  /// allocation.
  void reserve(std::size_t n) {
    if (n > slots_.size()) Regrow(n);
  }

  T& front() {
    assert(!empty());
    return slots_[head_];
  }
  const T& front() const {
    assert(!empty());
    return slots_[head_];
  }
  T& back() {
    assert(!empty());
    return slots_[Slot(size_ - 1)];
  }
  const T& back() const {
    assert(!empty());
    return slots_[Slot(size_ - 1)];
  }

  void push_back(const T& item) { emplace_back(item); }
  void push_back(T&& item) { emplace_back(std::move(item)); }

  /// Appends T(args...) and returns it. The item is built before a full
  /// ring grows, so an argument may be one of the ring's own items
  /// (`push_back(back())`).
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    T item(std::forward<Args>(args)...);
    if (size_ == slots_.size()) Regrow(slots_.size() + 1);
    T& slot = slots_[Slot(size_)];
    slot = std::move(item);
    ++size_;
    return slot;
  }

  void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  /// Slot of the item `i` places behind the oldest.
  std::uint32_t Slot(std::uint32_t i) const { return (head_ + i) & mask_; }

  /// Moves the items, oldest first, to the start of a new array of at
  /// least `n` and at least twice the current slots.
  void Regrow(std::size_t n) {
    std::vector<T> slots(std::bit_ceil(std::max(n, 2 * slots_.size())));
    for (std::uint32_t i = 0; i < size_; ++i) {
      slots[i] = std::move(slots_[Slot(i)]);
    }
    slots_.swap(slots);
    head_ = 0;
    mask_ = static_cast<std::uint32_t>(slots_.size() - 1);
  }

  std::vector<T> slots_;
  std::uint32_t head_ = 0;  ///< slot of the oldest item
  std::uint32_t size_ = 0;
  std::uint32_t mask_ = 0;  ///< capacity - 1 once allocated
};

}  // namespace gnoc
