// Binary serialization for simulator snapshots (DESIGN.md §10).
//
// `Serializer`/`Deserializer` encode fixed-width primitives little-endian
// byte-by-byte (host-endianness independent), doubles as their IEEE-754 bit
// pattern (exact round-trip), and strings/blobs length-prefixed. Every
// stateful simulator component implements
//
//   void Save(Serializer& s) const;
//   void Load(Deserializer& d);
//
// and writes its layout once, as a field walk both of them call:
//
//   template <class Self, class Ar>
//   static void Fields(Self& self, Ar& ar) {
//     Io(ar, self.clock_);        // a scalar in its type's wire width
//     IoSeq(ar, self.queue_);     // a count, then the elements
//   }
//   void Save(Serializer& s) const { Fields(*this, s); }
//   void Load(Deserializer& d) { Fields(*this, d); /* checks, rebuilds */ }
//
// `Self` is `const T` when saving and `T` when loading; every Io* helper
// below has one overload per direction, so a walk never branches on the
// direction. A `Load` adds only what must follow the walk: checks of loaded
// values the next Tick would index or divide by, and rebuilds of derived
// state. A type whose saved form is not a list of its fields (the matrix
// arbiter's bit matrix) keeps a hand-written pair.
//
// Snapshot *files* wrap one serialized payload in a framed container:
//
//   magic "GNOCSNAP" | format version u32 | config fingerprint u64
//   | payload length u64 | payload bytes | CRC32 u32 (over all prior bytes)
//
// Loading rejects wrong magic, unknown versions, mismatched fingerprints
// and corrupt/truncated payloads with distinct, actionable errors. Writes
// go through a temp file + rename so readers never observe a partial file.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace gnoc {

/// Bumped whenever the serialized layout of any component changes.
/// v3: Network payloads append the event queue (scheduling=event).
/// v4: QoS — NIC token buckets + throttle counters, router WRR credits,
///     per-class SLO targets in telemetry reports, QoS summary counters.
/// v5: Network payloads drop the active-set dirty lists and the event
///     queue (both backends retired) and NICs their epoch-dirty flag.
inline constexpr std::uint32_t kSnapshotFormatVersion = 5;

/// Thrown on any malformed snapshot: truncation, bad magic, version skew,
/// fingerprint mismatch, CRC mismatch.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`.
std::uint32_t Crc32(std::string_view data);

/// FNV-1a 64-bit hash of `data` — used for config fingerprints.
std::uint64_t Fnv1a64(std::string_view data);

/// Appends primitives to an in-memory byte buffer, little-endian.
class Serializer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { Unsigned(v, 2); }
  void U32(std::uint32_t v) { Unsigned(v, 4); }
  void U64(std::uint64_t v) { Unsigned(v, 8); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Exact: stores the IEEE-754 bit pattern, so NaNs/-0.0/denormals all
  /// round-trip bit-identically.
  void Double(double v);
  /// Length-prefixed (u64) byte string.
  void Str(std::string_view v);
  /// The low `n` bytes of `v`.
  void Unsigned(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Reads primitives back in the same order; every read is bounds-checked
/// and throws SerializeError on truncation. `Finish()` asserts the whole
/// payload was consumed (catches layout drift between Save and Load).
class Deserializer {
 public:
  explicit Deserializer(std::string_view data) : data_(data) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(Byte()); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Unsigned(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Unsigned(4)); }
  std::uint64_t U64() { return Unsigned(8); }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double Double();
  std::string Str();

  std::size_t remaining() const { return data_.size() - pos_; }
  /// A u64 element count. Every saved element takes at least one byte, so
  /// a count above remaining() is refused before anything is allocated.
  std::size_t Count();
  /// Throws if any payload bytes are left unread.
  void Finish() const;
  /// An `n`-byte unsigned value.
  std::uint64_t Unsigned(int n) {
    Need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

 private:
  char Byte() {
    Need(1);
    return data_[pos_++];
  }
  void Need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw SerializeError("snapshot truncated: need " + std::to_string(n) +
                           " byte(s) at offset " + std::to_string(pos_) +
                           " of " + std::to_string(data_.size()));
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- Field-walk helpers ------------------------------------------------------

/// An integer (bool included) in its type's width; a double as its bits.
template <class T>
  requires std::is_integral_v<T>
void Io(Serializer& s, T v) {
  s.Unsigned(static_cast<std::uint64_t>(v), static_cast<int>(sizeof(T)));
}
template <class T>
  requires std::is_integral_v<T>
void Io(Deserializer& d, T& v) {
  v = static_cast<T>(d.Unsigned(static_cast<int>(sizeof(T))));
}
inline void Io(Serializer& s, double v) { s.Double(v); }
inline void Io(Deserializer& d, double& v) { v = d.Double(); }
inline void Io(Serializer& s, const std::string& v) { s.Str(v); }
inline void Io(Deserializer& d, std::string& v) { v = d.Str(); }

/// An enum, as its underlying type.
template <class E>
  requires std::is_enum_v<E>
void Io(Serializer& s, E v) {
  Io(s, static_cast<std::underlying_type_t<E>>(v));
}
template <class E>
  requires std::is_enum_v<E>
void Io(Deserializer& d, E& v) {
  std::underlying_type_t<E> raw{};
  Io(d, raw);
  v = static_cast<E>(raw);
}

template <class A, class B>
void Io(Serializer& s, const std::pair<A, B>& p) {
  Io(s, p.first);
  Io(s, p.second);
}
template <class A, class B>
void Io(Deserializer& d, std::pair<A, B>& p) {
  Io(d, p.first);
  Io(d, p.second);
}

/// A fixed-size array: its elements (the size is part of the type).
template <class T, std::size_t N>
void Io(Serializer& s, const std::array<T, N>& a) {
  for (const T& x : a) Io(s, x);
}
template <class T, std::size_t N>
void Io(Deserializer& d, std::array<T, N>& a) {
  for (T& x : a) Io(d, x);
}

/// An owned object: the pointee (the pointer is construction-derived).
template <class T>
void Io(Serializer& s, const std::unique_ptr<T>& p) {
  Io(s, *p);
}
template <class T>
void Io(Deserializer& d, std::unique_ptr<T>& p) {
  Io(d, *p);
}

/// A class: through its member Save/Load when it has them (Load may check
/// and rebuild after its walk), else through its static Fields walk.
template <class T>
  requires std::is_class_v<T>
void Io(Serializer& s, const T& v) {
  if constexpr (requires { v.Save(s); }) {
    v.Save(s);
  } else {
    T::Fields(v, s);
  }
}
template <class T>
  requires std::is_class_v<T>
void Io(Deserializer& d, T& v) {
  if constexpr (requires { v.Load(d); }) {
    v.Load(d);
  } else {
    T::Fields(v, d);
  }
}

/// The elements of a range whose size is construction-derived (no count).
template <class Ar, class Range>
void IoEach(Ar& ar, Range& range) {
  for (auto& x : range) Io(ar, x);
}

/// Bit `i` of a bit mask, as a bool (a flag packed into a mask).
template <class Mask>
  requires std::is_unsigned_v<Mask>
void IoBit(Serializer& s, Mask mask, int i) {
  Io(s, ((mask >> i) & 1) != 0);
}
template <class Mask>
  requires std::is_unsigned_v<Mask>
void IoBit(Deserializer& d, Mask& mask, int i) {
  bool set = false;
  Io(d, set);
  const Mask bit = Mask{1} << i;
  mask = set ? mask | bit : mask & ~bit;
}

/// An integer saved as the wider `Wire` type but held in a narrower field.
/// Load refuses a value the field cannot hold before narrowing it.
template <class Wire, class Field>
  requires std::is_integral_v<Wire> && std::is_integral_v<Field>
void IoNarrow(Serializer& s, Field v) {
  Io(s, static_cast<Wire>(v));
}
template <class Wire, class Field>
  requires std::is_integral_v<Wire> && std::is_integral_v<Field>
void IoNarrow(Deserializer& d, Field& v) {
  Wire raw{};
  Io(d, raw);
  if (!std::in_range<Field>(raw)) {
    throw SerializeError("value " + std::to_string(raw) +
                         " out of range for a " +
                         std::to_string(sizeof(Field)) + "-byte field");
  }
  v = static_cast<Field>(raw);
}

/// A construction-derived count: Save writes `n`, Load refuses any other
/// value, naming `what`.
inline void IoCount(Serializer& s, std::size_t n, std::string_view) {
  s.U64(n);
}
void IoCount(Deserializer& d, std::size_t n, std::string_view what);

/// A flag derived from the fields walked before it: Save writes `value`,
/// Load refuses any other byte, naming `what`.
inline void IoDerived(Serializer& s, bool value, std::string_view) {
  s.Bool(value);
}
void IoDerived(Deserializer& d, bool value, std::string_view what);

/// IoCount of the range's size, then its elements.
template <class Ar, class Range>
void IoSized(Ar& ar, Range& range, std::string_view what) {
  IoCount(ar, range.size(), what);
  IoEach(ar, range);
}

/// A count, then the elements of a sequence that grows at run time. Load
/// refuses a count above Deserializer::remaining() before allocating, and
/// starts each element as a copy of `blank` (for element types without a
/// default constructor).
template <class Seq>
void IoSeq(Serializer& s, const Seq& seq,
           const typename Seq::value_type& /*blank*/ = {}) {
  s.U64(seq.size());
  for (const auto& x : seq) Io(s, x);
}
template <class Seq>
void IoSeq(Deserializer& d, Seq& seq,
           const typename Seq::value_type& blank = {}) {
  const std::size_t n = d.Count();
  seq.clear();
  for (std::size_t i = 0; i < n; ++i) {
    seq.push_back(blank);
    Io(d, seq.back());
  }
}

/// IoSeq through an element walker: `item_io(ar, element)` walks each
/// element (for elements whose walk needs context, such as a flit's packet
/// table). Load appends default-constructed elements for it to fill.
template <class Seq, class ItemIo>
void IoSeqWith(Serializer& s, const Seq& seq, ItemIo&& item_io) {
  s.U64(seq.size());
  for (const auto& x : seq) item_io(s, x);
}
template <class Seq, class ItemIo>
void IoSeqWith(Deserializer& d, Seq& seq, ItemIo&& item_io) {
  const std::size_t n = d.Count();
  seq.clear();
  for (std::size_t i = 0; i < n; ++i) item_io(d, seq.emplace_back());
}

/// A map, saved as a count and (key, value) entries sorted by key, so an
/// unordered map's bytes do not depend on its iteration order.
/// `value_io(ar, value)` walks one value (Io by default).
template <class Map, class ValueIo>
void IoSortedMap(Serializer& s, const Map& map, ValueIo value_io) {
  std::map<typename Map::key_type, const typename Map::mapped_type*> sorted;
  for (const auto& [key, value] : map) sorted.emplace(key, &value);
  s.U64(sorted.size());
  for (const auto& [key, value] : sorted) {
    Io(s, key);
    value_io(s, *value);
  }
}
template <class Map, class ValueIo>
void IoSortedMap(Deserializer& d, Map& map, ValueIo value_io) {
  const std::size_t n = d.Count();
  map.clear();
  for (std::size_t i = 0; i < n; ++i) {
    typename Map::key_type key{};
    Io(d, key);
    value_io(d, map[key]);
  }
}
template <class Ar, class Map>
void IoSortedMap(Ar& ar, Map& map) {
  IoSortedMap(ar, map, [](auto& a, auto& value) { Io(a, value); });
}

/// An optional sub-object (auditor, telemetry, an SM's L1): a presence
/// flag, then the pointee when present. Load refuses a flag that differs
/// from this build's configuration, naming `what`.
template <class Ptr>
void IoPresence(Serializer& s, const Ptr& p, std::string_view /*what*/) {
  s.Bool(p != nullptr);
  if (p != nullptr) Io(s, *p);
}
template <class Ptr>
void IoPresence(Deserializer& d, Ptr& p, std::string_view what) {
  if (d.Bool() != (p != nullptr)) {
    throw SerializeError("snapshot " + std::string(what) +
                         " mode differs from this configuration");
  }
  if (p != nullptr) Io(d, *p);
}

/// Grants access to std::priority_queue's protected container so snapshot
/// code can save and restore the heap array *verbatim*. Rebuilding a heap
/// by re-pushing (or make_heap) may permute elements that compare equal,
/// changing subsequent pop order — which would break the bit-identical
/// resume guarantee for queues ordered by non-unique keys.
template <typename Pq>
struct PriorityQueueAccess : Pq {
  static typename Pq::container_type& Container(Pq& pq) {
    return pq.*&PriorityQueueAccess::c;
  }
  static const typename Pq::container_type& Container(const Pq& pq) {
    return pq.*&PriorityQueueAccess::c;
  }
};

/// Writes `path` atomically (temp file in the same directory + rename).
/// Throws std::runtime_error on any I/O failure.
void AtomicWriteFile(const std::string& path, std::string_view contents);

/// Frames `payload` (magic + version + fingerprint + length + payload +
/// CRC32) and writes it atomically to `path`.
void WriteSnapshotFile(const std::string& path, std::uint64_t fingerprint,
                       std::string_view payload);

/// Reads and validates a snapshot file, returning the payload. Rejects
/// wrong magic, version skew, fingerprint mismatch (a snapshot taken under
/// a different configuration) and CRC/truncation corruption — each with a
/// distinct SerializeError message naming `path`.
std::string ReadSnapshotFile(const std::string& path,
                             std::uint64_t expected_fingerprint);

}  // namespace gnoc
