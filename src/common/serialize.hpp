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
// and snapshot *files* wrap one serialized payload in a framed container:
//
//   magic "GNOCSNAP" | format version u32 | config fingerprint u64
//   | payload length u64 | payload bytes | CRC32 u32 (over all prior bytes)
//
// Loading rejects wrong magic, unknown versions, mismatched fingerprints
// and corrupt/truncated payloads with distinct, actionable errors. Writes
// go through a temp file + rename so readers never observe a partial file.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

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

  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }

 private:
  void Unsigned(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

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
  /// Throws if any payload bytes are left unread.
  void Finish() const;

 private:
  char Byte() {
    Need(1);
    return data_[pos_++];
  }
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
