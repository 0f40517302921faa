// Packet-trace recording and replay.
//
// A common NoC-research workflow: record the packet stream a full-system
// run injects, then replay it against network variants without re-running
// the cores. A `TraceWriter` handed to a fabric (NetworkFabric::SetTrace,
// IdealFabric::SetTrace) receives every accepted injection; `TraceReplay`
// plays a trace into a bare Network, respecting injection backpressure
// (records queue behind a full NIC rather than being dropped).
//
// Trace format: CSV with header `cycle,src,dst,type,flits,addr`, one packet
// per line, ordered by cycle.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/network.hpp"
#include "noc/packet.hpp"

namespace gnoc {

/// One recorded packet injection.
struct TraceRecord {
  Cycle cycle = 0;  ///< cycle the packet was offered to the network
  NodeId src = 0;
  NodeId dst = 0;
  PacketType type = PacketType::kReadRequest;
  int num_flits = 1;
  std::uint64_t addr = 0;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.cycle);
    Io(ar, self.src);
    Io(ar, self.dst);
    Io(ar, self.type);
    Io(ar, self.num_flits);
    Io(ar, self.addr);
  }
};

/// Accumulates records and serializes them to CSV.
class TraceWriter {
 public:
  void Append(const Packet& packet, Cycle now);
  void Append(const TraceRecord& record);

  std::size_t size() const { return records_.size(); }
  const std::vector<TraceRecord>& records() const { return records_; }

  /// CSV including the header line.
  std::string ToCsv() const;

  /// Writes ToCsv() to `path`; throws std::runtime_error on I/O failure.
  void WriteFile(const std::string& path) const;

  /// Snapshot support (DESIGN.md §10): the accumulated records.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  std::vector<TraceRecord> records_;
};

/// Parses traces written by TraceWriter.
class TraceReader {
 public:
  /// Parses CSV text (header required). Throws std::invalid_argument on
  /// malformed input.
  static std::vector<TraceRecord> FromCsv(const std::string& csv);

  /// Reads and parses a file; throws std::runtime_error when unreadable.
  static std::vector<TraceRecord> FromFile(const std::string& path);
};

/// Replays a trace into a Network. Call Tick() once per cycle before
/// network.Tick(). Records become eligible at `record.cycle` (re-based so
/// the first record fires immediately); a full injection queue delays the
/// stream instead of dropping packets.
class TraceReplay {
 public:
  /// `records` must be sorted by cycle (TraceWriter output is). Throws
  /// std::invalid_argument, naming the record, for a source or
  /// destination that is not a tile of `network` or a flit count outside
  /// [1, 65535].
  TraceReplay(Network& network, std::vector<TraceRecord> records);

  /// Injects every due record the network will accept.
  void Tick();

  bool Done() const { return next_ >= records_.size(); }
  std::size_t injected() const { return next_; }
  std::size_t remaining() const { return records_.size() - next_; }

 private:
  Network& network_;
  std::vector<TraceRecord> records_;
  std::size_t next_ = 0;
  Cycle base_ = 0;
  bool base_set_ = false;
};

}  // namespace gnoc
