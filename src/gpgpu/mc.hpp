// Memory-controller model: L2 slice + DRAM channel behind a NoC endpoint.
//
// Every MC owns a slice of the shared L2 (Table 2: 64KB, 8-way LRU,
// write-back) and one DRAM channel. Requests ejected from the network enter
// a bounded queue; the MC starts one request per cycle:
//
//   read  -> L2 lookup; hit: reply after l2_latency; miss: DRAM access,
//            line filled, reply after the DRAM completion (dirty victims
//            produce DRAM write-backs);
//   write -> L2 write-allocate (dirty); 1-flit ack after l2_latency.
//
// Replies wait in a completion queue ordered by ready time and are injected
// back into the network at one packet per cycle. When the reply injection
// queue backs up, the MC stops draining its request queue: this is exactly
// the request->reply dependency that makes naive VC sharing protocol-
// deadlock-prone (Sec. 3.2.1), reproduced faithfully.
#pragma once

#include <deque>
#include <queue>
#include <string>

#include "common/types.hpp"
#include "gpgpu/cache.hpp"
#include "gpgpu/dram.hpp"
#include "noc/fabric.hpp"
#include "noc/packet.hpp"

namespace gnoc {

/// Request-scheduling policy of the MC (related work: Yuan et al. [15]
/// show a simple in-order scheduler plus NoC support can match FR-FCFS).
enum class McScheduler : std::uint8_t {
  kInOrder = 0,  ///< strict FIFO service (the paper's assumption)
  kFrFcfs = 1,   ///< first-ready first-come-first-served: row hits first
};

const char* McSchedulerName(McScheduler s);
/// Parses "in-order" / "fr-fcfs" (aliases accepted, case-insensitive).
/// Throws std::invalid_argument on unknown names.
McScheduler ParseMcScheduler(const std::string& name);

struct McConfig {
  CacheConfig l2{64 * 1024, 64, 8};
  DramConfig dram;
  McScheduler scheduler = McScheduler::kInOrder;
  /// How deep into the queue FR-FCFS searches for a row hit.
  int sched_window = 16;
  Cycle l2_latency = 90;        ///< MC-side read service (Table 2 derived)
  Cycle l2_write_latency = 20;  ///< ack latency for writes
  int request_queue_capacity = 32;
  int max_inflight = 32;  ///< transactions being serviced concurrently
  PacketSizes sizes;
};

struct McStats {
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t l2_read_hits = 0;
  std::uint64_t l2_read_misses = 0;
  std::uint64_t dram_writebacks = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t stall_cycles = 0;  ///< cycles blocked on reply injection
  std::uint64_t reordered = 0;     ///< requests promoted by FR-FCFS
  RunningStats service_latency;    ///< request accepted -> reply injected
};

/// One memory controller endpoint.
class MemoryController : public PacketSink {
 public:
  MemoryController(NodeId node, const McConfig& config, Fabric* fabric);

  NodeId node() const { return node_; }

  /// Receives request packets from the network (false = queue full).
  bool Accept(const Packet& packet, Cycle now) override;

  /// Services the request queue and injects ready replies.
  void Tick(Cycle now);

  const McStats& stats() const { return stats_; }
  const CacheStats& l2_stats() const { return l2_.stats(); }
  const DramStats& dram_stats() const { return dram_.stats(); }
  void ResetStats();

  /// Requests accepted but not yet answered (for drain checks).
  std::size_t PendingTransactions() const {
    return queue_.size() + inflight_.size();
  }

  /// Snapshot support (DESIGN.md §10): L2, DRAM, request queue, in-flight
  /// completions (heap array verbatim — completions tie on ready_at, so
  /// rebuilding the heap could reorder equal keys and break bit-identical
  /// resume) and stats.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  struct Completion {
    Cycle ready_at = 0;
    Packet reply;
    Cycle accepted_at = 0;

    bool operator>(const Completion& other) const {
      return ready_at > other.ready_at;
    }

    template <class Self, class Ar>
    static void Fields(Self& self, Ar& ar) {
      Io(ar, self.ready_at);
      Io(ar, self.reply);
      Io(ar, self.accepted_at);
    }
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.l2_);
    Io(ar, self.dram_);
    IoSeq(ar, self.queue_);
    IoSeq(ar, PriorityQueueAccess<decltype(self.inflight_)>::Container(
                  self.inflight_));
    Io(ar, self.stats_.read_requests);
    Io(ar, self.stats_.write_requests);
    Io(ar, self.stats_.l2_read_hits);
    Io(ar, self.stats_.l2_read_misses);
    Io(ar, self.stats_.dram_writebacks);
    Io(ar, self.stats_.replies_sent);
    Io(ar, self.stats_.stall_cycles);
    Io(ar, self.stats_.reordered);
    Io(ar, self.stats_.service_latency);
  }

  void StartOneRequest(Cycle now);
  void InjectReadyReplies(Cycle now);

  /// Index of the queued request FR-FCFS serves next (0 when in-order or
  /// no better candidate). Never reorders across a same-line conflict.
  std::size_t PickQueueIndex() const;

  NodeId node_;
  McConfig config_;
  Fabric* fabric_;
  SetAssocCache l2_;
  DramModel dram_;

  std::deque<Packet> queue_;  ///< accepted, not yet serviced
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      inflight_;

  McStats stats_;
};

}  // namespace gnoc
