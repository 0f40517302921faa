// Streaming-multiprocessor (SM) core model.
//
// Each SM runs `warps_per_sm` warps under a greedy-then-oldest (GTO)
// scheduler (Table 2). One warp instruction issues per cycle. Memory
// behaviour is driven by a WorkloadProfile:
//
//   * loads that miss the (profile-modelled) L1 send a 1-flit read request
//     to the MC owning the address and block the warp until the 5-flit read
//     reply returns (an MSHR bounds outstanding misses);
//   * stores that produce traffic (write misses / dirty write-backs of the
//     write-back L1) send a long write request without blocking the warp,
//     bounded by an outstanding-write limit, and are acknowledged by a
//     1-flit write reply.
//
// IPC is the number of issued warp instructions per cycle; the paper's
// figures report IPC normalized to a baseline configuration.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <memory>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "gpgpu/cache.hpp"
#include "gpgpu/workload.hpp"
#include "noc/fabric.hpp"
#include "noc/packet.hpp"

namespace gnoc {

/// SM microarchitecture parameters (independent of the workload).
struct SmConfig {
  int warps_per_sm = 32;
  int mshr_entries = 32;          ///< max outstanding read misses
  int max_outstanding_writes = 16;
  std::uint32_t line_bytes = 64;
  PacketSizes sizes;
  /// Model the L1 data cache structurally (Table 2: 16KB, 32 sets, 4-way
  /// LRU, write-back) instead of with the profile's probabilistic miss
  /// rates. Hit/miss then depend on the actual address stream, and write
  /// traffic comes from real dirty evictions.
  bool use_real_l1 = false;
  CacheConfig l1{16 * 1024, 64, 4};
};

/// Per-SM counters.
struct SmStats {
  std::uint64_t instructions = 0;     ///< issued warp instructions
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_misses = 0;        ///< read requests sent
  std::uint64_t write_requests = 0;
  std::uint64_t issue_stalls = 0;     ///< cycles a ready warp could not issue
  std::uint64_t no_ready_warp = 0;    ///< cycles every warp was blocked
  RunningStats read_latency;          ///< request->reply round trips
};

/// One SM. The owning GpuSystem wires it to the Network and calls Tick once
/// per cycle; replies are delivered through the PacketSink interface.
class StreamingMultiprocessor : public PacketSink {
 public:
  StreamingMultiprocessor(NodeId node, const SmConfig& config,
                          const WorkloadProfile& profile, Fabric* fabric,
                          int num_mcs, Rng rng);

  NodeId node() const { return node_; }

  /// Issues at most one warp instruction.
  void Tick(Cycle now);

  /// Receives read replies and write acknowledgements.
  bool Accept(const Packet& packet, Cycle now) override;

  const SmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SmStats{}; }

  /// Outstanding read misses (MSHR occupancy), for tests.
  int OutstandingReads() const { return outstanding_reads_; }
  int OutstandingWrites() const { return outstanding_writes_; }

  /// The structural L1 (nullptr in probabilistic mode).
  const SetAssocCache* l1() const { return l1_.get(); }

  /// Number of warps currently able to issue.
  int ReadyWarps() const;

  /// Snapshot support (DESIGN.md §10): warps, RNG stream, L1 contents,
  /// outstanding transactions and stats. The fabric pointer and MC node
  /// list are reconstructed by the owning GpuSystem.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  /// What the warp's next instruction is.
  enum class InsnKind : std::uint8_t { kAlu, kLoadHit, kLoadMiss, kStoreLocal,
                                       kStoreTraffic };

  struct Warp {
    bool blocked = false;        ///< waiting for read replies
    InsnKind next = InsnKind::kAlu;
    std::uint64_t next_addr = 0;
    std::uint64_t cursor = 0;    ///< current address stream position
    int burst_remaining = 0;     ///< divergent-load transactions still to send
    int pending_replies = 0;     ///< outstanding replies of the current load
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.rng_);
    IoCount(ar, self.warps_.size(), "SM warp");
    for (auto& w : self.warps_) {
      Io(ar, w.blocked);
      Io(ar, w.next);
      Io(ar, w.next_addr);
      Io(ar, w.cursor);
      Io(ar, w.burst_remaining);
      Io(ar, w.pending_replies);
    }
    IoPresence(ar, self.l1_, "SM L1");
    Io(ar, self.current_warp_);
    Io(ar, self.outstanding_reads_);
    Io(ar, self.outstanding_writes_);
    IoSortedMap(ar, self.transactions_);
    Io(ar, self.next_tx_);
    Io(ar, self.stats_.instructions);
    Io(ar, self.stats_.loads);
    Io(ar, self.stats_.stores);
    Io(ar, self.stats_.l1_misses);
    Io(ar, self.stats_.write_requests);
    Io(ar, self.stats_.issue_stalls);
    Io(ar, self.stats_.no_ready_warp);
    Io(ar, self.stats_.read_latency);
  }

  /// Rolls the next instruction of warp `w` from the profile.
  void GenerateNextInsn(int w);

  /// Generates the next memory address for warp `w`.
  std::uint64_t NextAddress(int w);

  /// GTO scheduling: keep issuing the current warp; when it blocks, switch
  /// to the oldest (lowest-index) ready warp.
  int PickWarp() const;

  /// Sends one read-request transaction of warp `w`'s divergent load.
  /// Returns false on a structural stall (MSHR/injection full).
  bool IssueReadTransaction(int w, Cycle now);

  /// The MC node owning `addr` (line-interleaved across MCs).
  NodeId McOf(std::uint64_t addr) const;

  NodeId node_;
  SmConfig config_;
  WorkloadProfile profile_;
  Fabric* fabric_;
  std::vector<NodeId> mc_nodes_;  ///< set by the GpuSystem
  Rng rng_;

  std::vector<Warp> warps_;
  std::unique_ptr<SetAssocCache> l1_;  ///< present when use_real_l1
  int current_warp_ = 0;
  int outstanding_reads_ = 0;
  int outstanding_writes_ = 0;

  /// txid -> (warp index, issue cycle); warp index -1 marks writes.
  struct TxInfo {
    int warp = -1;
    Cycle issued = 0;

    template <class Self, class Ar>
    static void Fields(Self& self, Ar& ar) {
      Io(ar, self.warp);
      Io(ar, self.issued);
    }
  };
  std::unordered_map<std::uint64_t, TxInfo> transactions_;
  std::uint64_t next_tx_ = 1;

  SmStats stats_;

 public:
  /// Wires the MC node list (called by the GpuSystem after placement).
  void SetMcNodes(std::vector<NodeId> mcs) { mc_nodes_ = std::move(mcs); }
};

}  // namespace gnoc
