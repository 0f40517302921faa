// Synthetic traffic generation for NoC-only experiments and tests.
//
// Two families:
//  * Open-loop pattern generators (uniform random, transpose, bit-reverse,
//    hotspot): classic BookSim-style latency/throughput characterization.
//  * A closed-loop request/reply echo: cores inject requests towards MCs
//    with Bernoulli arrivals; an EchoSink at each MC answers every request
//    with a reply after a fixed service delay. This reproduces the paper's
//    many-to-few / few-to-many pattern without the full GPGPU model.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "noc/packet.hpp"
#include "noc/placement.hpp"

namespace gnoc {

/// Destination-selection patterns for open-loop traffic.
enum class TrafficPattern : std::uint8_t {
  kUniformRandom = 0,
  kTranspose = 1,   ///< (x,y) -> (y,x)
  kBitReverse = 2,  ///< node id bit-reversed
  kHotspot = 3,     ///< a fixed fraction of traffic targets few hotspots
  kTornado = 4,     ///< (x,y) -> (x + ceil(W/2) - 1 mod W, y): worst case DOR
  kNeighbor = 5,    ///< (x,y) -> (x+1 mod W, y): best case locality
  kShuffle = 6,     ///< node id rotated left by one bit
};

/// Parses "uniform"/"transpose"/"bitrev"/"hotspot"/"tornado"/"neighbor"/
/// "shuffle" (case-insensitive). Throws std::invalid_argument on unknown
/// names.
TrafficPattern ParseTrafficPattern(const std::string& name);

const char* TrafficPatternName(TrafficPattern p);

/// Destination of `src` under a *deterministic* pattern on a width x height
/// grid (row-major node ids). Transpose is the matrix transpose
/// `(x,y) -> x*height + y`, bijective for any dimensions. Bit-reverse uses
/// its classic bit-twiddling form when the node count is a power of two and
/// the mirror `n-1-src` otherwise; shuffle is the riffle permutation
/// (bit rotate-left for power-of-two n; otherwise doubling with the fixed
/// endpoints rerouted through each other, so it has no fixed points).
/// Every pattern is a bijection of the id space. The result is
/// always in range and never equals `src` (self-sends map to the next
/// node). Throws std::invalid_argument for randomized patterns (uniform,
/// hotspot).
NodeId DeterministicDestination(TrafficPattern pattern, NodeId src, int width,
                                int height);

/// Configuration for the open-loop generator.
struct OpenLoopConfig {
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  double injection_rate = 0.1;  ///< flits per node per cycle
  int packet_size = 5;          ///< flits per packet
  TrafficClass cls = TrafficClass::kReply;  ///< class label for the packets
  std::vector<NodeId> hotspots;             ///< used by kHotspot
  double hotspot_fraction = 0.5;
  std::uint64_t seed = 1;
};

/// Open-loop traffic source covering every node of a network. All generated
/// packets are single-class; destinations follow the configured pattern.
/// Packets are consumed by a sink that always accepts.
class OpenLoopTraffic {
 public:
  OpenLoopTraffic(Network& network, const OpenLoopConfig& config);
  ~OpenLoopTraffic();

  OpenLoopTraffic(const OpenLoopTraffic&) = delete;
  OpenLoopTraffic& operator=(const OpenLoopTraffic&) = delete;

  /// Generates this cycle's packets (call once per cycle, before
  /// network.Tick()). Packets that cannot be queued due to a full injection
  /// queue are counted as `dropped()` (open-loop semantics).
  void Tick();

  std::uint64_t generated() const { return generated_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  NodeId PickDestination(NodeId src);

  class AlwaysAcceptSink;

  Network& network_;
  OpenLoopConfig config_;
  std::vector<Rng> rngs_;  // one per node
  std::unique_ptr<AlwaysAcceptSink> sink_;
  std::uint64_t generated_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Closed-loop request/reply echo over a tile plan: cores generate read
/// requests to uniformly chosen MCs; each MC echoes a read reply after
/// `service_latency` cycles, at most one reply dequeue per cycle.
struct EchoConfig {
  double request_rate = 0.05;  ///< request packets per core per cycle
  Cycle service_latency = 20;
  PacketSizes sizes;
  std::uint64_t seed = 7;
  int mc_queue_capacity = 64;  ///< requests an MC may hold before stalling
};

/// Runs the request/reply echo workload; owns the MC-side echo sinks and the
/// core-side reply sinks.
class RequestReplyEcho {
 public:
  RequestReplyEcho(Network& network, const TilePlan& plan,
                   const EchoConfig& config);
  ~RequestReplyEcho();

  RequestReplyEcho(const RequestReplyEcho&) = delete;
  RequestReplyEcho& operator=(const RequestReplyEcho&) = delete;

  /// Generates requests and services MC queues for one cycle (call before
  /// network.Tick()).
  void Tick();

  /// Stops request generation; Tick() keeps servicing MC queues so
  /// outstanding transactions can complete.
  void StopGeneration() { generating_ = false; }

  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t replies_received() const { return replies_received_; }

  /// Round-trip latency (request created -> reply delivered).
  const RunningStats& round_trip() const { return round_trip_; }

 private:
  class McEcho;
  class CoreSink;

  Network& network_;
  const TilePlan& plan_;
  EchoConfig config_;
  std::vector<Rng> rngs_;
  std::vector<std::unique_ptr<McEcho>> mc_sinks_;
  std::unique_ptr<CoreSink> core_sink_;
  bool generating_ = true;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t replies_received_ = 0;
  RunningStats round_trip_;
  std::unordered_map<std::uint64_t, Cycle> outstanding_;  // payload -> created
  std::uint64_t next_token_ = 1;

  friend class McEcho;
  friend class CoreSink;
};

}  // namespace gnoc
