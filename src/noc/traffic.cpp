#include "noc/traffic.hpp"

#include <cassert>
#include <stdexcept>

#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

const EnumRegistry<TrafficPattern>& PatternRegistry() {
  static const EnumRegistry<TrafficPattern> kRegistry{
      "pattern",
      {
          {"uniform-random", TrafficPattern::kUniformRandom},
          {"transpose", TrafficPattern::kTranspose},
          {"bit-reverse", TrafficPattern::kBitReverse},
          {"hotspot", TrafficPattern::kHotspot},
          {"tornado", TrafficPattern::kTornado},
          {"neighbor", TrafficPattern::kNeighbor},
          {"shuffle", TrafficPattern::kShuffle},
          {"uniform", TrafficPattern::kUniformRandom},
          {"bitrev", TrafficPattern::kBitReverse},
          {"neighbour", TrafficPattern::kNeighbor},
      }};
  return kRegistry;
}

}  // namespace

const char* TrafficPatternName(TrafficPattern p) {
  return PatternRegistry().Name(p);
}

TrafficPattern ParseTrafficPattern(const std::string& name) {
  return PatternRegistry().Parse(name);
}

namespace {

bool IsPowerOfTwo(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

NodeId DeterministicDestination(TrafficPattern pattern, NodeId src, int width,
                                int height) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("mesh dimensions must be positive");
  }
  const int n = width * height;
  if (src < 0 || src >= n) {
    throw std::invalid_argument("source node out of range");
  }
  if (n < 2) {
    throw std::invalid_argument(
        "deterministic patterns need at least two nodes");
  }
  const int x = src % width;
  const int y = src / width;
  NodeId dst;
  switch (pattern) {
    case TrafficPattern::kTranspose: {
      // Matrix transpose of the w x h grid: (x,y) -> row x of the
      // transposed (h x w) grid, column y. Bijective for any dimensions
      // and reduces to the classic (x,y) -> (y,x) on square grids.
      dst = static_cast<NodeId>(x * height + y);
      break;
    }
    case TrafficPattern::kBitReverse: {
      if (IsPowerOfTwo(n)) {
        int bits = 0;
        while ((1 << bits) < n) ++bits;
        int reversed = 0;
        for (int b = 0; b < bits; ++b) {
          if (src & (1 << b)) reversed |= 1 << (bits - 1 - b);
        }
        dst = static_cast<NodeId>(reversed);
      } else {
        // Folding `reversed % n` biases low ids and can hit src; use the
        // mirror permutation instead (bijective, long average distance).
        dst = static_cast<NodeId>(n - 1 - src);
      }
      break;
    }
    case TrafficPattern::kTornado: {
      // Half-way around the ring minus one: adversarial for DOR meshes.
      const int shift = (width + 1) / 2 - 1;
      dst = static_cast<NodeId>(y * width +
                                (x + (shift == 0 ? 1 : shift)) % width);
      break;
    }
    case TrafficPattern::kNeighbor: {
      dst = static_cast<NodeId>(y * width + (x + 1) % width);
      break;
    }
    case TrafficPattern::kShuffle: {
      if (IsPowerOfTwo(n)) {
        int bits = 0;
        while ((1 << bits) < n) ++bits;
        dst = static_cast<NodeId>(((src << 1) | (src >> (bits - 1))) &
                                  ((1 << bits) - 1));
      } else {
        // Non-power-of-two: the riffle (doubling) permutation — the same
        // map the bit rotation computes, since rotate-left on b bits is
        // 2s mod (2^b - 1). Doubling is a bijection mod any odd modulus
        // (even n rifles the interior mod n-1), and rerouting the fixed
        // endpoints through each other keeps it bijective *and*
        // fixed-point-free, so every node receives exactly one flow. The
        // old half-rotation fallback was a different pattern entirely.
        const int modulus = n % 2 == 0 ? n - 1 : n;
        if (src == 0) {
          dst = static_cast<NodeId>(n % 2 == 0 ? n - 1 : n - 2);
        } else if (src == n - 1) {
          dst = 0;
        } else {
          dst = static_cast<NodeId>((2 * src) % modulus);
        }
      }
      break;
    }
    case TrafficPattern::kUniformRandom:
    case TrafficPattern::kHotspot:
      throw std::invalid_argument(
          std::string("not a deterministic pattern: ") +
          TrafficPatternName(pattern));
    default:
      throw std::invalid_argument("unknown traffic pattern");
  }
  // Fixed points (transpose diagonal, width-1 rings, ...) would self-send;
  // route them to the next node so every generated packet crosses the NoC.
  if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
  return dst;
}

// ---------------------------------------------------------------------------
// OpenLoopTraffic
// ---------------------------------------------------------------------------

class OpenLoopTraffic::AlwaysAcceptSink final : public PacketSink {
 public:
  bool Accept(const Packet&, Cycle) override { return true; }
};

OpenLoopTraffic::OpenLoopTraffic(Network& network,
                                 const OpenLoopConfig& config)
    : network_(network),
      config_(config),
      sink_(std::make_unique<AlwaysAcceptSink>()) {
  Rng master(config.seed);
  rngs_.reserve(static_cast<std::size_t>(network.num_nodes()));
  for (NodeId n = 0; n < network.num_nodes(); ++n) {
    rngs_.push_back(master.Fork());
    network_.SetSink(n, sink_.get());
  }
  if (config_.pattern == TrafficPattern::kHotspot) {
    assert(!config_.hotspots.empty() && "hotspot pattern needs hotspots");
  }
}

OpenLoopTraffic::~OpenLoopTraffic() = default;

NodeId OpenLoopTraffic::PickDestination(NodeId src) {
  Rng& rng = rngs_[static_cast<std::size_t>(src)];
  const int n = network_.num_nodes();
  switch (config_.pattern) {
    case TrafficPattern::kUniformRandom: {
      NodeId dst = src;
      while (dst == src) {
        dst = static_cast<NodeId>(rng.NextBounded(static_cast<std::uint64_t>(n)));
      }
      return dst;
    }
    case TrafficPattern::kTranspose:
    case TrafficPattern::kBitReverse:
    case TrafficPattern::kTornado:
    case TrafficPattern::kNeighbor:
    case TrafficPattern::kShuffle:
      return DeterministicDestination(config_.pattern, src, network_.width(),
                                      network_.height());
    case TrafficPattern::kHotspot: {
      if (rng.Bernoulli(config_.hotspot_fraction)) {
        const auto k = rng.NextBounded(config_.hotspots.size());
        NodeId dst = config_.hotspots[static_cast<std::size_t>(k)];
        if (dst != src) return dst;
      }
      NodeId dst = src;
      while (dst == src) {
        dst = static_cast<NodeId>(rng.NextBounded(static_cast<std::uint64_t>(n)));
      }
      return dst;
    }
  }
  return src == 0 ? 1 : 0;
}

void OpenLoopTraffic::Tick() {
  const double packet_rate =
      config_.injection_rate / static_cast<double>(config_.packet_size);
  for (NodeId n = 0; n < network_.num_nodes(); ++n) {
    if (!rngs_[static_cast<std::size_t>(n)].Bernoulli(packet_rate)) continue;
    ++generated_;
    Packet p;
    p.type = config_.cls == TrafficClass::kRequest ? PacketType::kReadRequest
                                                   : PacketType::kReadReply;
    p.src = n;
    p.dst = PickDestination(n);
    p.num_flits = config_.packet_size;
    if (!network_.Inject(p)) ++dropped_;
  }
}

// ---------------------------------------------------------------------------
// RequestReplyEcho
// ---------------------------------------------------------------------------

/// MC-side sink: queues requests and echoes one reply per cycle after the
/// configured service latency.
class RequestReplyEcho::McEcho final : public PacketSink {
 public:
  McEcho(RequestReplyEcho& parent, NodeId node)
      : parent_(parent), node_(node) {}

  bool Accept(const Packet& packet, Cycle now) override {
    assert(packet.cls() == TrafficClass::kRequest);
    if (queue_.size() >=
        static_cast<std::size_t>(parent_.config_.mc_queue_capacity)) {
      return false;  // MC saturated: backpressure into the network
    }
    queue_.push_back({packet, now + parent_.config_.service_latency});
    return true;
  }

  void Tick(Cycle now) {
    if (queue_.empty()) return;
    const auto& [request, ready_at] = queue_.front();
    if (ready_at > now) return;
    if (!parent_.network_.CanInject(node_, TrafficClass::kReply)) return;
    Packet reply;
    reply.type = request.type == PacketType::kReadRequest
                     ? PacketType::kReadReply
                     : PacketType::kWriteReply;
    reply.src = node_;
    reply.dst = request.src;
    reply.num_flits = parent_.config_.sizes.SizeOf(reply.type);
    reply.payload = request.payload;
    const bool ok = parent_.network_.Inject(reply);
    assert(ok);
    (void)ok;
    queue_.pop_front();
  }

 private:
  RequestReplyEcho& parent_;
  NodeId node_;
  std::deque<std::pair<Packet, Cycle>> queue_;
};

/// Core-side sink: records round-trip completion of replies.
class RequestReplyEcho::CoreSink final : public PacketSink {
 public:
  explicit CoreSink(RequestReplyEcho& parent) : parent_(parent) {}

  bool Accept(const Packet& packet, Cycle now) override {
    assert(packet.cls() == TrafficClass::kReply);
    auto it = parent_.outstanding_.find(packet.payload);
    assert(it != parent_.outstanding_.end());
    parent_.round_trip_.Add(static_cast<double>(now - it->second));
    parent_.outstanding_.erase(it);
    ++parent_.replies_received_;
    return true;
  }

 private:
  RequestReplyEcho& parent_;
};

RequestReplyEcho::RequestReplyEcho(Network& network, const TilePlan& plan,
                                   const EchoConfig& config)
    : network_(network),
      plan_(plan),
      config_(config),
      core_sink_(std::make_unique<CoreSink>(*this)) {
  Rng master(config.seed);
  rngs_.reserve(static_cast<std::size_t>(network.num_nodes()));
  for (NodeId n = 0; n < network.num_nodes(); ++n) rngs_.push_back(master.Fork());
  for (NodeId mc : plan.mc_nodes()) {
    mc_sinks_.push_back(std::make_unique<McEcho>(*this, mc));
    network_.SetSink(mc, mc_sinks_.back().get());
  }
  for (NodeId core : plan.core_nodes()) {
    network_.SetSink(core, core_sink_.get());
  }
}

RequestReplyEcho::~RequestReplyEcho() = default;

void RequestReplyEcho::Tick() {
  const Cycle now = network_.now();
  // Core request generation.
  if (generating_) {
    for (NodeId core : plan_.core_nodes()) {
      Rng& rng = rngs_[static_cast<std::size_t>(core)];
      if (!rng.Bernoulli(config_.request_rate)) continue;
      if (!network_.CanInject(core, TrafficClass::kRequest)) continue;
      const auto& mcs = plan_.mc_nodes();
      const NodeId mc =
          mcs[static_cast<std::size_t>(rng.NextBounded(mcs.size()))];
      Packet req;
      req.type = PacketType::kReadRequest;
      req.src = core;
      req.dst = mc;
      req.num_flits = config_.sizes.SizeOf(req.type);
      req.payload = next_token_++;
      outstanding_[req.payload] = now;
      const bool ok = network_.Inject(req);
      assert(ok);
      (void)ok;
      ++requests_sent_;
    }
  }
  // MC service.
  for (auto& mc : mc_sinks_) mc->Tick(now);
}

}  // namespace gnoc
