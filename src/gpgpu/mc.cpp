#include "gpgpu/mc.hpp"

#include <algorithm>
#include <cassert>

#include "common/enum_registry.hpp"
#include "common/serialize.hpp"

namespace gnoc {

namespace {

const EnumRegistry<McScheduler>& McSchedulerRegistry() {
  static const EnumRegistry<McScheduler> kRegistry{
      "mc_scheduler",
      {
          {"in-order", McScheduler::kInOrder},
          {"fr-fcfs", McScheduler::kFrFcfs},
          {"inorder", McScheduler::kInOrder},
          {"fifo", McScheduler::kInOrder},
          {"frfcfs", McScheduler::kFrFcfs},
      }};
  return kRegistry;
}

}  // namespace

const char* McSchedulerName(McScheduler s) {
  return McSchedulerRegistry().Name(s);
}

McScheduler ParseMcScheduler(const std::string& name) {
  return McSchedulerRegistry().Parse(name);
}

MemoryController::MemoryController(NodeId node, const McConfig& config,
                                   Fabric* fabric)
    : node_(node),
      config_(config),
      fabric_(fabric),
      l2_(config.l2),
      dram_(config.dram) {
  assert(fabric_ != nullptr);
}

bool MemoryController::Accept(const Packet& packet, Cycle now) {
  (void)now;
  assert(packet.cls() == TrafficClass::kRequest);
  if (queue_.size() >=
      static_cast<std::size_t>(config_.request_queue_capacity)) {
    return false;  // backpressure into the network
  }
  queue_.push_back(packet);
  return true;
}

std::size_t MemoryController::PickQueueIndex() const {
  if (config_.scheduler == McScheduler::kInOrder || queue_.size() < 2) {
    return 0;
  }
  // FR-FCFS-lite: promote the oldest request whose address hits the open
  // DRAM row, searching a bounded window. A request never overtakes an
  // older request to the same cache line (preserves per-line ordering).
  const std::size_t window =
      std::min(queue_.size(), static_cast<std::size_t>(config_.sched_window));
  const std::uint64_t line_bytes = config_.l2.line_bytes;
  for (std::size_t i = 0; i < window; ++i) {
    const Packet& candidate = queue_[i];
    // Only L2 misses reach DRAM; promoting a would-be L2 hit is harmless,
    // so the row-hit check is the sole criterion.
    if (!dram_.WouldRowHit(candidate.addr)) continue;
    bool conflict = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (queue_[j].addr / line_bytes == candidate.addr / line_bytes) {
        conflict = true;
        break;
      }
    }
    if (!conflict) return i;
  }
  return 0;
}

void MemoryController::StartOneRequest(Cycle now) {
  if (queue_.empty()) return;
  if (inflight_.size() >= static_cast<std::size_t>(config_.max_inflight)) {
    return;
  }
  const std::size_t pick = PickQueueIndex();
  const Packet request = queue_[pick];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  if (pick != 0) ++stats_.reordered;

  Completion completion;
  completion.accepted_at = now;
  Packet& reply = completion.reply;
  reply.src = node_;
  reply.dst = request.src;
  reply.addr = request.addr;
  reply.payload = request.payload;

  if (request.type == PacketType::kReadRequest) {
    ++stats_.read_requests;
    reply.type = PacketType::kReadReply;
    reply.num_flits = config_.sizes.read_reply;
    const auto access = l2_.Access(request.addr, /*is_write=*/false);
    if (access.hit) {
      ++stats_.l2_read_hits;
      completion.ready_at = now + config_.l2_latency;
    } else {
      ++stats_.l2_read_misses;
      const Cycle dram_done =
          dram_.Schedule(request.addr, /*is_write=*/false, now);
      completion.ready_at = dram_done + config_.l2_latency;
    }
    if (access.writeback) {
      ++stats_.dram_writebacks;
      dram_.Schedule(access.writeback_addr, /*is_write=*/true, now);
    }
  } else {
    assert(request.type == PacketType::kWriteRequest);
    ++stats_.write_requests;
    reply.type = PacketType::kWriteReply;
    reply.num_flits = config_.sizes.write_reply;
    const auto access = l2_.Access(request.addr, /*is_write=*/true);
    completion.ready_at = now + config_.l2_write_latency;
    if (access.writeback) {
      ++stats_.dram_writebacks;
      dram_.Schedule(access.writeback_addr, /*is_write=*/true, now);
    }
  }
  inflight_.push(completion);
}

void MemoryController::InjectReadyReplies(Cycle now) {
  // One reply injection per cycle; a full NIC queue stalls the MC, which is
  // the protocol backpressure path.
  if (inflight_.empty()) return;
  const Completion& top = inflight_.top();
  if (top.ready_at > now) return;
  if (!fabric_->CanInject(node_, TrafficClass::kReply)) {
    ++stats_.stall_cycles;
    return;
  }
  const bool ok = fabric_->Inject(top.reply);
  assert(ok);
  (void)ok;
  ++stats_.replies_sent;
  stats_.service_latency.Add(static_cast<double>(now - top.accepted_at));
  inflight_.pop();
}

void MemoryController::Tick(Cycle now) {
  StartOneRequest(now);
  InjectReadyReplies(now);
}

void MemoryController::ResetStats() {
  stats_ = McStats{};
  l2_.ResetStats();
  dram_.ResetStats();
}

void MemoryController::Save(Serializer& s) const { Fields(*this, s); }
void MemoryController::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
