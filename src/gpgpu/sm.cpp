#include "gpgpu/sm.hpp"

#include <algorithm>
#include <cassert>

#include "common/serialize.hpp"

namespace gnoc {

StreamingMultiprocessor::StreamingMultiprocessor(NodeId node,
                                                 const SmConfig& config,
                                                 const WorkloadProfile& profile,
                                                 Fabric* fabric, int num_mcs,
                                                 Rng rng)
    : node_(node),
      config_(config),
      profile_(profile),
      fabric_(fabric),
      rng_(rng),
      warps_(static_cast<std::size_t>(config.warps_per_sm)) {
  assert(fabric_ != nullptr);
  if (config_.use_real_l1) {
    l1_ = std::make_unique<SetAssocCache>(config_.l1);
  }
  assert(config.warps_per_sm >= 1);
  (void)num_mcs;
  // Each warp starts at a distinct position inside the SM's working set so
  // streams do not trivially coalesce.
  const std::uint64_t ws_bytes =
      static_cast<std::uint64_t>(profile_.working_set_lines) *
      config_.line_bytes;
  const std::uint64_t sm_base =
      static_cast<std::uint64_t>(node_) * (ws_bytes == 0 ? 1 : ws_bytes);
  for (std::size_t w = 0; w < warps_.size(); ++w) {
    warps_[w].cursor =
        sm_base + (ws_bytes / warps_.size()) * w;
    GenerateNextInsn(static_cast<int>(w));
  }
}

std::uint64_t StreamingMultiprocessor::NextAddress(int w) {
  Warp& warp = warps_[static_cast<std::size_t>(w)];
  const std::uint64_t ws_bytes =
      static_cast<std::uint64_t>(profile_.working_set_lines) *
      config_.line_bytes;
  const std::uint64_t sm_base =
      static_cast<std::uint64_t>(node_) * (ws_bytes == 0 ? 1 : ws_bytes);
  if (ws_bytes == 0) return sm_base;
  if (rng_.Bernoulli(profile_.spatial_locality)) {
    warp.cursor += config_.line_bytes;  // stream to the next line
    if (warp.cursor >= sm_base + ws_bytes) warp.cursor = sm_base;
  } else {
    warp.cursor =
        sm_base + rng_.NextBounded(profile_.working_set_lines) *
                      static_cast<std::uint64_t>(config_.line_bytes);
  }
  return warp.cursor;
}

void StreamingMultiprocessor::GenerateNextInsn(int w) {
  Warp& warp = warps_[static_cast<std::size_t>(w)];
  if (!rng_.Bernoulli(profile_.mem_ratio)) {
    warp.next = InsnKind::kAlu;
    return;
  }
  warp.next_addr = NextAddress(w);
  const bool is_read = rng_.Bernoulli(profile_.read_fraction);
  if (l1_ != nullptr) {
    // Structural L1: hit/miss decided by the cache itself. A store that
    // evicts a dirty line produces the write-back traffic at issue time
    // (see Tick), so here only the hit/miss class is decided. Note: the
    // lookup mutates LRU state at decision time, one instruction ahead of
    // issue — an acceptable approximation of an in-order L1 pipeline.
    const auto access = l1_->Access(warp.next_addr, !is_read);
    if (is_read) {
      warp.next = access.hit ? InsnKind::kLoadHit : InsnKind::kLoadMiss;
    } else {
      warp.next =
          access.writeback ? InsnKind::kStoreTraffic : InsnKind::kStoreLocal;
      warp.next_addr = access.writeback ? access.writeback_addr
                                        : warp.next_addr;
    }
    return;
  }
  if (is_read) {
    warp.next = rng_.Bernoulli(profile_.l1_miss_rate) ? InsnKind::kLoadMiss
                                                      : InsnKind::kLoadHit;
  } else {
    warp.next = rng_.Bernoulli(profile_.write_traffic_rate)
                    ? InsnKind::kStoreTraffic
                    : InsnKind::kStoreLocal;
  }
}

int StreamingMultiprocessor::PickWarp() const {
  // A warp mid-way through a divergent load keeps the issue slot (its
  // transactions serialize), matching GTO's greedy behaviour.
  if (warps_[static_cast<std::size_t>(current_warp_)].burst_remaining > 0) {
    return current_warp_;
  }
  // Greedy: stay on the current warp while it can issue.
  if (!warps_[static_cast<std::size_t>(current_warp_)].blocked) {
    return current_warp_;
  }
  // Then oldest: the lowest-index ready warp (static age order).
  for (std::size_t w = 0; w < warps_.size(); ++w) {
    if (!warps_[w].blocked) return static_cast<int>(w);
  }
  return -1;
}

bool StreamingMultiprocessor::IssueReadTransaction(int w, Cycle now) {
  Warp& warp = warps_[static_cast<std::size_t>(w)];
  if (outstanding_reads_ >= config_.mshr_entries ||
      !fabric_->CanInject(node_, TrafficClass::kRequest)) {
    ++stats_.issue_stalls;
    return false;
  }
  Packet req;
  req.type = PacketType::kReadRequest;
  req.src = node_;
  req.dst = McOf(warp.next_addr);
  req.num_flits = config_.sizes.read_request;
  req.addr = warp.next_addr;
  req.payload = next_tx_++;
  transactions_[req.payload] = TxInfo{w, now};
  const bool ok = fabric_->Inject(req);
  assert(ok);
  (void)ok;
  ++outstanding_reads_;
  ++stats_.l1_misses;
  ++warp.pending_replies;
  --warp.burst_remaining;
  if (warp.burst_remaining > 0) {
    // The next transaction of this divergent load targets another line.
    warp.next_addr = NextAddress(w);
  } else {
    warp.blocked = true;  // all transactions sent: wait for every reply
  }
  return true;
}

NodeId StreamingMultiprocessor::McOf(std::uint64_t addr) const {
  assert(!mc_nodes_.empty() && "SetMcNodes() must be called before Tick()");
  const std::uint64_t line = addr / config_.line_bytes;
  return mc_nodes_[static_cast<std::size_t>(line % mc_nodes_.size())];
}

void StreamingMultiprocessor::Tick(Cycle now) {
  const int w = PickWarp();
  if (w < 0) {
    ++stats_.no_ready_warp;
    return;
  }
  current_warp_ = w;
  Warp& warp = warps_[static_cast<std::size_t>(w)];

  switch (warp.next) {
    case InsnKind::kAlu:
      ++stats_.instructions;
      GenerateNextInsn(w);
      return;

    case InsnKind::kLoadHit:
      ++stats_.instructions;
      ++stats_.loads;
      GenerateNextInsn(w);
      return;

    case InsnKind::kLoadMiss: {
      // A fresh load only when no burst is in progress; a warp stalled
      // mid-burst (even with every issued reply already back) continues.
      const bool new_instruction =
          warp.burst_remaining == 0 && warp.pending_replies == 0;
      if (new_instruction) {
        warp.burst_remaining = std::max(1, profile_.coalescing_degree);
      }
      if (!IssueReadTransaction(w, now)) {
        return;  // structural hazard: retry next cycle
      }
      if (new_instruction) {
        ++stats_.instructions;
        ++stats_.loads;
      }
      if (warp.blocked) {
        // Last transaction sent: the next instruction is decided now so the
        // warp resumes immediately once all replies arrive.
        GenerateNextInsn(w);
      }
      return;
    }

    case InsnKind::kStoreLocal:
      ++stats_.instructions;
      ++stats_.stores;
      GenerateNextInsn(w);
      return;

    case InsnKind::kStoreTraffic: {
      if (outstanding_writes_ >= config_.max_outstanding_writes ||
          !fabric_->CanInject(node_, TrafficClass::kRequest)) {
        ++stats_.issue_stalls;
        return;
      }
      Packet req;
      req.type = PacketType::kWriteRequest;
      req.src = node_;
      req.dst = McOf(warp.next_addr);
      req.num_flits = profile_.write_request_flits;
      req.addr = warp.next_addr;
      req.payload = next_tx_++;
      transactions_[req.payload] = TxInfo{-1, now};
      const bool ok = fabric_->Inject(req);
      assert(ok);
      (void)ok;
      ++outstanding_writes_;
      ++stats_.instructions;
      ++stats_.stores;
      ++stats_.write_requests;
      GenerateNextInsn(w);  // stores do not block the warp
      return;
    }
  }
}

bool StreamingMultiprocessor::Accept(const Packet& packet, Cycle now) {
  assert(packet.cls() == TrafficClass::kReply);
  auto it = transactions_.find(packet.payload);
  assert(it != transactions_.end() && "reply for unknown transaction");
  const TxInfo info = it->second;
  transactions_.erase(it);

  if (packet.type == PacketType::kReadReply) {
    assert(info.warp >= 0);
    Warp& warp = warps_[static_cast<std::size_t>(info.warp)];
    assert(warp.pending_replies > 0);
    --warp.pending_replies;
    if (warp.pending_replies == 0 && warp.burst_remaining == 0) {
      warp.blocked = false;  // the whole divergent load completed
    }
    --outstanding_reads_;
    stats_.read_latency.Add(static_cast<double>(now - info.issued));
  } else {
    assert(packet.type == PacketType::kWriteReply);
    --outstanding_writes_;
  }
  return true;  // cores always sink replies
}

int StreamingMultiprocessor::ReadyWarps() const {
  int ready = 0;
  for (const Warp& w : warps_) {
    if (!w.blocked) ++ready;
  }
  return ready;
}

void StreamingMultiprocessor::Save(Serializer& s) const { Fields(*this, s); }
void StreamingMultiprocessor::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
