#include "noc/soa_core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"

namespace gnoc {

SoaCore::SoaCore(Network& net) : net_(net) {
  const int num_vcs = net_.config_.num_vcs;
  total_vcs_ = net_.topo_.radix() * num_vcs;
  dynamic_policy_ = net_.config_.vc_policy == VcPolicyKind::kDynamic;

  routers_.resize(net_.routers_.size());
  front_ready_.assign(routers_.size() * static_cast<std::size_t>(total_vcs_),
                      kNeverCycle);
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    routers_[i].router = net_.routers_[i].get();
    routers_[i].vc_base =
        static_cast<std::uint32_t>(i * static_cast<std::size_t>(total_vcs_));
  }

  flit_due_.assign(net_.flit_links_.size(), kNeverCycle);
  flit_dst_base_.resize(net_.flit_links_.size());
  flit_dst_router_.resize(net_.flit_links_.size());
  for (std::size_t i = 0; i < net_.flit_links_.size(); ++i) {
    const Network::FlitLink& link = *net_.flit_links_[i];
    // Router node ids equal their index in routers_ (Network construction).
    const auto dst = static_cast<std::uint32_t>(link.dst_router->node());
    flit_dst_router_[i] = dst;
    flit_dst_base_[i] = routers_[dst].vc_base +
                        static_cast<std::uint32_t>(PortIndex(link.dst_port) *
                                                   num_vcs);
    net_.flit_links_[i]->channel.SetWakeHook({&SoaCore::WakeFlitLink, this, i});
  }

  credit_due_.assign(net_.credit_links_.size(), kNeverCycle);
  credit_nic_.resize(net_.credit_links_.size());
  for (std::size_t i = 0; i < net_.credit_links_.size(); ++i) {
    const Network::CreditLink& link = *net_.credit_links_[i];
    // NIC tile ids equal their index in nics_ (Network construction).
    credit_nic_[i] = link.dst_router != nullptr
                         ? kRouterBound
                         : static_cast<std::uint32_t>(link.dst_nic->node());
    net_.credit_links_[i]->channel.SetWakeHook(
        {&SoaCore::WakeCreditLink, this, i});
  }
  nic_due_.assign(net_.nics_.size(), kNeverCycle);

  flit_live_.Reset(flit_due_.size());
  credit_live_.Reset(credit_due_.size());
  router_live_.Reset(routers_.size());
  nic_live_.Reset(nic_due_.size());

  RebuildFromObjects();
}

void SoaCore::RebuildFromObjects() {
  ClearLiveBits();  // then set exactly the live entries
  buffered_total_ = 0;
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    RouterRec& rec = routers_[r];
    const Router& rt = *rec.router;
    rec.buffered = 0;
    Cycle* ready = front_ready_.data() + rec.vc_base;
    for (int idx = 0; idx < total_vcs_; ++idx) {
      const VcBuffer& buf = rt.input_vcs_[static_cast<std::size_t>(idx)].buffer;
      ready[idx] = buf.empty() ? kNeverCycle : buf.Front().ready;
      rec.buffered += static_cast<std::uint32_t>(buf.size());
    }
    buffered_total_ += rec.buffered;
    if (RouterHasWork(r)) router_live_.Set(r);
  }
  flits_in_channels_ = 0;
  for (std::size_t i = 0; i < flit_due_.size(); ++i) {
    const FlitChannel& ch = net_.flit_links_[i]->channel;
    flit_due_[i] = ch.empty() ? kNeverCycle : ch.FrontDue();
    flits_in_channels_ += ch.size();
    if (flit_due_[i] != kNeverCycle) flit_live_.Set(i);
  }
  for (std::size_t i = 0; i < credit_due_.size(); ++i) {
    const CreditChannel& ch = net_.credit_links_[i]->channel;
    credit_due_[i] = (credit_nic_[i] != kRouterBound || ch.empty())
                         ? kNeverCycle
                         : ch.FrontDue();
    if (credit_due_[i] != kNeverCycle) credit_live_.Set(i);
  }
  for (std::size_t n = 0; n < nic_due_.size(); ++n) {
    nic_due_[n] = net_.nics_[n]->NextDue();
    if (nic_due_[n] != kNeverCycle) nic_live_.Set(n);
  }
}

bool SoaCore::RouterHasWork(std::size_t r) const {
  // No buffered flits and no uncommitted epoch counts means a Tick cannot
  // change state (recycle is an idempotent pure function of credit state
  // and is deferred safely; zero-count epoch updates never move
  // boundaries and are replayed by the catch-up loop). DESIGN.md §9.
  const RouterRec& rec = routers_[r];
  return rec.buffered != 0 || (dynamic_policy_ && rec.router->epoch_dirty_);
}

void SoaCore::AuditPlanes(Auditor& auditor, Cycle now) const {
  // A copy re-derived from the objects is the reference: the audit then
  // uses exactly the derivation the checkpoint boundary uses. The copy
  // installs no hooks (only the constructor does).
  SoaCore derived = *this;
  derived.RebuildFromObjects();
  const auto check = [&](const char* plane, std::size_t i, std::uint64_t got,
                         std::uint64_t want) {
    if (got == want) return;
    auditor.ReportViolation(
        AuditInvariant::kSchedulerCoverage, now,
        std::string("soa ") + plane + "[" + std::to_string(i) + "] is " +
            std::to_string(got) + " but the objects imply " +
            std::to_string(want));
  };
  for (std::size_t i = 0; i < front_ready_.size(); ++i) {
    check("front_ready", i, front_ready_[i], derived.front_ready_[i]);
  }
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    check("buffered", r, routers_[r].buffered, derived.routers_[r].buffered);
  }
  check("buffered_total", 0, buffered_total_, derived.buffered_total_);
  for (std::size_t i = 0; i < flit_due_.size(); ++i) {
    check("flit_due", i, flit_due_[i], derived.flit_due_[i]);
  }
  for (std::size_t i = 0; i < credit_due_.size(); ++i) {
    check("credit_due", i, credit_due_[i], derived.credit_due_[i]);
  }
  check("flits_in_channels", 0, flits_in_channels_,
        derived.flits_in_channels_);
  for (std::size_t n = 0; n < nic_due_.size(); ++n) {
    check("nic_due", n, nic_due_[n], derived.nic_due_[n]);
  }
  // A live entry whose bit is clear would never be visited; the rebuilt
  // copy's bits are exactly the live entries. (A stale set bit only costs
  // one visit and is not reported.)
  const auto check_bits = [&](const char* bitmap, const LiveBits& got,
                              const LiveBits& live, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (live.Test(i) && !got.Test(i)) check(bitmap, i, 0, 1);
    }
  };
  check_bits("flit_live", flit_live_, derived.flit_live_, flit_due_.size());
  check_bits("credit_live", credit_live_, derived.credit_live_,
             credit_due_.size());
  check_bits("router_live", router_live_, derived.router_live_,
             routers_.size());
  check_bits("nic_live", nic_live_, derived.nic_live_, nic_due_.size());
}

void SoaCore::ForceSleepAll() {
  std::fill(front_ready_.begin(), front_ready_.end(), kNeverCycle);
  std::fill(flit_due_.begin(), flit_due_.end(), kNeverCycle);
  std::fill(credit_due_.begin(), credit_due_.end(), kNeverCycle);
  std::fill(nic_due_.begin(), nic_due_.end(), kNeverCycle);
  for (RouterRec& rec : routers_) rec.buffered = 0;
  buffered_total_ = 0;
  flits_in_channels_ = 0;
  ClearLiveBits();
}

void SoaCore::ClearLiveBits() {
  for (LiveBits* bits : {&flit_live_, &credit_live_, &router_live_,
                         &nic_live_}) {
    bits->ClearAll();
  }
}

void SoaCore::WakeFlitLink(void* ctx, std::size_t index) {
  auto* soa = static_cast<SoaCore*>(ctx);
  // Pushes are FIFO with a fixed latency at a monotonic clock, so the front
  // item stays the earliest: FrontDue is correct whether or not this push
  // landed on an empty line.
  soa->flit_due_[index] = soa->net_.flit_links_[index]->channel.FrontDue();
  soa->flit_live_.Set(index);
  ++soa->flits_in_channels_;
}

void SoaCore::WakeCreditLink(void* ctx, std::size_t index) {
  auto* soa = static_cast<SoaCore*>(ctx);
  const Cycle due = soa->net_.credit_links_[index]->channel.FrontDue();
  const std::uint32_t tile = soa->credit_nic_[index];
  if (tile != kRouterBound) {
    // The NIC pops its own credits in its Tick: make it due by then.
    soa->nic_due_[tile] = std::min(soa->nic_due_[tile], due);
    soa->nic_live_.Set(tile);
    return;
  }
  soa->credit_due_[index] = due;
  soa->credit_live_.Set(index);
}

void SoaCore::DeliverFlitLinks(Cycle now) {
  flit_live_.ForEach([&](std::size_t i) {
    if (flit_due_[i] > now) return;
    ++steps_;
    Network::FlitLink& link = *net_.flit_links_[i];
    const std::uint32_t r = flit_dst_router_[i];
    RouterRec& rec = routers_[r];
    while (auto flit = link.channel.Pop(now)) {
      --flits_in_channels_;
      link.dst_router->AcceptFlit(link.dst_port, *flit, now);
      // AcceptFlit stamps ready = now + 1; when the flit landed in an empty
      // VC it is the new front.
      const std::uint32_t gi =
          flit_dst_base_[i] + static_cast<std::uint32_t>(flit->vc);
      if (front_ready_[gi] == kNeverCycle) front_ready_[gi] = now + 1;
      ++rec.buffered;
      ++buffered_total_;
    }
    router_live_.Set(r);
    if (link.channel.empty()) {
      flit_due_[i] = kNeverCycle;
      flit_live_.Clear(i);
    } else {
      flit_due_[i] = link.channel.FrontDue();
    }
  });
}

void SoaCore::DeliverCreditLinks(Cycle now) {
  // NIC-bound lines are pinned at kNeverCycle and never set in the bitmap.
  credit_live_.ForEach([&](std::size_t i) {
    if (credit_due_[i] > now) return;
    ++steps_;
    Network::CreditLink& link = *net_.credit_links_[i];
    while (auto credit = link.channel.Pop(now)) {
      link.dst_router->AcceptCredit(link.dst_port, credit->vc);
    }
    if (link.channel.empty()) {
      credit_due_[i] = kNeverCycle;
      credit_live_.Clear(i);
    } else {
      credit_due_[i] = link.channel.FrontDue();
    }
  });
}

void SoaCore::TickRouters(Cycle now) {
  router_live_.ForEach([&](std::size_t r) {
    ++steps_;
    TickRouter(r, now);
    if (!RouterHasWork(r)) router_live_.Clear(r);
  });
}

void SoaCore::TickNics(Cycle now) {
  nic_live_.ForEach([&](std::size_t tile) {
    if (nic_due_[tile] > now) return;
    ++steps_;
    net_.nics_[tile]->Tick(now);
    nic_due_[tile] = net_.nics_[tile]->NextDue();
    if (nic_due_[tile] == kNeverCycle) nic_live_.Clear(tile);
  });
}

void SoaCore::TickRouter(std::size_t r, Cycle now) {
  // The Router's own visit over the VCs the ready plane marks eligible;
  // this loop only keeps the planes current and wakes ejection targets.
  RouterRec& rec = routers_[r];
  Router& rt = *rec.router;
  Cycle* ready = front_ready_.data() + rec.vc_base;
  RequestMask eligible = 0;
  for (int idx = 0; idx < total_vcs_; ++idx) {
    if (ready[idx] <= now) eligible |= RequestBit(idx);
  }
  const Router::Moves moves = rt.Visit(eligible, now);
  // A moved VC popped one flit: its entry now reads the new front.
  for (RequestMask rest = moves.vcs; rest != 0; rest &= rest - 1) {
    const int idx = std::countr_zero(rest);
    const VcBuffer& buf = rt.input_vcs_[static_cast<std::size_t>(idx)].buffer;
    ready[idx] = buf.empty() ? kNeverCycle : buf.Front().ready;
  }
  const auto moved = static_cast<std::uint32_t>(std::popcount(moves.vcs));
  rec.buffered -= moved;
  buffered_total_ -= moved;
  for (RequestMask rest = moves.ejected; rest != 0; rest &= rest - 1) {
    const auto port = static_cast<std::size_t>(std::countr_zero(rest));
    WakeNic(static_cast<std::size_t>(rt.nics_[port]->node()));
  }
  rt.stats_.buffered_flit_cycles += rec.buffered;
}

bool SoaCore::NoFlitsInFlight() const {
  if (buffered_total_ != 0 || flits_in_channels_ != 0) return false;
  for (const auto& nic : net_.nics_) {
    if (!nic->Idle()) return false;
  }
  return true;
}

}  // namespace gnoc
