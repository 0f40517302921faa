#include "noc/soa_core.hpp"

#include <string>

#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"

namespace gnoc {

SoaCore::SoaCore(Network& net) : net_(net) {
  for (std::size_t i = 0; i < net_.flit_links_.size(); ++i) {
    net_.flit_links_[i]->channel.SetWakeHook({&SoaCore::WakeFlitLink, this, i});
  }
  for (std::size_t i = 0; i < net_.credit_links_.size(); ++i) {
    Network::CreditLink& link = *net_.credit_links_[i];
    // NIC tile ids equal their index in nics_ (Network construction).
    link.channel.SetWakeHook(
        link.dst_router != nullptr
            ? WakeHook{&SoaCore::WakeCreditLink, this, i}
            : WakeHook{&SoaCore::WakeNicCredit, this,
                       static_cast<std::size_t>(link.dst_nic->node())});
  }
  flit_live_.Reset(net_.flit_links_.size());
  credit_live_.Reset(net_.credit_links_.size());
  router_live_.Reset(net_.routers_.size());
  router_asleep_.Reset(net_.routers_.size());
  nic_live_.Reset(net_.nics_.size());
  nic_asleep_.Reset(net_.nics_.size());
  for (auto& router : net_.routers_) {
    if (router->EnableSleep(&clock_)) routers_sleep_ = true;
  }
  for (std::size_t n = 0; n < net_.nics_.size(); ++n) {
    net_.nics_[n]->EnableSleep(&clock_);
    const int router = net_.topo_.RouterOf(static_cast<NodeId>(n));
    nic_router_.push_back(static_cast<std::size_t>(router));
  }
  RebuildFromObjects();
}

void SoaCore::RebuildFromObjects() {
  clock_ = net_.now_;
  ForceSleepAll();  // then set exactly the live entries
  for (std::size_t i = 0; i < net_.flit_links_.size(); ++i) {
    if (!net_.flit_links_[i]->channel.empty()) flit_live_.Set(i);
  }
  for (std::size_t i = 0; i < net_.credit_links_.size(); ++i) {
    const Network::CreditLink& link = *net_.credit_links_[i];
    if (link.dst_router != nullptr && !link.channel.empty()) {
      credit_live_.Set(i);
    }
  }
  for (std::size_t r = 0; r < net_.routers_.size(); ++r) {
    if (net_.routers_[r]->HasWork()) router_live_.Set(r);
  }
  for (std::size_t n = 0; n < net_.nics_.size(); ++n) {
    if (net_.nics_[n]->NextDue() != kNeverCycle) nic_live_.Set(n);
  }
}

void SoaCore::AuditCoverage(Auditor& auditor, Cycle now) const {
  const auto report = [&](const std::string& detail) {
    auditor.ReportViolation(AuditInvariant::kSchedulerCoverage, now,
                            "soa " + detail);
  };
  const auto check_bit = [&](const char* kind, std::size_t i, bool live,
                             const LiveBits& bits) {
    if (live && !bits.Test(i)) {
      report(std::string(kind) + " " + std::to_string(i) +
             " has work but its bit is clear");
    }
  };
  for (std::size_t i = 0; i < net_.flit_links_.size(); ++i) {
    check_bit("flit link", i, !net_.flit_links_[i]->channel.empty(),
              flit_live_);
  }
  for (std::size_t i = 0; i < net_.credit_links_.size(); ++i) {
    const Network::CreditLink& link = *net_.credit_links_[i];
    check_bit("credit link", i,
              link.dst_router != nullptr && !link.channel.empty(),
              credit_live_);
  }
  const auto check_asleep = [&](const char* kind, std::size_t i,
                                bool ledger_asleep, const LiveBits& bits) {
    if (bits.Test(i) && !ledger_asleep) {
      report(std::string(kind) + " " + std::to_string(i) +
             " is awake but its asleep bit is set");
    }
  };
  for (std::size_t r = 0; r < net_.routers_.size(); ++r) {
    const Router& router = *net_.routers_[r];
    std::size_t held = 0;
    for (int p = 0; p < router.num_ports(); ++p) {
      for (VcId v = 0; v < router.config().num_vcs; ++v) {
        held += router.VcOccupancy(static_cast<Port>(p), v);
      }
    }
    const std::string mismatch = router.DerivedStateMismatch();
    if (!mismatch.empty()) {
      report("router " + std::to_string(r) + ": " + mismatch);
    }
    check_asleep("router", r, router.Asleep(), router_asleep_);
    check_bit("router", r,
              (held != 0 || router.HasWork()) && !router_asleep_.Test(r),
              router_live_);
  }
  for (std::size_t n = 0; n < net_.nics_.size(); ++n) {
    check_asleep("NIC", n, net_.nics_[n]->Asleep(), nic_asleep_);
    check_bit("NIC", n, NicDue(n) != kNeverCycle, nic_live_);
  }
}

void SoaCore::ForceSleepAll() {
  for (LiveBits* bits : {&flit_live_, &credit_live_, &router_live_,
                         &router_asleep_, &nic_live_, &nic_asleep_}) {
    bits->ClearAll();
  }
}

Cycle SoaCore::NicDue(std::size_t tile) const {
  const Nic& nic = *net_.nics_[tile];
  return nic_asleep_.Test(tile) ? nic.CreditDue() : nic.NextDue();
}

void SoaCore::WakeFlitLink(void* ctx, std::size_t index) {
  static_cast<SoaCore*>(ctx)->flit_live_.Set(index);
}

void SoaCore::WakeCreditLink(void* ctx, std::size_t index) {
  static_cast<SoaCore*>(ctx)->credit_live_.Set(index);
}

void SoaCore::WakeNicCredit(void* ctx, std::size_t index) {
  static_cast<SoaCore*>(ctx)->nic_live_.Set(index);
}

void SoaCore::DeliverFlitLinks(Cycle now) {
  flit_live_.ForEach([&](std::size_t i) {
    Network::FlitLink& link = *net_.flit_links_[i];
    if (!link.channel.Deliverable(now)) return;
    ++steps_;
    link.Deliver(now);
    // Router node ids equal their index in routers_ (Network construction).
    WakeRouter(static_cast<std::size_t>(link.dst_router->node()));
    if (link.channel.empty()) flit_live_.Clear(i);
  });
}

void SoaCore::DeliverCreditLinks(Cycle now) {
  credit_live_.ForEach([&](std::size_t i) {
    Network::CreditLink& link = *net_.credit_links_[i];
    if (!link.channel.Deliverable(now)) return;
    ++steps_;
    link.Deliver(now);
    if (routers_sleep_) {
      NudgeRouter(static_cast<std::size_t>(link.dst_router->node()));
    }
    if (link.channel.empty()) credit_live_.Clear(i);
  });
}

void SoaCore::TickRouters(Cycle now) {
  router_live_.ForEach([&](std::size_t r) {
    ++steps_;
    Router& router = *net_.routers_[r];
    for (RequestMask ejected = router.Tick(now); ejected != 0;
         ejected &= ejected - 1) {
      WakeNic(static_cast<std::size_t>(net_.topo_.TileAt(
          static_cast<int>(r), std::countr_zero(ejected))));
    }
    if (!router.HasWork()) {
      router_live_.Clear(r);
    } else if (router.Asleep()) {
      router_live_.Clear(r);
      router_asleep_.Set(r);
    }
  });
}

void SoaCore::TickNics(Cycle now) {
  nic_live_.ForEach([&](std::size_t tile) {
    const Cycle due = NicDue(tile);
    if (due == kNeverCycle) {
      nic_live_.Clear(tile);
      return;
    }
    if (due > now) return;
    nic_asleep_.Clear(tile);
    ++steps_;
    Nic& nic = *net_.nics_[tile];
    if (nic.Tick(now) && routers_sleep_) NudgeRouter(nic_router_[tile]);
    if (nic.Asleep()) {
      nic_asleep_.Set(tile);
      if (nic.CreditDue() == kNeverCycle) nic_live_.Clear(tile);
    }
  });
  clock_ = now + 1;
}

bool SoaCore::NoFlitsInFlight() const {
  const auto nonempty = [&](std::size_t i) {
    return !net_.flit_links_[i]->channel.empty();
  };
  const auto holds_flits = [&](std::size_t r) {
    return net_.routers_[r]->BufferedFlits() != 0;
  };
  const auto busy = [&](std::size_t n) { return !net_.nics_[n]->Idle(); };
  return !flit_live_.Any(nonempty) && !router_live_.Any(holds_flits) &&
         !router_asleep_.Any(holds_flits) && !nic_live_.Any(busy) &&
         !nic_asleep_.Any(busy);
}

}  // namespace gnoc
