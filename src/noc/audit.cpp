#include "noc/audit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "common/serialize.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"

namespace gnoc {

const char* AuditInvariantName(AuditInvariant inv) {
  switch (inv) {
    case AuditInvariant::kCreditConservation: return "credit-conservation";
    case AuditInvariant::kFlitConservation: return "flit-conservation";
    case AuditInvariant::kWormhole: return "wormhole";
    case AuditInvariant::kQuiescence: return "quiescence";
    case AuditInvariant::kSchedulerCoverage: return "scheduler-coverage";
  }
  return "?";
}

const char* AuditFaultName(AuditFault fault) {
  switch (fault) {
    case AuditFault::kDropCredit: return "drop-credit";
    case AuditFault::kDropFlit: return "drop-flit";
    case AuditFault::kDuplicateFlit: return "duplicate-flit";
    case AuditFault::kCorruptVc: return "corrupt-vc";
  }
  return "?";
}

void AuditReport::Merge(const AuditReport& other) {
  enabled = enabled || other.enabled;
  checks += other.checks;
  events += other.events;
  flits_injected += other.flits_injected;
  flits_ejected += other.flits_ejected;
  violations += other.violations;
  for (int i = 0; i < kNumAuditInvariants; ++i) {
    by_invariant[static_cast<std::size_t>(i)] +=
        other.by_invariant[static_cast<std::size_t>(i)];
  }
  for (const AuditViolation& v : other.samples) {
    if (samples.size() >= Auditor::kMaxSamples) break;
    samples.push_back(v);
  }
}

void AuditReport::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("enabled").Value(enabled);
  w.Key("clean").Value(clean());
  w.Key("checks").Value(checks);
  w.Key("events").Value(events);
  w.Key("flits_injected").Value(flits_injected);
  w.Key("flits_ejected").Value(flits_ejected);
  w.Key("violations").Value(violations);
  w.Key("by_invariant").BeginObject();
  for (int i = 0; i < kNumAuditInvariants; ++i) {
    w.Key(AuditInvariantName(static_cast<AuditInvariant>(i)))
        .Value(by_invariant[static_cast<std::size_t>(i)]);
  }
  w.EndObject();
  w.Key("samples").BeginArray();
  for (const AuditViolation& v : samples) {
    w.BeginObject();
    w.Key("invariant").Value(AuditInvariantName(v.invariant));
    w.Key("cycle").Value(static_cast<std::uint64_t>(v.cycle));
    w.Key("detail").Value(v.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

Auditor::Auditor(const NetworkConfig& config, const PacketTable& packets)
    : config_(config),
      interval_(std::max<Cycle>(config.audit_interval, 1)),
      packets_(packets) {
  report_.enabled = true;
  next_check_ = interval_;
}

int Auditor::RegisterLink(Link link) {
  LinkState state;
  state.sent.resize(static_cast<std::size_t>(config_.num_vcs));
  state.received.resize(static_cast<std::size_t>(config_.num_vcs));
  state.link = std::move(link);
  links_.push_back(std::move(state));
  return static_cast<int>(links_.size()) - 1;
}

void Auditor::RegisterNic(const Nic* nic) { nics_.push_back(nic); }

void Auditor::Violate(AuditInvariant inv, Cycle now, std::string detail) {
  ++report_.violations;
  ++report_.by_invariant[static_cast<std::size_t>(inv)];
  if (report_.samples.size() < kMaxSamples) {
    report_.samples.push_back({inv, now, std::move(detail)});
  }
}

void Auditor::CheckStream(Stream& stream, const LinkState& ls,
                          const char* side, const Flit& flit, Cycle now) {
  const PacketId packet = PacketOf(flit);
  std::ostringstream where;
  where << ls.link.name << " vc " << flit.vc << " (" << side << ") packet "
        << packet << " seq " << flit.seq;
  if (IsHead(flit)) {
    if (stream.open) {
      Violate(AuditInvariant::kWormhole, now,
              where.str() + ": head interleaved into open packet " +
                  std::to_string(stream.packet));
    }
    stream.open = true;
    stream.packet = packet;
    stream.next_seq = 0;
  } else if (!stream.open) {
    Violate(AuditInvariant::kWormhole, now,
            where.str() + ": body/tail flit with no open packet");
    stream.open = true;
    stream.packet = packet;
    stream.next_seq = flit.seq;
  } else if (packet != stream.packet) {
    Violate(AuditInvariant::kWormhole, now,
            where.str() + ": interleaves open packet " +
                std::to_string(stream.packet));
    stream.packet = packet;
    stream.next_seq = flit.seq;
  }
  if (flit.seq != stream.next_seq) {
    Violate(AuditInvariant::kWormhole, now,
            where.str() + ": expected seq " +
                std::to_string(stream.next_seq));
  }
  stream.next_seq = static_cast<std::uint16_t>(flit.seq + 1);
  if (IsTail(flit)) stream.open = false;
}

void Auditor::OnFlitSent(int link, const Flit& flit, Cycle now) {
  ++report_.events;
  LinkState& ls = links_[static_cast<std::size_t>(link)];
  if (flit.vc < 0 || flit.vc >= config_.num_vcs) {
    Violate(AuditInvariant::kWormhole, now,
            ls.link.name + ": sent flit with out-of-range vc " +
                std::to_string(flit.vc));
    return;
  }
  if (ls.link.injection) ++report_.flits_injected;
  CheckStream(ls.sent[static_cast<std::size_t>(flit.vc)], ls, "send", flit,
              now);
}

void Auditor::OnFlitReceived(int link, const Flit& flit, Cycle now) {
  ++report_.events;
  LinkState& ls = links_[static_cast<std::size_t>(link)];
  if (flit.vc < 0 || flit.vc >= config_.num_vcs) {
    Violate(AuditInvariant::kWormhole, now,
            ls.link.name + ": received flit with out-of-range vc " +
                std::to_string(flit.vc));
    return;
  }
  CheckStream(ls.received[static_cast<std::size_t>(flit.vc)], ls, "recv",
              flit, now);
}

void Auditor::OnFlitEjected(const Flit&, Cycle) {
  ++report_.events;
  ++report_.flits_ejected;
}

int Auditor::SenderCredits(const LinkState& ls, VcId vc) const {
  if (ls.link.src_nic != nullptr) return ls.link.src_nic->InjectionCredits(vc);
  return ls.link.src_router->OutputCredits(ls.link.src_port, vc);
}

int Auditor::ReceiverOccupancy(const LinkState& ls, VcId vc) const {
  return static_cast<int>(
      ls.link.dst_router->VcOccupancy(ls.link.dst_port, vc));
}

void Auditor::RunSnapshot(Cycle now) {
  ++report_.checks;
  next_check_ = now + interval_;

  std::uint64_t in_network = 0;
  std::vector<int> in_channel;
  std::vector<int> in_credit;
  std::vector<std::vector<const Flit*>> channel_flits;
  for (const LinkState& ls : links_) {
    const auto nvcs = static_cast<std::size_t>(config_.num_vcs);
    in_channel.assign(nvcs, 0);
    in_credit.assign(nvcs, 0);
    channel_flits.resize(nvcs);
    for (auto& v : channel_flits) v.clear();

    ls.link.flits->ForEach([&](const Flit& f) {
      if (f.vc < 0 || f.vc >= config_.num_vcs) {
        Violate(AuditInvariant::kWormhole, now,
                ls.link.name + ": in-flight flit with out-of-range vc " +
                    std::to_string(f.vc));
        ++in_network;  // still a flit somewhere in the network
        return;
      }
      ++in_channel[static_cast<std::size_t>(f.vc)];
      channel_flits[static_cast<std::size_t>(f.vc)].push_back(&f);
    });
    ls.link.credits->ForEach([&](const Credit& c) {
      if (c.vc >= 0 && c.vc < config_.num_vcs) {
        ++in_credit[static_cast<std::size_t>(c.vc)];
      }
    });

    for (VcId vc = 0; vc < config_.num_vcs; ++vc) {
      const auto v = static_cast<std::size_t>(vc);
      const int occupancy = ReceiverOccupancy(ls, vc);
      const int credits = SenderCredits(ls, vc);
      const int total =
          credits + in_channel[v] + occupancy + in_credit[v];
      if (total != config_.vc_depth) {
        std::ostringstream oss;
        oss << ls.link.name << " vc " << vc << ": credits " << credits
            << " + in-flight " << in_channel[v] << " + buffered " << occupancy
            << " + returning " << in_credit[v] << " = " << total << " != depth "
            << config_.vc_depth;
        Violate(AuditInvariant::kCreditConservation, now, oss.str());
      }
      in_network += static_cast<std::uint64_t>(in_channel[v] + occupancy);

      // Structural wormhole check: the buffered stream (receiver FIFO, then
      // the in-flight channel contents) must form whole packets in order.
      const Flit* prev = nullptr;
      auto check_next = [&](const Flit& cur) {
        if (prev != nullptr) {
          // One packet's flits share its record's slot.
          const bool ok =
              IsTail(*prev)
                  ? IsHead(cur)
                  : (!IsHead(cur) && cur.slot == prev->slot &&
                     cur.seq == prev->seq + 1);
          if (!ok) {
            std::ostringstream oss;
            oss << ls.link.name << " vc " << vc << ": packet "
                << PacketOf(*prev) << " seq " << prev->seq
                << " followed by packet " << PacketOf(cur) << " seq "
                << cur.seq;
            Violate(AuditInvariant::kWormhole, now, oss.str());
          }
        }
        prev = &cur;
      };
      ls.link.dst_router->VisitVcFlits(ls.link.dst_port, vc, check_next);
      for (const Flit* f : channel_flits[v]) check_next(*f);
    }
  }

  if (report_.flits_injected != report_.flits_ejected + in_network) {
    std::ostringstream oss;
    oss << "injected " << report_.flits_injected << " != ejected "
        << report_.flits_ejected << " + in-network " << in_network;
    Violate(AuditInvariant::kFlitConservation, now, oss.str());
  }
}

void Auditor::CheckQuiescence(Cycle now) {
  for (const LinkState& ls : links_) {
    if (!ls.link.flits->empty()) {
      Violate(AuditInvariant::kQuiescence, now,
              ls.link.name + ": " + std::to_string(ls.link.flits->size()) +
                  " flit(s) stranded in flight");
    }
    std::vector<int> in_credit(static_cast<std::size_t>(config_.num_vcs), 0);
    ls.link.credits->ForEach([&](const Credit& c) {
      if (c.vc >= 0 && c.vc < config_.num_vcs) {
        ++in_credit[static_cast<std::size_t>(c.vc)];
      }
    });
    for (VcId vc = 0; vc < config_.num_vcs; ++vc) {
      const auto v = static_cast<std::size_t>(vc);
      if (ReceiverOccupancy(ls, vc) != 0) {
        Violate(AuditInvariant::kQuiescence, now,
                ls.link.name + " vc " + std::to_string(vc) +
                    ": flits stranded in the input buffer");
      }
      const int home = SenderCredits(ls, vc) + in_credit[v];
      if (home != config_.vc_depth) {
        Violate(AuditInvariant::kQuiescence, now,
                ls.link.name + " vc " + std::to_string(vc) + ": only " +
                    std::to_string(home) + "/" +
                    std::to_string(config_.vc_depth) + " credits returned");
      }
      if (ls.sent[v].open || ls.received[v].open) {
        Violate(AuditInvariant::kQuiescence, now,
                ls.link.name + " vc " + std::to_string(vc) +
                    ": packet " +
                    std::to_string(ls.sent[v].open ? ls.sent[v].packet
                                                   : ls.received[v].packet) +
                    " never saw its tail");
      }
    }
  }
  if (report_.flits_injected != report_.flits_ejected) {
    Violate(AuditInvariant::kQuiescence, now,
            "injected " + std::to_string(report_.flits_injected) +
                " != ejected " + std::to_string(report_.flits_ejected) +
                " after drain");
  }
  if (packets_.live() != 0) {
    std::string first;
    packets_.ForEachLive([&](const PacketRecord& r) {
      if (first.empty()) first = std::to_string(r.id);
    });
    Violate(AuditInvariant::kQuiescence, now,
            std::to_string(packets_.live()) +
                " packet record(s) still live after drain, the first of "
                "packet " + first);
  }
  for (const Nic* nic : nics_) {
    if (nic->PendingAssembly() != 0) {
      Violate(AuditInvariant::kQuiescence, now,
              "nic " + std::to_string(nic->node()) + ": " +
                  std::to_string(nic->PendingAssembly()) +
                  " packet(s) stuck in reassembly");
    }
    for (int c = 0; c < kNumClasses; ++c) {
      const auto cls = static_cast<TrafficClass>(c);
      if (nic->EjectOccupancy(cls) != 0) {
        Violate(AuditInvariant::kQuiescence, now,
                "nic " + std::to_string(nic->node()) +
                    ": undelivered flits in the " +
                    std::string(ClassName(cls)) + " ejection buffer");
      }
    }
  }
}

void AuditReport::Save(Serializer& s) const { Fields(*this, s); }
void AuditReport::Load(Deserializer& d) { Fields(*this, d); }

void Auditor::Save(Serializer& s) const { Fields(*this, s); }
void Auditor::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
