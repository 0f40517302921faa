// The two NoC-only workloads. The benchmark generates each run's arrival
// schedule from the seed before timing starts and offers it open-loop
// through Network::Inject: an arrival the source NIC refuses is dropped
// and counted, and a packet's simulated latency counts from its due cycle.
//
//   noc-sparse         16x16 mesh, 2 VCs, full monopolizing, QoS and
//                      telemetry off; Bernoulli arrivals totalling 0.004
//                      flits/node/cycle, half of the packets 1-flit
//                      requests and half 5-flit replies. Most components
//                      are idle in most cycles, so host time is the
//                      scheduler's per-cycle floor, not the allocator.
//   noc-qos-saturated  16x16 torus, 4 VCs (dateline halves), full
//                      monopolizing, strict QoS with one reserved VC per
//                      class, a 0.3 flit/cycle token bucket on bulk, and
//                      telemetry with a critical p99 target; 1-flit critical
//                      at 0.05 plus 5-flit bulk at 0.7 flits/node/cycle,
//                      far past saturation, so every router arbitrates
//                      every cycle through the QoS-masked VA/SA paths.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "noc/network.hpp"
#include "perfbench.hpp"

namespace perfbench {

using gnoc::Cycle;
using gnoc::NodeId;

namespace {

/// One independent Bernoulli arrival stream per node.
struct Stream {
  gnoc::PacketType type;
  int flits;
  double packets_per_node_cycle;
};

struct NocSpec {
  gnoc::NetworkConfig net;
  std::vector<Stream> streams;
  Cycle warmup = 0;
  Cycle measure = 0;
};

NocSpec SpecFor(const std::string& name) {
  NocSpec spec;
  spec.net.width = 16;
  spec.net.height = 16;
  spec.net.vc_policy = gnoc::VcPolicyKind::kFullMonopolize;
  spec.net.scheduling = gnoc::SchedulingMode::kSoa;
  if (name == "noc-sparse") {
    spec.net.topology = gnoc::TopologyKind::kMesh;
    spec.net.num_vcs = 2;
    // 0.004 flits/node/cycle = r * 1 + r * 5 with r packets of each size.
    spec.streams = {{gnoc::PacketType::kReadRequest, 1, 0.004 / 6.0},
                    {gnoc::PacketType::kReadReply, 5, 0.004 / 6.0}};
    spec.warmup = 2000;
    spec.measure = 40000;
  } else if (name == "noc-qos-saturated") {
    spec.net.topology = gnoc::TopologyKind::kTorus;
    spec.net.num_vcs = 4;
    spec.net.telemetry = true;
    spec.net.telemetry_interval = 100;
    gnoc::QosConfig& qos = spec.net.qos;
    qos.arbitration = gnoc::QosArbitration::kStrict;
    qos.classes[0].name = "critical";
    qos.classes[0].priority = 2;
    qos.classes[0].reserved_vcs = 1;
    qos.classes[0].p99_target = 200.0;
    qos.classes[1].name = "bulk";
    qos.classes[1].priority = 1;
    qos.classes[1].reserved_vcs = 1;
    qos.classes[1].rate = 0.3;
    qos.classes[1].burst = 10;
    spec.streams = {{gnoc::PacketType::kReadRequest, 1, 0.05},
                    {gnoc::PacketType::kReadReply, 5, 0.7 / 5.0}};
    spec.warmup = 300;
    spec.measure = 1200;
  } else {
    throw std::invalid_argument("unknown NoC workload: " + name);
  }
  return spec;
}

struct Arrival {
  std::uint32_t cycle;
  std::uint16_t src;
  std::uint16_t dst;
  std::uint8_t stream;
};

struct Schedule {
  std::vector<Arrival> arrivals;
  std::uint64_t hash = 0;
};

Schedule MakeSchedule(const NocSpec& spec, std::uint64_t seed) {
  const int nodes = spec.net.width * spec.net.height;
  const Cycle total = spec.warmup + spec.measure;
  Schedule out;
  gnoc::Rng master(seed);
  for (int node = 0; node < nodes; ++node) {
    for (std::size_t s = 0; s < spec.streams.size(); ++s) {
      gnoc::Rng rng = master.Fork();
      const double p = spec.streams[s].packets_per_node_cycle;
      for (Cycle c = rng.Geometric(p); c < total; c += 1 + rng.Geometric(p)) {
        auto dst = static_cast<int>(
            rng.NextBounded(static_cast<std::uint64_t>(nodes - 1)));
        if (dst >= node) ++dst;
        out.arrivals.push_back({static_cast<std::uint32_t>(c),
                                static_cast<std::uint16_t>(node),
                                static_cast<std::uint16_t>(dst),
                                static_cast<std::uint8_t>(s)});
      }
    }
  }
  std::sort(out.arrivals.begin(), out.arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.src != b.src) return a.src < b.src;
              return a.stream < b.stream;
            });
  gnoc::Serializer bytes;
  for (const Arrival& a : out.arrivals) {
    bytes.U32(a.cycle);
    bytes.U16(a.src);
    bytes.U16(a.dst);
    bytes.U8(a.stream);
  }
  out.hash = gnoc::Fnv1a64(bytes.bytes());
  return out;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The fate of every arrival, kept by the benchmark independently of the
/// simulator's counters.
class Ledger {
 public:
  explicit Ledger(const std::vector<Arrival>& arrivals)
      : arrivals_(arrivals), state_(arrivals.size(), kPending) {}

  void Offered(std::size_t i, bool accepted) {
    state_[i] = accepted ? kInFlight : kRefused;
    ++(accepted ? accepted_ : refused_);
  }

  /// A packet reached the sink at `node`: it must be an accepted arrival,
  /// delivered once, at its destination.
  void Delivered(const gnoc::Packet& packet, NodeId node) {
    const std::uint64_t i = packet.payload;
    if (i >= state_.size() || state_[i] != kInFlight ||
        arrivals_[i].dst != node || arrivals_[i].src != packet.src) {
      ++errors_;
      return;
    }
    state_[i] = kDelivered;
    ++delivered_;
  }

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t refused() const { return refused_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t errors() const { return errors_; }

 private:
  enum State : std::uint8_t { kPending, kInFlight, kRefused, kDelivered };
  const std::vector<Arrival>& arrivals_;
  std::vector<std::uint8_t> state_;
  std::uint64_t accepted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t errors_ = 0;
};

class NodeSink final : public gnoc::PacketSink {
 public:
  NodeSink(Ledger& ledger, NodeId node) : ledger_(ledger), node_(node) {}
  NodeSink(const NodeSink&) = delete;
  NodeSink& operator=(const NodeSink&) = delete;

  bool Accept(const gnoc::Packet& packet, Cycle) override {
    ledger_.Delivered(packet, node_);
    return true;
  }

 private:
  Ledger& ledger_;
  NodeId node_;
};

std::string StatsJson(const Schedule& sched, const Ledger& ledger,
                      const gnoc::NetworkSummary& sum,
                      const gnoc::QosReport& qos, bool deadlocked,
                      Cycle measured) {
  std::ostringstream out;
  gnoc::JsonWriter w(out);
  w.BeginObject();
  w.Key("schedule_hash").Value(Hex(sched.hash));
  w.Key("arrivals").Value(static_cast<std::uint64_t>(sched.arrivals.size()));
  w.Key("accepted").Value(ledger.accepted());
  w.Key("refused").Value(ledger.refused());
  w.Key("delivered").Value(ledger.delivered());
  w.Key("deadlocked").Value(deadlocked);
  w.Key("measured_cycles").Value(static_cast<std::uint64_t>(measured));
  w.Key("classes").BeginObject();
  for (int c = 0; c < gnoc::kNumClasses; ++c) {
    const auto i = static_cast<std::size_t>(c);
    const gnoc::Histogram::Percentiles pct =
        sum.latency_histogram[i].SummaryPercentiles();
    w.Key(gnoc::ClassName(static_cast<gnoc::TrafficClass>(c))).BeginObject();
    w.Key("packets_injected").Value(sum.packets_injected[i]);
    w.Key("packets_ejected").Value(sum.packets_ejected[i]);
    w.Key("flits_injected").Value(sum.flits_injected[i]);
    w.Key("flits_ejected").Value(sum.flits_ejected[i]);
    w.Key("avg_packet_latency").Value(sum.packet_latency[i].mean());
    w.Key("avg_network_latency").Value(sum.network_latency[i].mean());
    w.Key("p50_packet_latency").Value(pct.p50);
    w.Key("p95_packet_latency").Value(pct.p95);
    w.Key("p99_packet_latency").Value(pct.p99);
    w.Key("qos_throttle_cycles").Value(sum.qos_throttle_cycles[i]);
    w.EndObject();
  }
  w.EndObject();
  w.Key("flits_forwarded").Value(sum.flits_forwarded);
  w.Key("qos");
  qos.WriteJson(w);
  w.EndObject();
  out << "\n";
  return out.str();
}

template <typename Array>
std::uint64_t Sum(const Array& values) {
  std::uint64_t total = 0;
  for (const auto v : values) total += v;
  return total;
}

PassOutcome RunNocPass(const NocSpec& spec, const Schedule& sched,
                       Tracer* tracer, LayerAggregate& agg, bool record) {
  PassOutcome pass;
  const std::int64_t start = NowNs();
  Ledger ledger(sched.arrivals);

  if (tracer != nullptr) {
    tracer->SetRecording(record);
    tracer->Begin(Layer::kSetup);
  }
  const std::int64_t t0 = CpuNs();
  gnoc::Network net(spec.net);
  std::vector<std::unique_ptr<NodeSink>> sinks;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    sinks.push_back(std::make_unique<NodeSink>(ledger, n));
    net.SetSink(n, sinks.back().get());
  }
  const std::int64_t t1 = CpuNs();
  if (tracer != nullptr) {
    tracer->End();
    tracer->SetRecording(false);
  }
  pass.timing.setup_ns = t1 - t0;
  agg.setup_ns.push_back(pass.timing.setup_ns);

  const Cycle total = spec.warmup + spec.measure;
  const std::vector<Arrival>& arrivals = sched.arrivals;
  std::size_t next = 0;
  std::uint64_t accepted_at_reset = 0;
  std::uint64_t delivered_at_reset = 0;
  std::uint64_t steps_at_reset = 0;
  LayerTotals totals_at_reset;
  std::int64_t measure_start = 0;  // wall
  std::int64_t tick_ns = 0;        // CPU
  std::int64_t loop_start = CpuNs();
  Cycle ran = 0;
  for (Cycle c = 0; c < total; ++c) {
    if (c == spec.warmup) {
      tick_ns += CpuNs() - loop_start;
      accepted_at_reset = ledger.accepted();
      delivered_at_reset = ledger.delivered();
      net.ResetStats();
      steps_at_reset = net.TickSteps();
      if (tracer != nullptr) totals_at_reset = tracer->totals();
      measure_start = NowNs();
      loop_start = CpuNs();
    }
    const bool measuring = c >= spec.warmup;
    if (tracer != nullptr) {
      tracer->SetRecording(record && measuring &&
                           (c - spec.warmup) % kSpanSampleEvery == 0);
    }
    if (next < arrivals.size() && arrivals[next].cycle == c) {
      if (tracer != nullptr) tracer->Begin(Layer::kSource);
      for (; next < arrivals.size() && arrivals[next].cycle == c; ++next) {
        const Arrival& a = arrivals[next];
        const Stream& stream = spec.streams[a.stream];
        gnoc::Packet packet;
        packet.type = stream.type;
        packet.src = a.src;
        packet.dst = a.dst;
        packet.num_flits = stream.flits;
        packet.created = c;
        packet.payload = next;
        if (tracer != nullptr) tracer->Begin(Layer::kInject);
        const bool ok = net.Inject(packet);
        if (tracer != nullptr) {
          tracer->End();
          if (!ok) tracer->CountRefusal();
        }
        ledger.Offered(next, ok);
      }
      if (tracer != nullptr) tracer->End();
    }
    if (tracer != nullptr) {
      tracer->Begin(Layer::kFabric);
      net.Tick();
      const std::int64_t ns = tracer->End();
      if (measuring) {
        agg.fabric_cycle_ns.push_back(static_cast<std::uint32_t>(ns));
      }
    } else {
      net.Tick();
    }
    ++ran;
    if (net.Deadlocked()) break;
  }
  const std::int64_t measure_end = NowNs();
  tick_ns += CpuNs() - loop_start;
  const Cycle measured = ran > spec.warmup ? ran - spec.warmup : 0;
  if (tracer != nullptr) {
    agg.totals += tracer->totals() - totals_at_reset;
    if (measured > 0) agg.loop_ns += measure_end - measure_start;
    agg.cycles += measured;
    tracer->SetRecording(record);
    tracer->Begin(Layer::kCollect);
  }

  const gnoc::NetworkSummary sum = net.Summarize();
  const gnoc::QosReport qos = net.QosResults();
  std::ostringstream err;
  if (net.Deadlocked()) err << "deadlocked; ";
  if (ran != total) err << "ran " << ran << " of " << total << " cycles; ";
  if (ledger.errors() != 0) {
    err << ledger.errors()
        << " deliveries of unknown, duplicate or misrouted packets; ";
  }
  // Over the measured window the NIC counters must match the ledger, and
  // what is still in flight must still be in the network.
  const std::uint64_t accepted = ledger.accepted() - accepted_at_reset;
  const std::uint64_t delivered = ledger.delivered() - delivered_at_reset;
  if (Sum(sum.packets_injected) != accepted ||
      Sum(sum.packets_ejected) != delivered) {
    err << "packets not conserved: NICs injected " << Sum(sum.packets_injected)
        << " and delivered " << Sum(sum.packets_ejected)
        << " in the measured window, the source saw " << accepted
        << " accepted and " << delivered << " delivered; ";
  }
  const bool in_flight = ledger.accepted() != ledger.delivered();
  if (in_flight != (net.FlitsInFlight() != 0)) {
    err << "packets not conserved: " << ledger.accepted() - ledger.delivered()
        << " packets undelivered but " << net.FlitsInFlight()
        << " flits in flight; ";
  }
  pass.stats_json =
      StatsJson(sched, ledger, sum, qos, net.Deadlocked(), measured);
  pass.ops.push_back({pass.stats_json, err.str()});
  if (tracer != nullptr) {
    agg.AddNetwork(net, measured, net.TickSteps() - steps_at_reset);
    tracer->End();
    tracer->SetRecording(false);
  }
  pass.timing.tick_ns = tick_ns;
  pass.timing.cycles = ran;
  pass.timing.wall_ns = NowNs() - start;
  return pass;
}

}  // namespace

bool IsNocWorkload(const std::string& name) {
  return name == "noc-sparse" || name == "noc-qos-saturated";
}

WorkloadReport RunNocWorkload(const std::string& name,
                              const RunOptions& options) {
  const NocSpec spec = SpecFor(name);
  const std::int64_t t0 = NowNs();
  const Schedule sched = MakeSchedule(spec, options.seed);
  const std::int64_t t1 = NowNs();

  const PassFn run_pass = [&](Tracer* tracer, LayerAggregate& agg,
                              bool record) {
    return RunNocPass(spec, sched, tracer, agg, record);
  };
  const ExpectedFn expected_errors = [](const gnoc::JsonValue& expected,
                                        const std::string& stats_json) {
    const std::vector<std::string> diffs =
        DiffJson(expected, gnoc::JsonValue::Parse(stats_json));
    return std::vector<std::string>{
        diffs.empty() ? std::string()
                      : diffs.front() + " (" + std::to_string(diffs.size()) +
                            " differences)"};
  };
  WorkloadReport report = RunPasses(name, options, run_pass, expected_errors);
  std::ostringstream note;
  note << "arrival schedule: " << sched.arrivals.size() << " arrivals over "
       << spec.warmup + spec.measure << " cycles (" << spec.warmup
       << " warm-up), seed " << options.seed << ", hash " << Hex(sched.hash)
       << ", generated in " << static_cast<double>(t1 - t0) / 1e6
       << " ms before timing";
  report.notes.insert(report.notes.begin(), note.str());
  return report;
}

}  // namespace perfbench
