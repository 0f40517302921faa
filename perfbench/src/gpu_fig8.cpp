// gpu-fig8: the paper's Fig. 8 matrix (four routing / VC-policy schemes)
// over the fig8 regression pin's five profiles, each cell a fresh
// 56-SM + 8-MC system with cold modelled caches.
//
// Untraced passes run each cell through GpuSystem. Traced passes assemble
// the same cell from GpuSystem's public parts (TilePlan, SingleNetworkFabric
// with ConfigureLinkModes, the SMs and MCs, a forked Rng) so the benchmark
// can time the SM, MC and fabric layers separately; the SMs and MCs inject
// through TimedFabric, which makes noc.inject a child span of gpgpu.sm and
// gpgpu.mc. Both paths must yield identical statistics.
#include <array>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "noc/deadlock.hpp"
#include "noc/fabric.hpp"
#include "perfbench.hpp"
#include "sim/gpu_system.hpp"

namespace perfbench {

using gnoc::Cycle;
using gnoc::GpuConfig;
using gnoc::GpuRunStats;
using gnoc::NodeId;
using gnoc::TrafficClass;
using gnoc::WorkloadProfile;

namespace {

/// A Fabric that times, counts and forwards every endpoint call into it.
class TimedFabric final : public gnoc::Fabric {
 public:
  TimedFabric(gnoc::Fabric& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  TimedFabric(const TimedFabric&) = delete;
  TimedFabric& operator=(const TimedFabric&) = delete;

  bool Inject(gnoc::Packet packet) override {
    tracer_.Begin(Layer::kInject);
    const bool ok = inner_.Inject(packet);
    tracer_.End();
    if (!ok) tracer_.CountRefusal();
    return ok;
  }
  bool CanInject(NodeId node, TrafficClass cls) const override {
    tracer_.Begin(Layer::kInject);
    const bool ok = inner_.CanInject(node, cls);
    tracer_.End();
    if (!ok) tracer_.CountRefusal();
    return ok;
  }
  void SetSink(NodeId node, gnoc::PacketSink* sink) override {
    inner_.SetSink(node, sink);
  }
  void Tick() override { inner_.Tick(); }
  Cycle now() const override { return inner_.now(); }
  bool Deadlocked() const override { return inner_.Deadlocked(); }
  std::size_t FlitsInFlight() const override { return inner_.FlitsInFlight(); }
  gnoc::NetworkSummary Summarize() const override {
    return inner_.Summarize();
  }
  void ResetStats() override { inner_.ResetStats(); }
  std::array<std::uint64_t, gnoc::kNumPacketTypes> PacketsByType()
      const override {
    return inner_.PacketsByType();
  }
  gnoc::RunReport CollectRunReport() const override {
    return inner_.CollectRunReport();
  }
  void Save(gnoc::Serializer& s) const override { inner_.Save(s); }
  void Load(gnoc::Deserializer& d) override { inner_.Load(d); }
  int num_networks() const override { return inner_.num_networks(); }
  gnoc::Network& net(TrafficClass cls) override { return inner_.net(cls); }
  const gnoc::Network& net(TrafficClass cls) const override {
    return inner_.net(cls);
  }

 private:
  gnoc::Fabric& inner_;
  Tracer& tracer_;
};

/// GpuSystem's NetworkConfig mapping.
gnoc::NetworkConfig NetworkConfigOf(const GpuConfig& c) {
  gnoc::NetworkConfig net;
  net.width = c.width;
  net.height = c.height;
  net.topology = c.topology;
  net.circulant_s1 = c.circulant_s1;
  net.circulant_s2 = c.circulant_s2;
  net.num_vcs = c.num_vcs;
  net.vc_depth = c.vc_depth;
  net.routing = c.routing;
  net.vc_policy = c.vc_policy;
  net.link_latency = c.link_latency;
  net.inject_queue_capacity = c.inject_queue_capacity;
  net.eject_capacity = c.eject_capacity;
  net.atomic_vc_realloc = c.atomic_vc_realloc;
  net.dynamic_epoch = c.dynamic_epoch;
  net.arbiter = c.arbiter;
  net.audit = c.audit;
  net.audit_interval = c.audit_interval;
  net.telemetry = c.telemetry;
  net.telemetry_interval = c.telemetry_interval;
  net.telemetry_max_windows = c.telemetry_max_windows;
  net.scheduling = c.scheduling;
  net.qos = c.qos;
  return net;
}

/// GpuSystem's constructor for the configurations gpu-fig8 uses (virtual
/// division, no ideal NoC, no trace recorder, symmetric MC injection),
/// with the endpoints wired to a TimedFabric.
class AssembledGpu {
 public:
  AssembledGpu(const GpuConfig& config, const WorkloadProfile& profile,
               Tracer& tracer)
      : plan_(config.width, config.height, config.num_mcs, config.placement),
        fabric_(MakeFabric(config, plan_)),
        timed_(*fabric_, tracer),
        tracer_(tracer) {
    gnoc::Rng master(config.seed);
    gnoc::SmConfig sm_cfg = config.sm;
    sm_cfg.sizes.write_request = profile.write_request_flits;
    for (NodeId node : plan_.core_nodes()) {
      auto sm = std::make_unique<gnoc::StreamingMultiprocessor>(
          node, sm_cfg, profile, &timed_, config.num_mcs, master.Fork());
      sm->SetMcNodes(plan_.mc_nodes());
      timed_.SetSink(node, sm.get());
      sms_.push_back(std::move(sm));
    }
    for (NodeId node : plan_.mc_nodes()) {
      auto mc =
          std::make_unique<gnoc::MemoryController>(node, config.mc, &timed_);
      timed_.SetSink(node, mc.get());
      mcs_.push_back(std::move(mc));
    }
  }

  /// One cycle, layer by layer; returns the fabric span's duration.
  std::int64_t Tick() {
    const Cycle now = fabric_->now();
    tracer_.Begin(Layer::kSm);
    for (auto& sm : sms_) sm->Tick(now);
    tracer_.End();
    tracer_.Begin(Layer::kMc);
    for (auto& mc : mcs_) mc->Tick(now);
    tracer_.End();
    tracer_.Begin(Layer::kFabric);
    fabric_->Tick();
    return tracer_.End();
  }

  void ResetStats() {
    fabric_->ResetStats();
    for (auto& sm : sms_) sm->ResetStats();
    for (auto& mc : mcs_) mc->ResetStats();
    measured_since_ = fabric_->now();
  }

  /// GpuSystem::Measure's collection.
  GpuRunStats Measure() const {
    GpuRunStats out;
    out.cycles = fabric_->now() - measured_since_;
    for (const auto& sm : sms_) out.instructions += sm->stats().instructions;
    out.ipc = out.cycles == 0 ? 0.0
                              : static_cast<double>(out.instructions) /
                                    static_cast<double>(out.cycles);
    out.network = fabric_->Summarize();
    out.network.cycles = out.cycles;
    out.packets_by_type = fabric_->PacketsByType();
    out.request_flits = out.network.flits_injected[static_cast<std::size_t>(
        gnoc::ClassIndex(TrafficClass::kRequest))];
    out.reply_flits = out.network.flits_injected[static_cast<std::size_t>(
        gnoc::ClassIndex(TrafficClass::kReply))];
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    double row_hit_sum = 0.0;
    for (const auto& mc : mcs_) {
      l2_hits += mc->stats().l2_read_hits;
      l2_misses += mc->stats().l2_read_misses;
      row_hit_sum += mc->dram_stats().row_hit_rate();
    }
    out.l2_miss_rate =
        (l2_hits + l2_misses) == 0
            ? 0.0
            : static_cast<double>(l2_misses) /
                  static_cast<double>(l2_hits + l2_misses);
    out.dram_row_hit_rate =
        mcs_.empty() ? 0.0 : row_hit_sum / static_cast<double>(mcs_.size());
    gnoc::RunningStats read_latency;
    for (const auto& sm : sms_) read_latency.Merge(sm->stats().read_latency);
    out.avg_read_latency = read_latency.mean();
    out.deadlocked = fabric_->Deadlocked();
    const gnoc::RunReport report = fabric_->CollectRunReport();
    out.audit = report.audit;
    out.telemetry = report.telemetry;
    out.qos = report.qos;
    return out;
  }

  const gnoc::Fabric& fabric() const { return *fabric_; }
  gnoc::Network& network() { return fabric_->net(TrafficClass::kRequest); }
  std::size_t num_sms() const { return sms_.size(); }
  const gnoc::StreamingMultiprocessor& sm(std::size_t i) const {
    return *sms_[i];
  }
  std::size_t num_mcs() const { return mcs_.size(); }
  const gnoc::MemoryController& mc(std::size_t i) const { return *mcs_[i]; }

 private:
  static std::unique_ptr<gnoc::SingleNetworkFabric> MakeFabric(
      const GpuConfig& config, const gnoc::TilePlan& plan) {
    if (config.ideal_noc ||
        config.division != gnoc::NetworkDivision::kVirtual ||
        config.record_trace || config.mc_inject_flits_per_cycle != 1) {
      throw std::invalid_argument(
          "perfbench: the assembled GPU covers virtual division only");
    }
    const gnoc::Topology topo =
        gnoc::Topology::Make(config.topology, config.width, config.height,
                             config.circulant_s1, config.circulant_s2);
    gnoc::ValidatePolicyOrThrow(topo, plan, config.routing, config.vc_policy,
                                config.allow_unsafe,
                                {config.qos.classes[0].reserved_vcs,
                                 config.qos.classes[1].reserved_vcs});
    auto fabric =
        std::make_unique<gnoc::SingleNetworkFabric>(NetworkConfigOf(config));
    gnoc::Network& net = fabric->net(TrafficClass::kRequest);
    net.ConfigureLinkModes(
        gnoc::AnalyzeLinkUsage(net.topology(), plan, config.routing));
    return fabric;
  }

  gnoc::TilePlan plan_;
  std::unique_ptr<gnoc::SingleNetworkFabric> fabric_;
  TimedFabric timed_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<gnoc::StreamingMultiprocessor>> sms_;
  std::vector<std::unique_ptr<gnoc::MemoryController>> mcs_;
  Cycle measured_since_ = 0;
};

using InFlight = std::array<std::int64_t, gnoc::kNumClasses>;

/// Packets accepted by a NIC and not yet delivered, per class, from the
/// NIC counters since the last ResetStats.
InFlight PacketsInFlight(const gnoc::Network& net) {
  InFlight out{};
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const gnoc::NicStats& st = net.nic(n).stats();
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] += static_cast<std::int64_t>(st.packets_injected[c]) -
                static_cast<std::int64_t>(st.packets_ejected[c]);
    }
  }
  return out;
}

/// The output checks of one cell: no deadlock, the full measured window,
/// and packet conservation — every transaction an SM has outstanding is a
/// request in the network, a request held by an MC, or a reply in the
/// network, counting from what was in flight at the stats reset.
template <typename System>
std::string CheckCell(const System& gpu, const InFlight& at_reset,
                      const GpuRunStats& stats) {
  std::ostringstream err;
  if (stats.deadlocked) err << "deadlocked; ";
  if (stats.cycles != kFig8Measure) {
    err << "measured " << stats.cycles << " of " << kFig8Measure
        << " cycles; ";
  }
  InFlight now{};
  for (std::size_t c = 0; c < now.size(); ++c) {
    now[c] = at_reset[c] +
             static_cast<std::int64_t>(stats.network.packets_injected[c]) -
             static_cast<std::int64_t>(stats.network.packets_ejected[c]);
  }
  std::int64_t outstanding = 0;
  for (std::size_t i = 0; i < gpu.num_sms(); ++i) {
    outstanding += gpu.sm(i).OutstandingReads() + gpu.sm(i).OutstandingWrites();
  }
  std::int64_t pending = 0;
  for (std::size_t i = 0; i < gpu.num_mcs(); ++i) {
    pending += static_cast<std::int64_t>(gpu.mc(i).PendingTransactions());
  }
  const std::int64_t req = now[static_cast<std::size_t>(
      gnoc::ClassIndex(TrafficClass::kRequest))];
  const std::int64_t rep =
      now[static_cast<std::size_t>(gnoc::ClassIndex(TrafficClass::kReply))];
  if (req < 0 || rep < 0 || outstanding != req + pending + rep) {
    err << "packets not conserved: " << outstanding
        << " outstanding transactions vs " << req << " requests in flight + "
        << pending << " at MCs + " << rep << " replies in flight; ";
  }
  return err.str();
}

std::string StatsBytes(const GpuRunStats& stats) {
  gnoc::Serializer s;
  gnoc::Save(s, stats);
  return s.TakeBytes();
}

}  // namespace

std::vector<gnoc::SchemeSpec> Fig8Schemes(std::uint64_t seed) {
  GpuConfig base = GpuConfig::Baseline();
  base.scheduling = gnoc::SchedulingMode::kSoa;
  base.seed = seed;
  GpuConfig xy_mono = base;
  xy_mono.vc_policy = gnoc::VcPolicyKind::kFullMonopolize;
  GpuConfig yx_mono = xy_mono;
  yx_mono.routing = gnoc::RoutingAlgorithm::kYX;
  GpuConfig xyyx_pm = base;
  xyyx_pm.routing = gnoc::RoutingAlgorithm::kXYYX;
  xyyx_pm.vc_policy = gnoc::VcPolicyKind::kPartialMonopolize;
  return {{"XY (Baseline)", base},
          {"XY (Monopolized)", xy_mono},
          {"YX (Monopolized)", yx_mono},
          {"XY-YX (Partially Mono)", xyyx_pm}};
}

std::vector<WorkloadProfile> Fig8Profiles() {
  return gnoc::WorkloadSubset({"CP", "NQU", "HOT", "BFS", "KMN"});
}

CellRun RunGpuCell(const GpuConfig& config, const WorkloadProfile& profile,
                   LayerAggregate& agg) {
  CellRun out;
  const std::int64_t t0 = CpuNs();
  gnoc::GpuSystem gpu(config, profile);
  const std::int64_t t1 = CpuNs();
  for (Cycle c = 0; c < kFig8Warmup; ++c) gpu.Tick();
  const std::int64_t t2 = CpuNs();
  const InFlight at_reset = PacketsInFlight(gpu.network());
  const std::int64_t t3 = CpuNs();
  gpu.ResetStats();
  Cycle ran = 0;
  while (ran < kFig8Measure) {
    gpu.Tick();
    ++ran;
    if (gpu.fabric().Deadlocked()) break;
  }
  const std::int64_t t4 = CpuNs();
  out.stats = gpu.Measure();
  out.error = CheckCell(gpu, at_reset, out.stats);
  out.timing.setup_ns = t1 - t0;
  out.timing.tick_ns = (t2 - t1) + (t4 - t3);
  out.timing.cycles = kFig8Warmup + ran;
  agg.setup_ns.push_back(out.timing.setup_ns);
  return out;
}

CellRun RunAssembledCell(const GpuConfig& config,
                         const WorkloadProfile& profile, Tracer& tracer,
                         LayerAggregate& agg, bool record) {
  CellRun out;
  tracer.SetRecording(record);
  tracer.Begin(Layer::kSetup);
  const std::int64_t t0 = CpuNs();
  AssembledGpu gpu(config, profile, tracer);
  const std::int64_t t1 = CpuNs();
  tracer.End();
  tracer.SetRecording(false);
  out.timing.setup_ns = t1 - t0;
  agg.setup_ns.push_back(out.timing.setup_ns);

  for (Cycle c = 0; c < kFig8Warmup; ++c) gpu.Tick();
  const std::int64_t t2 = CpuNs();
  const InFlight at_reset = PacketsInFlight(gpu.network());
  gpu.ResetStats();
  const LayerTotals before = tracer.totals();
  const std::uint64_t steps_before = gpu.network().TickSteps();
  const std::int64_t t3 = CpuNs();
  const std::int64_t loop_start = NowNs();
  Cycle ran = 0;
  while (ran < kFig8Measure) {
    tracer.SetRecording(record && ran % kSpanSampleEvery == 0);
    agg.fabric_cycle_ns.push_back(static_cast<std::uint32_t>(gpu.Tick()));
    ++ran;
    if (gpu.fabric().Deadlocked()) break;
  }
  agg.loop_ns += NowNs() - loop_start;
  const std::int64_t t4 = CpuNs();
  tracer.SetRecording(record);
  agg.totals += tracer.totals() - before;
  agg.cycles += ran;

  tracer.Begin(Layer::kCollect);
  out.stats = gpu.Measure();
  out.error = CheckCell(gpu, at_reset, out.stats);
  agg.AddNetwork(gpu.network(), ran, gpu.network().TickSteps() - steps_before);
  for (std::size_t i = 0; i < gpu.num_sms(); ++i) {
    agg.instructions += gpu.sm(i).stats().instructions;
  }
  for (std::size_t i = 0; i < gpu.num_mcs(); ++i) {
    const gnoc::MemoryController& mc = gpu.mc(i);
    agg.l2_hits += mc.stats().l2_read_hits;
    agg.l2_misses += mc.stats().l2_read_misses;
    agg.mc_stall_cycles += mc.stats().stall_cycles;
    agg.dram_accesses += mc.dram_stats().accesses;
    agg.dram_row_hits += mc.dram_stats().row_hits;
  }
  agg.mc_cycles += gpu.num_mcs() * ran;
  tracer.End();
  tracer.SetRecording(false);

  out.timing.tick_ns = (t2 - t1) + (t4 - t3);
  out.timing.cycles = kFig8Warmup + ran;
  return out;
}

WorkloadReport RunGpuFig8(const RunOptions& options) {
  const std::vector<gnoc::SchemeSpec> schemes = Fig8Schemes(options.seed);
  const std::vector<WorkloadProfile> profiles = Fig8Profiles();
  std::vector<std::string> scheme_labels;
  for (const auto& s : schemes) scheme_labels.push_back(s.label);
  std::vector<std::string> profile_names;
  for (const auto& p : profiles) profile_names.push_back(p.name);

  const PassFn run_pass = [&](Tracer* tracer, LayerAggregate& agg,
                              bool record) {
    PassOutcome pass;
    const std::int64_t start = NowNs();
    gnoc::SweepResult sweep(scheme_labels, profile_names);
    for (const WorkloadProfile& profile : profiles) {
      for (const gnoc::SchemeSpec& scheme : schemes) {
        CellRun cell;
        if (tracer == nullptr) {
          cell = RunGpuCell(scheme.config, profile, agg);
        } else {
          cell = RunAssembledCell(scheme.config, profile, *tracer, agg, record);
        }
        pass.timing.setup_ns += cell.timing.setup_ns;
        pass.timing.tick_ns += cell.timing.tick_ns;
        pass.timing.cycles += cell.timing.cycles;
        pass.ops.push_back({StatsBytes(cell.stats),
                            cell.error.empty()
                                ? std::string()
                                : scheme.label + " / " + profile.name + ": " +
                                      cell.error});
        sweep.Set(scheme.label, profile.name, cell.stats);
      }
    }
    std::ostringstream json;
    sweep.WriteJson(json, scheme_labels.front());
    pass.stats_json = json.str();
    pass.timing.wall_ns = NowNs() - start;
    return pass;
  };

  // The stored document is the sweep JSON; each cell is one operation.
  const ExpectedFn expected_errors = [](const gnoc::JsonValue& expected,
                                        const std::string& stats_json) {
    const gnoc::JsonValue actual = gnoc::JsonValue::Parse(stats_json);
    const auto& got = actual.At("cells").AsArray();
    const auto& want = expected.At("cells").AsArray();
    std::vector<std::string> errors(got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i >= want.size()) {
        errors[i] = "no expected values for cell " + std::to_string(i);
        continue;
      }
      const std::vector<std::string> diffs =
          DiffJson(want[i], got[i], "cells[" + std::to_string(i) + "]");
      if (!diffs.empty()) {
        errors[i] = diffs.front() + " (" + std::to_string(diffs.size()) +
                    " differences)";
      }
    }
    return errors;
  };

  return RunPasses("gpu-fig8", options, run_pass, expected_errors);
}

}  // namespace perfbench
