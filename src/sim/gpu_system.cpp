#include "sim/gpu_system.hpp"

#include "noc/ideal.hpp"

#include <cassert>

#include "common/serialize.hpp"

namespace gnoc {

void Save(Serializer& s, const GpuRunStats& stats) {
  GpuRunStats::Fields(stats, s);
}
void Load(Deserializer& d, GpuRunStats& stats) {
  GpuRunStats::Fields(stats, d);
}

namespace {

void HashCacheConfig(Serializer& s, const CacheConfig& c) {
  s.U32(c.size_bytes);
  s.U32(c.line_bytes);
  s.U32(c.ways);
}

void HashPacketSizes(Serializer& s, const PacketSizes& p) {
  s.I32(p.read_request);
  s.I32(p.write_request);
  s.I32(p.read_reply);
  s.I32(p.write_reply);
}

}  // namespace

std::uint64_t GpuConfigFingerprint(const GpuConfig& config,
                                   const WorkloadProfile& workload) {
  Serializer s;
  // GpuConfig, field by field in a fixed order: snapshot and checkpoint
  // files carry this hash, so the bytes never change. The inherited
  // deadlock_threshold has no byte; no GPU run sets it.
  s.I32(config.width);
  s.I32(config.height);
  s.I32(config.num_mcs);
  s.U8(static_cast<std::uint8_t>(config.placement));
  s.U8(static_cast<std::uint8_t>(config.topology));
  s.I32(config.circulant_s1);
  s.I32(config.circulant_s2);
  s.U8(static_cast<std::uint8_t>(config.routing));
  s.U8(static_cast<std::uint8_t>(config.vc_policy));
  s.I32(config.num_vcs);
  s.I32(config.vc_depth);
  s.U64(config.link_latency);
  s.I32(config.inject_queue_capacity);
  s.I32(config.eject_capacity);
  s.Bool(config.atomic_vc_realloc);
  s.U64(config.dynamic_epoch);
  s.U8(static_cast<std::uint8_t>(config.arbiter));
  s.Bool(config.allow_unsafe);
  s.U8(static_cast<std::uint8_t>(config.division));
  s.Bool(config.record_trace);
  s.Bool(config.audit);
  s.U64(config.audit_interval);
  s.Bool(config.telemetry);
  s.U64(config.telemetry_interval);
  s.U64(config.telemetry_max_windows);
  s.U8(static_cast<std::uint8_t>(config.scheduling));
  s.Bool(config.ideal_noc);
  s.I32(config.mc_inject_flits_per_cycle);
  // SmConfig.
  s.I32(config.sm.warps_per_sm);
  s.I32(config.sm.mshr_entries);
  s.I32(config.sm.max_outstanding_writes);
  s.U32(config.sm.line_bytes);
  HashPacketSizes(s, config.sm.sizes);
  s.Bool(config.sm.use_real_l1);
  HashCacheConfig(s, config.sm.l1);
  // McConfig.
  HashCacheConfig(s, config.mc.l2);
  s.I32(config.mc.dram.num_banks);
  s.U64(config.mc.dram.row_hit_latency);
  s.U64(config.mc.dram.row_miss_latency);
  s.U64(config.mc.dram.bank_occupancy);
  s.U32(config.mc.dram.line_bytes);
  s.U32(config.mc.dram.row_bytes);
  s.U8(static_cast<std::uint8_t>(config.mc.scheduler));
  s.I32(config.mc.sched_window);
  s.U64(config.mc.l2_latency);
  s.U64(config.mc.l2_write_latency);
  s.I32(config.mc.request_queue_capacity);
  s.I32(config.mc.max_inflight);
  HashPacketSizes(s, config.mc.sizes);
  s.U64(config.seed);
  // WorkloadProfile.
  s.Str(workload.name);
  s.Str(workload.suite);
  s.Double(workload.mem_ratio);
  s.Double(workload.read_fraction);
  s.Double(workload.l1_miss_rate);
  s.Double(workload.write_traffic_rate);
  s.Double(workload.spatial_locality);
  s.I32(workload.working_set_lines);
  s.I32(workload.write_request_flits);
  s.I32(workload.coalescing_degree);
  // QoS class specs fold in on top (HashQosConfig hashes every TrafficClass-
  // Spec field, names included), so two runs differing only in QoS policy
  // never share snapshots.
  return HashQosConfig(Fnv1a64(s.bytes()), config.qos);
}

void CheckGpuConfig(const GpuConfig& config) {
  const TilePlan plan(config.width, config.height, config.num_mcs,
                      config.placement);
  // The ideal fabric charges this topology's distances, so it needs a
  // buildable one too.
  const Topology topo =
      Topology::Make(config.topology, config.width, config.height,
                     config.circulant_s1, config.circulant_s2);
  if (config.ideal_noc) return;
  CheckNetworkConfig(DivisionConfig(config, config.division), topo);
  // Fail fast on protocol-deadlock-unsafe configurations (Sec. 3.2.1).
  ValidatePolicyOrThrow(topo, plan, config.routing, config.vc_policy,
                        config.allow_unsafe, config.qos.ReservedVcs());
}

GpuSystem::GpuSystem(const GpuConfig& config, const WorkloadProfile& workload)
    : config_(config),
      workload_(workload),
      plan_(config.width, config.height, config.num_mcs, config.placement) {
  CheckGpuConfig(config_);

  if (config_.record_trace) trace_ = std::make_unique<TraceWriter>();
  if (config_.ideal_noc) {
    auto fabric = std::make_unique<IdealFabric>(config_);
    fabric->SetTrace(trace_.get());
    fabric_ = std::move(fabric);
  } else {
    auto fabric = std::make_unique<NetworkFabric>(config_, config_.division);
    fabric->SetTrace(trace_.get());
    if (config_.division == NetworkDivision::kVirtual) {
      // Distribute the static per-link class analysis so link-aware partial
      // monopolizing knows which links are single-class.
      Network& req_net = fabric->net(TrafficClass::kRequest);
      req_net.ConfigureLinkModes(
          AnalyzeLinkUsage(req_net.topology(), plan_, config_.routing));
    }
    fabric_ = std::move(fabric);
  }

  Rng master(config_.seed);
  SmConfig sm_cfg = config_.sm;
  sm_cfg.sizes.write_request = workload_.write_request_flits;

  for (NodeId node : plan_.core_nodes()) {
    auto sm = std::make_unique<StreamingMultiprocessor>(
        node, sm_cfg, workload_, fabric_.get(), config_.num_mcs,
        master.Fork());
    sm->SetMcNodes(plan_.mc_nodes());
    fabric_->SetSink(node, sm.get());
    sms_.push_back(std::move(sm));
  }
  for (NodeId node : plan_.mc_nodes()) {
    auto mc = std::make_unique<MemoryController>(node, config_.mc,
                                                 fabric_.get());
    fabric_->SetSink(node, mc.get());
    if (!config_.ideal_noc && config_.mc_inject_flits_per_cycle > 1) {
      // Prior-work option [3, 11]: extra injection bandwidth at the few
      // MCs, applied to the network that carries their reply traffic.
      fabric_->net(TrafficClass::kReply)
          .nic(node)
          .SetInjectFlitsPerCycle(config_.mc_inject_flits_per_cycle);
    }
    mcs_.push_back(std::move(mc));
  }
}

void GpuSystem::Tick() {
  const Cycle now = fabric_->now();
  for (auto& sm : sms_) sm->Tick(now);
  for (auto& mc : mcs_) mc->Tick(now);
  fabric_->Tick();
}

void GpuSystem::ResetStats() {
  fabric_->ResetStats();
  for (auto& sm : sms_) sm->ResetStats();
  for (auto& mc : mcs_) mc->ResetStats();
  measured_since_ = fabric_->now();
}

GpuRunStats GpuSystem::Run(Cycle warmup, Cycle measure) {
  for (Cycle c = 0; c < warmup; ++c) Tick();
  ResetStats();
  for (Cycle c = 0; c < measure; ++c) {
    Tick();
    if (fabric_->Deadlocked()) break;
  }
  return Measure();
}

void GpuSystem::Save(Serializer& s) const { Fields(*this, s); }
void GpuSystem::Load(Deserializer& d) { Fields(*this, d); }

void GpuSystem::SaveSnapshot(const std::string& path) const {
  Serializer s;
  Save(s);
  WriteSnapshotFile(path, Fingerprint(), s.bytes());
}

void GpuSystem::LoadSnapshot(const std::string& path) {
  const std::string payload = ReadSnapshotFile(path, Fingerprint());
  Deserializer d(payload);
  Load(d);
  d.Finish();
}

GpuRunStats GpuSystem::Measure() const {
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
      ClassIndex(TrafficClass::kRequest))];
  out.reply_flits = out.network.flits_injected[static_cast<std::size_t>(
      ClassIndex(TrafficClass::kReply))];

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
  out.dram_row_hit_rate = mcs_.empty() ? 0.0 : row_hit_sum / mcs_.size();

  RunningStats read_latency;
  for (const auto& sm : sms_) read_latency.Merge(sm->stats().read_latency);
  out.avg_read_latency = read_latency.mean();
  out.deadlocked = fabric_->Deadlocked();
  const RunReport report = fabric_->CollectRunReport();
  out.audit = report.audit;
  out.telemetry = report.telemetry;
  out.qos = report.qos;
  return out;
}

}  // namespace gnoc
