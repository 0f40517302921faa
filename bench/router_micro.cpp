// Google-benchmark microbenchmarks of the simulator's hot paths: arbiters,
// cache accesses, router ticks and whole-network cycles. These are not
// paper figures; they document the simulator's own performance so users can
// size their sweeps.
#include <benchmark/benchmark.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gpgpu/cache.hpp"
#include "gpgpu/workload.hpp"
#include "noc/arbiter.hpp"
#include "noc/network.hpp"
#include "sim/gpu_system.hpp"

namespace {

using namespace gnoc;

void BM_RoundRobinArbiter(benchmark::State& state) {
  Arbiter arb(ArbiterKind::kRoundRobin, 10);
  const RequestMask requests = (RequestBit(10) - 1) & ~RequestBit(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Arbitrate(requests));
  }
}
BENCHMARK(BM_RoundRobinArbiter);

void BM_MatrixArbiter(benchmark::State& state) {
  Arbiter arb(ArbiterKind::kMatrix, 10);
  const RequestMask requests = RequestBit(10) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Arbitrate(requests));
  }
}
BENCHMARK(BM_MatrixArbiter);

void BM_CacheAccess(benchmark::State& state) {
  SetAssocCache cache(CacheConfig{64 * 1024, 64, 8});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Access(rng.NextBounded(1 << 20) * 64, false).hit);
  }
}
BENCHMARK(BM_CacheAccess);

void BM_RngNext(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

/// One idle network cycle (64 routers, no traffic) under full scheduling,
/// which ticks every component anyway: the tick-everything floor.
void BM_NetworkCycleIdle(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.scheduling = SchedulingMode::kFull;
  Network net(cfg);
  for (auto _ : state) {
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleIdle);

/// The same idle 8x8 network under soa: every occupancy bitmap is empty,
/// so no link, router or NIC is visited or asked anything. What a cycle
/// still costs is reading the empty bitmap words, in the four phases and
/// again in the watchdog's idle check.
void BM_NetworkCycleIdleSoa(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.scheduling = SchedulingMode::kSoa;
  Network net(cfg);
  for (auto _ : state) {
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleIdleSoa);

/// One network cycle under sparse load: a single long-lived packet stream
/// crossing the mesh corner-to-corner keeps a handful of components busy
/// while the other ~60 routers idle — the common low-intensity regime of
/// the paper's latency-throughput sweeps.
template <SchedulingMode kMode>
void BM_NetworkCycleSparse(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.scheduling = kMode;
  Network net(cfg);
  Cycle next_inject = 0;
  for (auto _ : state) {
    if (net.now() >= next_inject) {
      Packet p;
      p.src = 0;
      p.dst = net.num_nodes() - 1;
      p.type = PacketType::kReadRequest;
      p.num_flits = 2;
      net.Inject(p);
      next_inject = net.now() + 8;
    }
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleSparse<SchedulingMode::kFull>)
    ->Name("BM_NetworkCycleSparseFull");
BENCHMARK(BM_NetworkCycleSparse<SchedulingMode::kSoa>)
    ->Name("BM_NetworkCycleSparseSoa");

/// One cycle of the noc-qos-saturated network: a 16x16 torus with 4 VCs
/// (dateline halves), full monopolizing, strict QoS with one reserved VC
/// per class, a 0.3 flit/cycle token bucket on bulk and telemetry every
/// 100 cycles. Every node offers 1-flit critical requests at 0.05 and
/// 5-flit bulk replies at 0.7 flits/cycle from a fixed seed, far past
/// saturation (refused arrivals are dropped), so every router arbitrates
/// every cycle through the QoS-masked, dateline-restricted VA/SA paths.
/// Warmed for 300 cycles before timing; one iteration offers one cycle's
/// arrivals and ticks the network once.
void BM_NetworkCycleSaturatedTorus(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.topology = TopologyKind::kTorus;
  cfg.num_vcs = 4;
  cfg.vc_policy = VcPolicyKind::kFullMonopolize;
  cfg.scheduling = SchedulingMode::kSoa;
  cfg.telemetry = true;
  cfg.telemetry_interval = 100;
  QosConfig& qos = cfg.qos;
  qos.arbitration = QosArbitration::kStrict;
  qos.classes[0].name = "critical";
  qos.classes[0].priority = 2;
  qos.classes[0].reserved_vcs = 1;
  qos.classes[0].p99_target = 200.0;
  qos.classes[1].name = "bulk";
  qos.classes[1].priority = 1;
  qos.classes[1].reserved_vcs = 1;
  qos.classes[1].rate = 0.3;
  qos.classes[1].burst = 10;
  Network net(cfg);
  const int nodes = net.num_nodes();
  Rng rng(0xC0FFEE);
  const auto offer = [&] {
    for (NodeId src = 0; src < nodes; ++src) {
      for (const auto& [type, flits, rate] :
           {std::tuple{PacketType::kReadRequest, 1, 0.05},
            std::tuple{PacketType::kReadReply, 5, 0.7 / 5.0}}) {
        if (!rng.Bernoulli(rate)) continue;
        Packet p;
        p.src = src;
        auto dst = static_cast<NodeId>(
            rng.NextBounded(static_cast<std::uint64_t>(nodes - 1)));
        p.dst = dst >= src ? dst + 1 : dst;
        p.type = type;
        p.num_flits = flits;
        net.Inject(p);
      }
    }
  };
  for (int c = 0; c < 300; ++c) {
    offer();
    net.Tick();
  }
  for (auto _ : state) {
    offer();
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_NetworkCycleSaturatedTorus);

/// One loaded GPGPU cycle (56 SMs + 8 MCs + 64 routers, KMN workload) at
/// the default (soa) scheduling.
void BM_GpuCycleLoaded(benchmark::State& state) {
  GpuConfig cfg = GpuConfig::Baseline();
  GpuSystem gpu(cfg, FindWorkload("KMN"));
  for (Cycle c = 0; c < 2000; ++c) gpu.Tick();  // reach steady state
  for (auto _ : state) {
    gpu.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GpuCycleLoaded);

}  // namespace

// Custom main so the harness accepts the same json=<path> option as the
// figure drivers (mapped onto google-benchmark's JSON reporter) while
// still honoring native --benchmark_* flags.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("json=", 0) == 0) {
      storage.push_back("--benchmark_out=" + arg.substr(5));
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
