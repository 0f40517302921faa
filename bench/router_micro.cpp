// Google-benchmark microbenchmarks of the simulator's hot paths: arbiters,
// cache accesses, router ticks and whole-network cycles. These are not
// paper figures; they document the simulator's own performance so users can
// size their sweeps.
#include <benchmark/benchmark.h>

#include <string>
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
  RoundRobinArbiter arb(10);
  const RequestMask requests = (RequestBit(10) - 1) & ~RequestBit(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Arbitrate(requests));
  }
}
BENCHMARK(BM_RoundRobinArbiter);

void BM_MatrixArbiter(benchmark::State& state) {
  MatrixArbiter arb(10);
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
