// Tests for the sweep/speedup harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "sim/experiment.hpp"

namespace gnoc {
namespace {

TEST(RunLengthsTest, ScalingClampsToMinimums) {
  RunLengths lengths;
  lengths.warmup = 3000;
  lengths.measure = 12000;
  const RunLengths half = lengths.Scaled(0.5);
  EXPECT_EQ(half.warmup, 1500u);
  EXPECT_EQ(half.measure, 6000u);
  const RunLengths tiny = lengths.Scaled(0.0001);
  EXPECT_EQ(tiny.warmup, 100u);
  EXPECT_EQ(tiny.measure, 500u);
}

TEST(SweepResultTest, SetGetAndSpeedups) {
  SweepResult result({"base", "fast"}, {"W1", "W2"});
  GpuRunStats s;
  s.ipc = 2.0;
  result.Set("base", "W1", s);
  s.ipc = 3.0;
  result.Set("fast", "W1", s);
  s.ipc = 4.0;
  result.Set("base", "W2", s);
  s.ipc = 4.0;
  result.Set("fast", "W2", s);

  EXPECT_DOUBLE_EQ(result.Get("fast", "W1").ipc, 3.0);
  EXPECT_DOUBLE_EQ(result.Speedup("fast", "W1", "base"), 1.5);
  EXPECT_DOUBLE_EQ(result.Speedup("fast", "W2", "base"), 1.0);
  const auto speedups = result.Speedups("fast", "base");
  ASSERT_EQ(speedups.size(), 2u);
  EXPECT_DOUBLE_EQ(speedups[0], 1.5);
  EXPECT_DOUBLE_EQ(speedups[1], 1.0);
  EXPECT_NEAR(result.GeomeanSpeedup("fast", "base"), std::sqrt(1.5), 1e-12);
  EXPECT_THROW(result.Get("nope", "W1"), std::invalid_argument);
  EXPECT_THROW(result.Get("base", "nope"), std::invalid_argument);
}

TEST(SweepTest, RunsAllCellsAndReportsProgress) {
  GpuConfig base = GpuConfig::Baseline();
  GpuConfig yx = base;
  yx.routing = RoutingAlgorithm::kYX;
  const std::vector<SchemeSpec> schemes{{"XY", base}, {"YX", yx}};
  const auto workloads = WorkloadSubset({"NQU", "BFS"});

  int progress_calls = 0;
  SweepOptions options;
  options.lengths = RunLengths{300, 1500};
  options.threads = 1;
  options.progress = [&](const std::string&, const std::string&, int,
                         int total) {
    ++progress_calls;
    EXPECT_EQ(total, 4);
  };
  const SweepResult result = RunSweep(schemes, workloads, options);
  EXPECT_EQ(progress_calls, 4);
  for (const auto& s : {"XY", "YX"}) {
    for (const auto& w : {"NQU", "BFS"}) {
      EXPECT_GT(result.Get(s, w).ipc, 0.0) << s << "/" << w;
    }
  }
  // Self-speedup is exactly 1.
  EXPECT_DOUBLE_EQ(result.GeomeanSpeedup("XY", "XY"), 1.0);
}

TEST(SweepTest, EnumerateCellsIsWorkloadMajor) {
  const auto cells = EnumerateCells(2, 3);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].workload, 0u);
  EXPECT_EQ(cells[0].scheme, 0u);
  EXPECT_EQ(cells[1].scheme, 1u);
  EXPECT_EQ(cells[1].workload, 0u);
  EXPECT_EQ(cells[2].workload, 1u);
  EXPECT_EQ(cells.back().scheme, 1u);
  EXPECT_EQ(cells.back().workload, 2u);
}

// The tentpole guarantee of the parallel engine: results are bit-identical
// regardless of thread count, because each cell is independently seeded.
TEST(SweepTest, ParallelSweepIsBitIdenticalToSequential) {
  GpuConfig base = GpuConfig::Baseline();
  GpuConfig mono = base;
  mono.routing = RoutingAlgorithm::kYX;
  mono.vc_policy = VcPolicyKind::kFullMonopolize;
  const std::vector<SchemeSpec> schemes{{"XY", base}, {"YX mono", mono}};
  const auto workloads = WorkloadSubset({"BFS", "KMN"});

  SweepOptions seq;
  seq.lengths = RunLengths{300, 1500};
  seq.threads = 1;
  SweepOptions par = seq;
  par.threads = 4;

  const SweepResult a = RunSweep(schemes, workloads, seq);
  const SweepResult b = RunSweep(schemes, workloads, par);

  for (const auto& s : {"XY", "YX mono"}) {
    for (const auto& w : {"BFS", "KMN"}) {
      const GpuRunStats& sa = a.Get(s, w);
      const GpuRunStats& sb = b.Get(s, w);
      EXPECT_EQ(sa.ipc, sb.ipc) << s << "/" << w;
      EXPECT_EQ(sa.cycles, sb.cycles) << s << "/" << w;
      EXPECT_EQ(sa.instructions, sb.instructions) << s << "/" << w;
      EXPECT_EQ(sa.request_flits, sb.request_flits) << s << "/" << w;
      EXPECT_EQ(sa.reply_flits, sb.reply_flits) << s << "/" << w;
      EXPECT_EQ(sa.packets_by_type, sb.packets_by_type) << s << "/" << w;
      EXPECT_EQ(sa.l2_miss_rate, sb.l2_miss_rate) << s << "/" << w;
      EXPECT_EQ(sa.avg_read_latency, sb.avg_read_latency) << s << "/" << w;
    }
  }
}

TEST(SweepTest, ParallelProgressIsSerializedAndMonotonic) {
  GpuConfig base = GpuConfig::Baseline();
  const std::vector<SchemeSpec> schemes{{"XY", base}};
  const auto workloads = WorkloadSubset({"NQU", "BFS", "CP", "STO"});

  SweepOptions options;
  options.lengths = RunLengths{100, 500};
  options.threads = 4;
  int calls = 0;
  int last_done = 0;
  // Unsynchronized state is safe: the engine serializes progress calls.
  options.progress = [&](const std::string&, const std::string&, int done,
                         int total) {
    EXPECT_EQ(total, 4);
    EXPECT_EQ(done, last_done + 1);  // completed count: monotonic, no gaps
    last_done = done;
    ++calls;
  };
  RunSweep(schemes, workloads, options);
  EXPECT_EQ(calls, 4);
}

// A progress callback that throws is how a search or a service job stops a
// sweep: the cells not yet started must not run. With two workers, the
// one in flight when the first call throws may still report; none after.
TEST(SweepTest, ParallelSweepStopsAfterAThrow) {
  const std::vector<SchemeSpec> schemes{{"XY", GpuConfig::Baseline()}};
  const auto workloads =
      WorkloadSubset({"NQU", "BFS", "CP", "STO", "KMN", "HOT", "LIB", "MM"});

  SweepOptions options;
  options.lengths = RunLengths{100, 500};
  options.threads = 2;
  int calls = 0;
  options.progress = [&](const std::string&, const std::string&, int, int) {
    if (++calls == 1) throw std::runtime_error("stop");
  };
  EXPECT_THROW(RunSweep(schemes, workloads, options), std::runtime_error);
  EXPECT_LE(calls, 2);
}

TEST(SweepTest, ParallelSweepPropagatesCellExceptions) {
  GpuConfig base = GpuConfig::Baseline();
  GpuConfig unsafe = base;
  unsafe.routing = RoutingAlgorithm::kXYYX;
  unsafe.vc_policy = VcPolicyKind::kFullMonopolize;  // deadlock-unsafe
  const std::vector<SchemeSpec> schemes{{"XY", base}, {"unsafe", unsafe}};
  const auto workloads = WorkloadSubset({"NQU"});

  // RunSweep checks every scheme before its first cell: the refusal names
  // the scheme, and no cell completes or reports progress first.
  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.lengths = RunLengths{100, 500};
    options.threads = threads;
    int progress_calls = 0;
    options.progress = [&progress_calls](const std::string&,
                                         const std::string&, int, int) {
      ++progress_calls;
    };
    try {
      RunSweep(schemes, workloads, options);
      ADD_FAILURE() << "threads=" << threads << ": the unsafe scheme ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("scheme 'unsafe': "),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(progress_calls, 0) << "threads=" << threads;
  }
}

TEST(SweepResultTest, WriteJsonEmitsCellsAndSummaries) {
  SweepResult result({"base", "fast"}, {"W1", "W2"});
  GpuRunStats s;
  s.ipc = 2.0;
  s.cycles = 1000;
  s.instructions = 2000;
  result.Set("base", "W1", s);
  result.Set("base", "W2", s);
  s.ipc = 3.0;
  result.Set("fast", "W1", s);
  result.Set("fast", "W2", s);

  std::ostringstream out;
  result.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schemes\""), std::string::npos);
  EXPECT_NE(json.find("\"baseline\": \"base\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"W2\""), std::string::npos);
  EXPECT_NE(json.find("\"ipc\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"geomean_speedup\""), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 1.5"), std::string::npos);
  // Braces and brackets balance (cheap structural sanity check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  const auto cells = result.Cells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].scheme, "base");
  EXPECT_EQ(cells[0].workload, "W1");
  EXPECT_EQ(cells[1].scheme, "fast");
  EXPECT_EQ(cells[3].workload, "W2");
}

TEST(SweepResultTest, JsonCarriesLatencyPercentiles) {
  const std::vector<SchemeSpec> schemes{{"base", GpuConfig::Baseline()}};
  const auto workloads = WorkloadSubset({"BFS"});
  SweepOptions options;
  options.lengths = RunLengths{300, 1500};
  options.threads = 1;
  const SweepResult result = RunSweep(schemes, workloads, options);

  std::ostringstream out;
  result.WriteJson(out);
  const JsonValue doc = JsonValue::Parse(out.str());
  const JsonValue& net = doc.At("cells").AsArray().at(0).At("network");
  for (const char* cls : {"request", "reply"}) {
    const JsonValue& c = net.At(cls);
    const double p50 = c.At("p50_packet_latency").AsNumber();
    const double p95 = c.At("p95_packet_latency").AsNumber();
    const double p99 = c.At("p99_packet_latency").AsNumber();
    EXPECT_GT(p50, 0.0) << cls;
    EXPECT_LE(p50, p95) << cls;
    EXPECT_LE(p95, p99) << cls;
    // The percentiles bracket the mean's neighborhood sanity-wise.
    EXPECT_GE(p99, c.At("avg_packet_latency").AsNumber() * 0.5) << cls;
  }
}

TEST(SweepResultTest, DegenerateSweepsProduceFiniteJson) {
  // Zero-IPC cells (a deadlocked or empty measurement) must not leak
  // NaN/inf into the JSON: speedups and geomeans degrade to 0 instead.
  SweepResult zero({"base", "other"}, {"W1"});
  GpuRunStats s;
  s.ipc = 0.0;
  zero.Set("base", "W1", s);
  s.ipc = 2.0;
  zero.Set("other", "W1", s);
  EXPECT_DOUBLE_EQ(zero.Speedup("other", "W1", "base"), 0.0);
  EXPECT_DOUBLE_EQ(zero.GeomeanSpeedup("other", "base"), 0.0);

  std::ostringstream out;
  zero.WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const JsonValue doc = JsonValue::Parse(json);  // must stay parseable
  EXPECT_DOUBLE_EQ(doc.At("summary").At("geomean_speedup").At("other")
                       .AsNumber(),
                   0.0);

  // A single-cell sweep: self-speedup is exactly 1, JSON parses.
  SweepResult single({"only"}, {"W1"});
  s.ipc = 1.5;
  single.Set("only", "W1", s);
  EXPECT_DOUBLE_EQ(single.GeomeanSpeedup("only", "only"), 1.0);
  std::ostringstream sout;
  single.WriteJson(sout);
  EXPECT_NO_THROW(JsonValue::Parse(sout.str()));

  // An empty sweep (no workloads) still writes a parseable document with a
  // zero geomean rather than NaN from an empty product.
  SweepResult empty({"a", "b"}, {});
  EXPECT_DOUBLE_EQ(empty.GeomeanSpeedup("b", "a"), 0.0);
  std::ostringstream eout;
  empty.WriteJson(eout);
  EXPECT_NO_THROW(JsonValue::Parse(eout.str()));
}

TEST(SweepTest, WorkloadSubsetThrowsOnUnknown) {
  EXPECT_THROW(WorkloadSubset({"BFS", "BOGUS"}), std::invalid_argument);
}

TEST(SweepTest, AllWorkloadsIsThePaperSuite) {
  EXPECT_EQ(AllWorkloads().size(), 25u);
}

}  // namespace
}  // namespace gnoc
