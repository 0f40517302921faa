// The benchmark's own tests: its GPU assembly must be GpuSystem, and its
// output checks must catch a wrong result.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "common/serialize.hpp"
#include "perfbench.hpp"
#include "sim/gpu_system.hpp"

namespace perfbench {
namespace {

std::string Bytes(const gnoc::GpuRunStats& stats) {
  gnoc::Serializer s;
  gnoc::Save(s, stats);
  return s.TakeBytes();
}

std::string ReadExpected(const std::string& workload) {
  std::ifstream in(std::string(PERFBENCH_EXPECTED_DIR) + "/" + workload +
                   ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Adds one to the first integer value of `key` in a JSON document.
std::string Doctor(const std::string& text, const std::string& key) {
  std::smatch m;
  const std::regex pattern("\"" + key + "\": ([0-9]+)");
  EXPECT_TRUE(std::regex_search(text, m, pattern)) << key;
  const std::string bumped = "\"" + key + "\": " +
                             std::to_string(std::stoull(m[1].str()) + 1);
  return m.prefix().str() + bumped + m.suffix().str();
}

RunOptions OnePass(const gnoc::JsonValue* expected) {
  RunOptions options;
  options.seconds = 0;
  options.expected = expected;
  return options;
}

TEST(PerfbenchTest, AssembledCellEqualsGpuSystemRunForEveryFig8Scheme) {
  const gnoc::WorkloadProfile& kmn = gnoc::FindWorkload("KMN");
  for (const gnoc::SchemeSpec& scheme : Fig8Schemes(kDefaultSeed)) {
    gnoc::GpuSystem gpu(scheme.config, kmn);
    const std::string reference = Bytes(gpu.Run(kFig8Warmup, kFig8Measure));
    Tracer tracer;
    LayerAggregate agg;
    const CellRun traced =
        RunAssembledCell(scheme.config, kmn, tracer, agg, /*record=*/true);
    EXPECT_EQ(Bytes(traced.stats), reference) << scheme.label;
    EXPECT_EQ(traced.error, "") << scheme.label;
    const CellRun untraced = RunGpuCell(scheme.config, kmn, agg);
    EXPECT_EQ(Bytes(untraced.stats), reference) << scheme.label;
    EXPECT_EQ(untraced.error, "") << scheme.label;
    EXPECT_GT(tracer.totals().count(Layer::kInject), 0u) << scheme.label;
    EXPECT_FALSE(tracer.spans().empty()) << scheme.label;
  }
}

TEST(PerfbenchTest, StoredValuesPassAndADoctoredValueFailsOneCell) {
  const std::string text = ReadExpected("gpu-fig8");
  const gnoc::JsonValue stored = gnoc::JsonValue::Parse(text);
  const WorkloadReport good = RunGpuFig8(OnePass(&stored));
  EXPECT_EQ(good.attempted, 20u);
  EXPECT_EQ(good.failed, 0u);

  const gnoc::JsonValue doctored =
      gnoc::JsonValue::Parse(Doctor(text, "instructions"));
  const WorkloadReport bad = RunGpuFig8(OnePass(&doctored));
  EXPECT_EQ(bad.attempted, 20u);
  EXPECT_EQ(bad.failed, 1u);
}

TEST(PerfbenchTest, DoctoredNocValueIsAFailedOperation) {
  const std::string text = ReadExpected("noc-sparse");
  const gnoc::JsonValue stored = gnoc::JsonValue::Parse(text);
  EXPECT_EQ(RunNocWorkload("noc-sparse", OnePass(&stored)).failed, 0u);
  const gnoc::JsonValue doctored =
      gnoc::JsonValue::Parse(Doctor(text, "delivered"));
  const WorkloadReport bad = RunNocWorkload("noc-sparse", OnePass(&doctored));
  EXPECT_EQ(bad.attempted, 1u);
  EXPECT_EQ(bad.failed, 1u);
}

TEST(PerfbenchTest, DiffJsonComparesIntegersExactlyAndFloatsWithinTolerance) {
  const auto diff = [](const char* a, const char* b) {
    return DiffJson(gnoc::JsonValue::Parse(a), gnoc::JsonValue::Parse(b))
        .size();
  };
  EXPECT_EQ(diff(R"({"n": 5, "x": 1.5})", R"({"n": 5, "x": 1.5000000001})"),
            0u);
  EXPECT_EQ(diff(R"({"n": 5})", R"({"n": 6})"), 1u);
  EXPECT_EQ(diff(R"({"n": 123456789})", R"({"n": 123456790})"), 1u);
  EXPECT_EQ(diff(R"({"x": 1.5})", R"({"x": 1.5001})"), 1u);
  EXPECT_EQ(diff(R"({"a": [1, 2]})", R"({"a": [1]})"), 1u);
  EXPECT_EQ(diff(R"({"a": 1})", R"({"b": 1})"), 2u);
}

}  // namespace
}  // namespace perfbench
