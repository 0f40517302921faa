// Tests for the DSE job layer and spool server (DESIGN.md §13): JobSpec
// parsing, RunJob artifacts, and the JobServer lifecycle — submit/run/
// done, cancellation, failure accounting and crash recovery (a spec left
// in running/ is re-adopted and finished by the next server).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "dse/job.hpp"
#include "dse/server.hpp"

namespace gnoc {
namespace {

namespace fs = std::filesystem;

/// A sweep job small enough for a unit test: two schemes, one workload.
constexpr const char* kSweepSpec = R"({
  "type": "sweep",
  "workloads": ["BFS"], "warmup": 300, "measure": 1500,
  "schemes": [{"label": "base"},
              {"label": "yx", "config": {"routing": "yx"}}]
})";

/// A two-point exhaustive search on a 4x4 grid.
constexpr const char* kSearchSpec = R"({
  "type": "pareto-search",
  "workloads": ["BFS"], "warmup": 300, "measure": 1500,
  "strategy": "grid", "max_evaluations": 0,
  "objectives": ["ipc", "buffer_area"],
  "space": {"base": {"width": 4, "height": 4, "num_mcs": 4},
            "routings": ["xy", "yx"]}
})";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

TEST(JobSpecTest, ParsesSweepSpecs) {
  const JobSpec spec = JobSpec::Parse(kSweepSpec);
  EXPECT_EQ(spec.type, JobType::kSweep);
  EXPECT_STREQ(JobTypeName(spec.type), "sweep");
  EXPECT_EQ(spec.workloads, (std::vector<std::string>{"BFS"}));
  EXPECT_EQ(spec.lengths.warmup, 300u);
  EXPECT_EQ(spec.lengths.measure, 1500u);
  ASSERT_EQ(spec.schemes.size(), 2u);
  EXPECT_EQ(spec.schemes[1].label, "yx");

  const auto schemes = spec.BuildSchemes();
  ASSERT_EQ(schemes.size(), 2u);
  EXPECT_EQ(schemes[0].config.routing, RoutingAlgorithm::kXY);
  EXPECT_EQ(schemes[1].config.routing, RoutingAlgorithm::kYX);
}

TEST(JobSpecTest, ParsesSearchSpecs) {
  const JobSpec spec = JobSpec::Parse(kSearchSpec);
  EXPECT_EQ(spec.type, JobType::kParetoSearch);
  EXPECT_EQ(spec.strategy, SearchStrategy::kGrid);
  EXPECT_EQ(spec.max_evaluations, 0);
  EXPECT_EQ(spec.objectives,
            (std::vector<SearchObjective>{SearchObjective::kIpc,
                                          SearchObjective::kBufferArea}));
  // The space starts from the single-point baseline and overrides only
  // the listed axes; "base" keys reshape the grid.
  EXPECT_EQ(spec.space.NumPoints(), 2u);
  EXPECT_EQ(spec.space.base.width, 4);
  EXPECT_EQ(spec.space.base.num_mcs, 4);
}

TEST(JobSpecTest, MissingSpaceMeansThePaperSpace) {
  const JobSpec spec = JobSpec::Parse(R"({"type": "search"})");
  EXPECT_EQ(spec.type, JobType::kParetoSearch);
  EXPECT_EQ(spec.space.NumPoints(), DesignSpace::Default().NumPoints());
}

TEST(JobSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(JobSpec::Parse("{"), std::invalid_argument);
  EXPECT_THROW(JobSpec::Parse(R"({"workloads": ["BFS"]})"),
               std::invalid_argument);  // no type
  EXPECT_THROW(JobSpec::Parse(R"({"type": "mystery"})"),
               std::invalid_argument);
  EXPECT_THROW(JobSpec::Parse(R"({"type": "sweep"})"),
               std::invalid_argument);  // no schemes
  EXPECT_THROW(JobSpec::Parse(R"({"type": "sweep", "schemes": [],
                                  "workloads": []})"),
               std::invalid_argument);
  // Config values must be scalars.
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "sweep", "base": {"width": [8]},
                         "schemes": [{"label": "x"}]})"),
      std::invalid_argument);
  // Unknown axis names surface from the enum parsers.
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "search",
                         "space": {"routings": ["zigzag"]}})"),
      std::invalid_argument);
  // So do unknown and repeated objectives, before the search is built.
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "search", "objectives": ["ipc", "foo"]})"),
      std::invalid_argument);
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "search", "objectives": ["ipc", "ipc"]})"),
      std::invalid_argument);
}

/// The std::invalid_argument message of parsing `json`, "" if it parses.
std::string ParseError(const std::string& json) {
  try {
    JobSpec::Parse(json);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// "base", each scheme's "config" and "space.base" take exactly the keys and
// values the command line does (RegisterGpuConfigFlags), with its
// validators and did-you-mean.
TEST(JobSpecTest, RejectsConfigKeysAndValuesTheCliRejects) {
  EXPECT_NE(ParseError(R"({"type": "sweep", "base": {"num_vcs": 0},
                           "schemes": [{"label": "x"}]})")
                .find("base: flag 'num_vcs': must be >= 1"),
            std::string::npos);
  EXPECT_NE(ParseError(R"({"type": "sweep", "base": {"num_vc": 4},
                           "schemes": [{"label": "x"}]})")
                .find("did you mean 'num_vcs'?"),
            std::string::npos);
  EXPECT_NE(ParseError(R"({"type": "sweep",
                           "schemes": [{"label": "x",
                                        "config": {"vc_polcy": "mono"}}]})")
                .find("scheme 'x' config: unknown flag 'vc_polcy'; did you "
                      "mean 'vc_policy'?"),
            std::string::npos);
  EXPECT_NE(ParseError(R"({"type": "sweep",
                           "schemes": [{"label": "x",
                                        "config": {"vc_depth": 0}}]})")
                .find("flag 'vc_depth'"),
            std::string::npos);
  EXPECT_NE(ParseError(R"({"type": "search",
                           "space": {"base": {"routing": "zigzag"}}})")
                .find("space.base: flag 'routing'"),
            std::string::npos);
  // An int key refuses what its int field cannot hold (ApplyOverrides
  // would narrow 4294967298 VCs to 2); an enum key takes any case.
  EXPECT_NE(ParseError(R"({"type": "sweep", "base": {"num_vcs": 4294967298},
                           "schemes": [{"label": "x"}]})")
                .find("base: flag 'num_vcs': must be <= 2147483647"),
            std::string::npos);
  EXPECT_NE(ParseError(R"({"type": "search",
                           "space": {"base": {"warps": 2147483648}}})")
                .find("space.base: flag 'warps': must be <= 2147483647"),
            std::string::npos);
  EXPECT_EQ(ParseError(R"({"type": "sweep",
                           "base": {"topology": "Torus", "num_vcs": 4},
                           "schemes": [{"label": "x"}]})"),
            "");
  // The CLI's own config= and help tokens are not configuration keys.
  for (const char* key : {"config", "help"}) {
    EXPECT_NE(ParseError(std::string(R"({"type": "sweep", "base": {")") +
                         key + R"(": "x"}, "schemes": [{"label": "x"}]})")
                  .find(std::string("unknown flag '") + key + "'"),
              std::string::npos)
        << key;
  }
}

TEST(JobSpecTest, RejectsSpaceVcAxisEntriesThatAreNotPositiveIntegers) {
  for (const char* entries : {"[0]", "[2, -4]", "[1.5]", "[3e9]"}) {
    for (const char* axis : {"vc_counts", "vc_depths"}) {
      EXPECT_NE(ParseError(std::string(R"({"type": "search", "space": {")") +
                           axis + "\": " + entries + "}}")
                    .find(std::string("'space.") + axis + "' must be"),
                std::string::npos)
          << axis << " " << entries;
    }
  }
}

// Negative, fractional and too-large numbers are refused before the cast
// to the field's type (casting -5.0 to an unsigned Cycle is undefined).
TEST(JobSpecTest, RejectsCountsLengthsAndSeedsOutsideTheirRange) {
  for (const char* key : {"warmup", "measure", "threads", "population",
                          "max_evaluations", "seed"}) {
    for (const char* value : {"-5", "1.5", "1e300"}) {
      EXPECT_NE(ParseError(std::string(R"({"type": "search", ")") + key +
                           "\": " + value + "}")
                    .find(std::string("'") + key + "' must be an integer"),
                std::string::npos)
          << key << "=" << value;
    }
  }
  EXPECT_NE(ParseError(R"({"type": "search", "population": 0})"), "");
  const JobSpec edges = JobSpec::Parse(
      R"({"type": "search", "warmup": 0, "threads": 0, "population": 1,
          "max_evaluations": 0, "seed": 9007199254740992})");
  EXPECT_EQ(edges.lengths.warmup, 0u);
  EXPECT_EQ(edges.population, 1);
  EXPECT_EQ(edges.seed, 9007199254740992ull);
}

class DseServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("gnoc_dse_server_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Spool() const { return (dir_ / "spool").string(); }

  /// Submits a spec the way any client does: the file <spool>/jobs/<id>.json.
  void Submit(const std::string& id, const std::string& spec_json) const {
    fs::create_directories(Spool() + "/jobs");
    std::ofstream(Spool() + "/jobs/" + id + ".json") << spec_json;
  }

  std::string Status(const std::string& id) const {
    return JsonValue::Parse(ReadFile(Spool() + "/status/" + id + ".json"))
        .At("state")
        .AsString();
  }

  /// Runs a drain-the-backlog server over the spool.
  int RunOnce(int max_jobs = 2) {
    ServerOptions options;
    options.spool = Spool();
    options.max_jobs = max_jobs;
    options.poll_ms = 10;
    options.once = true;
    JobServer server(options);
    return server.Run();
  }

  fs::path dir_;
};

TEST_F(DseServerTest, RunJobWritesSweepArtifact) {
  JobSpec spec = JobSpec::Parse(kSweepSpec);
  const JobOutcome outcome = RunJob(spec, (dir_ / "results").string(),
                                    (dir_ / "ckpt").string());
  EXPECT_TRUE(outcome.completed);
  ASSERT_TRUE(fs::exists(outcome.artifact));
  const JsonValue doc = JsonValue::Parse(ReadFile(outcome.artifact));
  EXPECT_EQ(doc.At("cells").AsArray().size(), 2u);
  EXPECT_EQ(doc.At("baseline").AsString(), "base");
}

TEST_F(DseServerTest, OnceModeDrainsTheBacklog) {
  ServerOptions options;
  options.spool = Spool();
  options.once = true;
  options.poll_ms = 10;
  JobServer server(options);
  Submit("search1", kSearchSpec);
  Submit("sweep1", kSweepSpec);
  EXPECT_EQ(server.Run(), 0);

  for (const std::string id : {"search1", "sweep1"}) {
    EXPECT_TRUE(fs::exists(Spool() + "/done/" + id + ".json")) << id;
    EXPECT_FALSE(fs::exists(Spool() + "/jobs/" + id + ".json")) << id;
    EXPECT_EQ(Status(id), "done") << id;
  }
  const JsonValue pareto =
      JsonValue::Parse(ReadFile(Spool() + "/results/search1/pareto.json"));
  EXPECT_EQ(pareto.At("num_designs").AsNumber(), 2.0);
  EXPECT_TRUE(
      fs::exists(Spool() + "/results/sweep1/sweep.json"));
}

TEST_F(DseServerTest, CancelMarkerCancelsTheJob) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    Submit("doomed", kSearchSpec);
    server.Cancel("doomed");
    EXPECT_EQ(server.Run(), 0);
  }
  EXPECT_EQ(Status("doomed"), "cancelled");
  // A cancelled job retires: spec in done/, checkpoints dropped, marker
  // consumed — nothing resurrects on the next server run.
  EXPECT_TRUE(fs::exists(Spool() + "/done/doomed.json"));
  EXPECT_FALSE(fs::exists(Spool() + "/checkpoints/doomed"));
  EXPECT_FALSE(fs::exists(Spool() + "/cancel/doomed"));
  EXPECT_EQ(RunOnce(), 0);  // nothing left to do
  EXPECT_EQ(Status("doomed"), "cancelled");
}

TEST_F(DseServerTest, BadSpecsCountAsFailures) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    Submit("broken", R"({"type": "sweep"})");
    EXPECT_EQ(server.Run(), 1);
  }
  EXPECT_EQ(Status("broken"), "failed");
  EXPECT_TRUE(fs::exists(Spool() + "/done/broken.json"));
}

// A job the CLI would refuse ends `failed`, its status naming why — before
// the check, num_vcs: 0 and misspelt keys ran to `done` on zero traffic.
TEST_F(DseServerTest, InvalidConfigJobsFailWithTheirMessage) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    Submit("zero_vcs", R"({"type": "sweep", "base": {"num_vcs": 0},
                                  "schemes": [{"label": "x"}]})");
    Submit("typo", R"({"type": "sweep",
                              "base": {"num_vc": 4, "vc_polcy": "mono"},
                              "schemes": [{"label": "x",
                                           "config": {"vc_depth": 0}}]})");
    // A flag-valid value the construction check refuses: split cannot
    // divide one VC, so the job fails before any cell runs.
    Submit("one_vc", R"({"type": "sweep", "base": {"num_vcs": 1},
                                "schemes": [{"label": "x"}]})");
    EXPECT_EQ(server.Run(), 3);
  }
  const auto error = [this](const std::string& id) {
    return JsonValue::Parse(ReadFile(Spool() + "/status/" + id + ".json"))
        .At("error")
        .AsString();
  };
  EXPECT_EQ(Status("zero_vcs"), "failed");
  EXPECT_NE(error("zero_vcs").find("flag 'num_vcs': must be >= 1"),
            std::string::npos);
  EXPECT_EQ(Status("typo"), "failed");
  EXPECT_NE(error("typo").find("did you mean"), std::string::npos);
  EXPECT_EQ(Status("one_vc"), "failed");
  EXPECT_EQ(error("one_vc"),
            "scheme 'x': policy 'split' partitions VCs and needs num_vcs >= 2");
}

TEST_F(DseServerTest, FinishedJobKeepsItsProgress) {
  ServerOptions options;
  options.spool = Spool();
  options.once = true;
  options.poll_ms = 10;
  JobServer server(options);
  Submit("sweep1", kSweepSpec);
  EXPECT_EQ(server.Run(), 0);
  const JsonValue status =
      JsonValue::Parse(ReadFile(Spool() + "/status/sweep1.json"));
  EXPECT_EQ(status.At("state").AsString(), "done");
  EXPECT_EQ(status.At("done").AsNumber(), 2.0);
  EXPECT_EQ(status.At("total").AsNumber(), 2.0);
}

TEST_F(DseServerTest, OrphanedRunningSpecsAreReAdopted) {
  // Simulate a SIGKILL'd server: the spec sits in running/ with no worker.
  fs::create_directories(Spool() + "/running");
  std::ofstream(Spool() + "/running/orphan.json") << kSearchSpec;
  EXPECT_EQ(RunOnce(), 0);
  EXPECT_EQ(Status("orphan"), "done");
  EXPECT_TRUE(fs::exists(Spool() + "/results/orphan/pareto.json"));
}

}  // namespace
}  // namespace gnoc
