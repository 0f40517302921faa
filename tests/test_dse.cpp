// Tests for the design-space-exploration engine (DESIGN.md §13): Pareto
// ranking math on hand-built fronts, the DesignSpace point <-> config
// mapping, feasibility screening, and the ParetoSearch acceptance
// criteria — NSGA-II recovers the exhaustive-grid frontier at half the
// budget, results are byte-identical across thread counts, and a
// preempted search resumes from checkpoints to byte-identical output.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/serialize.hpp"
#include "dse/pareto.hpp"
#include "dse/search.hpp"
#include "dse/space.hpp"
#include "noc/traffic.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- dominance ---

TEST(DominatesTest, StrictEqualAndIncomparable) {
  EXPECT_TRUE(Dominates({1.0, 2.0}, {2.0, 3.0}));
  EXPECT_TRUE(Dominates({1.0, 3.0}, {2.0, 3.0}));  // tie in one objective
  EXPECT_FALSE(Dominates({2.0, 3.0}, {1.0, 2.0}));
  // Equal vectors do not dominate each other.
  EXPECT_FALSE(Dominates({1.0, 2.0}, {1.0, 2.0}));
  // Incomparable: each is better somewhere.
  EXPECT_FALSE(Dominates({1.0, 3.0}, {3.0, 1.0}));
  EXPECT_FALSE(Dominates({3.0, 1.0}, {1.0, 3.0}));
}

// --- non-dominated sorting ---

TEST(NonDominatedSortTest, TwoDimensionalFronts) {
  // 0..2 form the frontier, 3..4 the second front, 5 the third.
  const std::vector<std::vector<double>> objs = {
      {1.0, 5.0}, {2.0, 4.0}, {3.0, 3.0},  // front 0
      {2.0, 5.0}, {4.0, 4.0},              // front 1
      {5.0, 5.0},                          // front 2
  };
  const auto fronts = NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{5}));
}

TEST(NonDominatedSortTest, ThreeDimensionalFronts) {
  const std::vector<std::vector<double>> objs = {
      {0.0, 0.0, 1.0}, {0.0, 1.0, 0.0}, {1.0, 0.0, 0.0},  // front 0
      {1.0, 1.0, 1.0},                                     // front 1
  };
  const auto fronts = NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{3}));
}

TEST(NonDominatedSortTest, DuplicatesShareAFront) {
  // Duplicates of a frontier point do not dominate each other, so both
  // copies land in front 0; the strictly worse point trails behind.
  const std::vector<std::vector<double>> objs = {
      {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  const auto fronts = NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{2}));
}

TEST(NonDominatedSortTest, TotallyOrderedChainIsOneFrontEach) {
  const std::vector<std::vector<double>> objs = {
      {3.0, 3.0}, {1.0, 1.0}, {2.0, 2.0}};
  const auto fronts = NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{1}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{0}));
}

TEST(NonDominatedSortTest, AllEqualIsOneFront) {
  const std::vector<std::vector<double>> objs(4, {2.0, 2.0});
  const auto fronts = NonDominatedSort(objs);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(NonDominatedSortTest, EmptyAndSingleton) {
  EXPECT_TRUE(NonDominatedSort({}).empty());
  const auto fronts = NonDominatedSort({{1.0, 2.0}});
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
}

// --- crowding distance ---

TEST(CrowdingDistanceTest, BoundariesInfiniteInteriorNormalized) {
  // An evenly spaced 2D front: interior gaps are 2/range per objective.
  const std::vector<std::vector<double>> objs = {
      {0.0, 3.0}, {1.0, 2.0}, {2.0, 1.0}, {3.0, 0.0}};
  const std::vector<std::size_t> front = {0, 1, 2, 3};
  const auto crowd = CrowdingDistance(objs, front);
  ASSERT_EQ(crowd.size(), 4u);
  EXPECT_EQ(crowd[0], kInf);
  EXPECT_EQ(crowd[3], kInf);
  EXPECT_NEAR(crowd[1], 2.0 / 3.0 + 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(crowd[2], 2.0 / 3.0 + 2.0 / 3.0, 1e-12);
}

TEST(CrowdingDistanceTest, SmallFrontsAreAllInfinite) {
  const std::vector<std::vector<double>> objs = {{0.0, 1.0}, {1.0, 0.0}};
  const auto one = CrowdingDistance(objs, {0});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], kInf);
  const auto two = CrowdingDistance(objs, {0, 1});
  EXPECT_EQ(two, (std::vector<double>{kInf, kInf}));
}

TEST(CrowdingDistanceTest, ZeroSpreadObjectiveContributesNothing) {
  // Objective 0 is constant: only objective 1 separates the points.
  const std::vector<std::vector<double>> objs = {
      {1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
  const auto crowd = CrowdingDistance(objs, {0, 1, 2});
  ASSERT_EQ(crowd.size(), 3u);
  EXPECT_EQ(crowd[0], kInf);
  EXPECT_EQ(crowd[2], kInf);
  EXPECT_NEAR(crowd[1], 1.0, 1e-12);  // (2 - 0) / (2 - 0)
}

// --- design space ---

TEST(DesignSpaceTest, DefaultIsThePaperSweep) {
  const DesignSpace space = DesignSpace::Default();
  // 4 placements x 3 routings x 4 policies x 2 topologies x 2 VC counts
  // x 2 depths.
  EXPECT_EQ(space.NumPoints(), 384u);
  EXPECT_EQ(space.base.width, 8);
  EXPECT_EQ(space.base.height, 8);
}

TEST(DesignSpaceTest, PointAtEnumeratesLastAxisFastest) {
  DesignSpace space;  // single-point baseline axes
  space.routings = {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX};
  space.vc_counts = {2, 4};
  ASSERT_EQ(space.NumPoints(), 4u);
  EXPECT_EQ(space.PointAt(0).coord, (std::array<std::uint16_t, 6>{}));
  EXPECT_EQ(space.PointAt(1).coord[4], 1);  // vc_counts ticks first
  EXPECT_EQ(space.PointAt(1).coord[1], 0);
  EXPECT_EQ(space.PointAt(2).coord[1], 1);  // then routing
  EXPECT_EQ(space.PointAt(2).coord[4], 0);
  EXPECT_EQ(space.PointAt(3).coord[1], 1);
  EXPECT_EQ(space.PointAt(3).coord[4], 1);
}

TEST(DesignSpaceTest, EmptyAxisThrows) {
  DesignSpace space;
  space.routings.clear();
  EXPECT_THROW(space.NumPoints(), std::invalid_argument);
}

// The one axis parser behind the job spec's "space" and pareto_search's
// axis flags: names in any case and by alias, counts and depths as
// integers in [1, INT_MAX]; a refused list leaves the axis as it was.
TEST(DesignSpaceTest, SetAxisParsesNamesAndPositiveIntegers) {
  DesignSpace space;
  SetAxis(space, 0, {"BOTTOM", "diamond"}, "placements");
  SetAxis(space, 1, {"XY", "xy-yx"}, "routings");
  SetAxis(space, 4, {"2", "4"}, "vc_counts");
  EXPECT_EQ(space.placements,
            (std::vector<McPlacement>{McPlacement::kBottom,
                                      McPlacement::kDiamond}));
  EXPECT_EQ(space.routings,
            (std::vector<RoutingAlgorithm>{RoutingAlgorithm::kXY,
                                           RoutingAlgorithm::kXYYX}));
  EXPECT_EQ(space.vc_counts, (std::vector<int>{2, 4}));
  for (const char* value : {"0", "-3", "x", "2.5", "2147483648", ""}) {
    for (const std::size_t axis : {std::size_t{4}, std::size_t{5}}) {
      try {
        SetAxis(space, axis, {"2", value}, kDesignAxisNames[axis]);
        ADD_FAILURE() << kDesignAxisNames[axis] << " took '" << value << "'";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("'") + kDesignAxisNames[axis] +
                      "' must be an integer in [1, 2147483647], got " + value);
      }
    }
  }
  EXPECT_THROW(SetAxis(space, 1, {"zigzag"}, "routings"),
               std::invalid_argument);
  EXPECT_EQ(space.vc_counts, (std::vector<int>{2, 4}));
  EXPECT_EQ(space.routings.size(), 2u);
}

TEST(DesignSpaceTest, MakeConfigAndLabelFollowTheAxes) {
  DesignSpace space;
  space.placements = {McPlacement::kBottom, McPlacement::kDiamond};
  space.routings = {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX};
  space.vc_counts = {2, 4};
  space.vc_depths = {4, 8};
  DesignPoint p;
  p.coord = {1, 1, 0, 0, 1, 1};
  const GpuConfig cfg = MakeConfig(space, p);
  EXPECT_EQ(cfg.placement, McPlacement::kDiamond);
  EXPECT_EQ(cfg.routing, RoutingAlgorithm::kYX);
  EXPECT_EQ(cfg.vc_policy, VcPolicyKind::kSplit);
  EXPECT_EQ(cfg.topology, TopologyKind::kMesh);
  EXPECT_EQ(cfg.num_vcs, 4);
  EXPECT_EQ(cfg.vc_depth, 8);
  // Untouched base knobs pass through.
  EXPECT_EQ(cfg.width, space.base.width);
  EXPECT_EQ(PointLabel(space, p), "diamond/YX/split/mesh/4vx8");
}

TEST(DesignSpaceTest, FeasibilityScreening) {
  DesignSpace space;
  EXPECT_EQ(DesignInfeasibility(space, space.PointAt(0)), "");

  // Partitioning policies need at least two VCs.
  DesignSpace one_vc;
  one_vc.vc_counts = {1};
  const std::string reason = DesignInfeasibility(one_vc, one_vc.PointAt(0));
  EXPECT_NE(reason.find("num_vcs"), std::string::npos) << reason;

  // Torus datelines halve each class's VC range: split over 2 VCs leaves
  // one per class half, which is too few; 4 VCs are fine.
  DesignSpace torus;
  torus.topologies = {TopologyKind::kTorus};
  const std::string dateline =
      DesignInfeasibility(torus, torus.PointAt(0));
  EXPECT_NE(dateline.find("dateline"), std::string::npos) << dateline;
  torus.vc_counts = {4};
  EXPECT_EQ(DesignInfeasibility(torus, torus.PointAt(0)), "");

  // A router's VA arbiter takes radix x num_vcs inputs, at most 64: 13
  // VCs on the radix-5 mesh are one too many, 12 fit.
  DesignSpace wide;
  wide.vc_counts = {13};
  const std::string mask = DesignInfeasibility(wide, wide.PointAt(0));
  EXPECT_NE(mask.find("num_vcs=13"), std::string::npos) << mask;
  wide.vc_counts = {12};
  EXPECT_EQ(DesignInfeasibility(wide, wide.PointAt(0)), "");
}

// The screen is the construction check caught, so a design is feasible
// exactly when its GpuSystem builds: over the default space, and over one
// widened by the dynamic policy, the cmesh and circulant fabrics, 1 and 13
// VCs and 300-flit VCs, on bases that reserve a VC for one class or both,
// divide the network physically or replace it by the ideal interconnect.
// `verdicts` pins the designs a hand-written copy of the checks once
// misjudged.
TEST(DesignSpaceTest, ScreenAgreesWithConstruction) {
  const std::map<std::string, bool> verdicts{
      // A 1-VC shared pool that split cannot divide.
      {"reserve_request bottom/XY/split/mesh/2vx4", false},
      // Escape VCs for both classes make full monopolizing safe.
      {"reserve_both bottom/XY-YX/full-monopolize/mesh/4vx4", true},
      // Each physical network gets one VC: no dateline halves.
      {"physical bottom/XY/full-monopolize/torus/2vx4", false},
      {"plain bottom/XY/full-monopolize/mesh/2vx300", false},
      {"plain bottom/XY/split/mesh/1vx4", false},
      {"plain bottom/XY/dynamic/cmesh/1vx4", false},
      {"ideal bottom/XY-YX/full-monopolize/torus/1vx300", true},
      // The reserved VC gives requests two, one per dateline half.
      {"reserve_request bottom/XY/asymmetric/torus/4vx4", true},
  };
  std::size_t pinned = 0;
  const WorkloadProfile& workload = FindWorkload("BFS");
  const auto infeasible = [&](const DesignSpace& space,
                              const std::string& base) {
    int refused = 0;
    for (std::uint64_t i = 0; i < space.NumPoints(); ++i) {
      const DesignPoint p = space.PointAt(i);
      const std::string reason = DesignInfeasibility(space, p);
      bool builds = true;
      try {
        const GpuSystem gpu(MakeConfig(space, p), workload);
      } catch (const std::invalid_argument&) {
        builds = false;
      }
      const std::string design = base + " " + PointLabel(space, p);
      EXPECT_EQ(reason.empty(), builds) << design << ": " << reason;
      if (const auto it = verdicts.find(design); it != verdicts.end()) {
        EXPECT_EQ(builds, it->second) << design;
        ++pinned;
      }
      refused += reason.empty() ? 0 : 1;
    }
    return refused;
  };
  EXPECT_EQ(infeasible(DesignSpace::Default(), "default"), 176);

  DesignSpace wide = DesignSpace::Default();
  wide.vc_policies.push_back(VcPolicyKind::kDynamic);
  wide.topologies = {TopologyKind::kMesh, TopologyKind::kTorus,
                     TopologyKind::kCMesh, TopologyKind::kCirculant};
  wide.vc_counts = {1, 2, 4, 13};
  wide.vc_depths = {4, 8, 300};
  EXPECT_GT(infeasible(wide, "plain"), 0);
  wide.base.qos.classes[0].reserved_vcs = 1;
  EXPECT_GT(infeasible(wide, "reserve_request"), 0);
  wide.base.qos.classes[1].reserved_vcs = 1;
  EXPECT_GT(infeasible(wide, "reserve_both"), 0);
  wide.base = GpuConfig::Baseline();
  wide.base.division = NetworkDivision::kPhysical;
  EXPECT_GT(infeasible(wide, "physical"), 0);
  wide.base = GpuConfig::Baseline();
  wide.base.ideal_noc = true;
  // The ideal interconnect has no VCs to refuse.
  EXPECT_EQ(infeasible(wide, "ideal"), 0);
  EXPECT_EQ(pinned, verdicts.size());
}

TEST(DesignSpaceTest, BufferAreaScalesWithVcResources) {
  DesignSpace space;
  space.vc_counts = {2, 4};
  DesignPoint two;
  DesignPoint four;
  four.coord[4] = 1;
  const double area2 = BufferAreaFlits(space, two);
  const double area4 = BufferAreaFlits(space, four);
  EXPECT_GT(area2, 0.0);
  EXPECT_DOUBLE_EQ(area4, 2.0 * area2);
}

// --- option parsing ---

TEST(SearchParseTest, StrategiesAndAliases) {
  EXPECT_EQ(ParseSearchStrategy("nsga2"), SearchStrategy::kNsga2);
  EXPECT_EQ(ParseSearchStrategy("NSGA-II"), SearchStrategy::kNsga2);
  EXPECT_EQ(ParseSearchStrategy("rand"), SearchStrategy::kRandom);
  EXPECT_EQ(ParseSearchStrategy("exhaustive"), SearchStrategy::kGrid);
  EXPECT_THROW(ParseSearchStrategy("anneal"), std::invalid_argument);
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kGrid), "grid");
}

TEST(SearchParseTest, ObjectivesAndAliases) {
  EXPECT_EQ(ParseSearchObjective("IPC"), SearchObjective::kIpc);
  EXPECT_EQ(ParseSearchObjective("latency"), SearchObjective::kMeanLatency);
  EXPECT_EQ(ParseSearchObjective("p99"), SearchObjective::kP99Latency);
  EXPECT_EQ(ParseSearchObjective("area"), SearchObjective::kBufferArea);
  EXPECT_THROW(ParseSearchObjective("power"), std::invalid_argument);
}

// The registry-backed names of every enum a job spec, CSV or JSON names:
// each canonical name is the one printed before the registries, and parses
// back to its value under any case.
TEST(SearchParseTest, CanonicalNamesRoundTrip) {
  const auto round_trips = [](auto value, const char* name, auto parse,
                              auto print) {
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    return std::string(print(value)) == name && parse(name) == value &&
           parse(upper) == value;
  };
  using V = VcPolicyKind;
  for (const auto& [v, name] : std::vector<std::pair<V, const char*>>{
           {V::kSplit, "split"},
           {V::kFullMonopolize, "full-monopolize"},
           {V::kPartialMonopolize, "partial-monopolize"},
           {V::kAsymmetric, "asymmetric"},
           {V::kDynamic, "dynamic"}}) {
    EXPECT_TRUE(round_trips(v, name, ParseVcPolicy, VcPolicyName)) << name;
  }
  using R = RoutingAlgorithm;
  for (const auto& [v, name] : std::vector<std::pair<R, const char*>>{
           {R::kXY, "XY"}, {R::kYX, "YX"}, {R::kXYYX, "XY-YX"}}) {
    EXPECT_TRUE(round_trips(v, name, ParseRouting, RoutingName)) << name;
  }
  for (const auto& [v, name] :
       std::vector<std::pair<ArbiterKind, const char*>>{
           {ArbiterKind::kRoundRobin, "round-robin"},
           {ArbiterKind::kMatrix, "matrix"}}) {
    EXPECT_TRUE(round_trips(v, name, ParseArbiterKind, ArbiterKindName))
        << name;
  }
  using P = McPlacement;
  for (const auto& [v, name] : std::vector<std::pair<P, const char*>>{
           {P::kBottom, "bottom"},
           {P::kEdge, "edge"},
           {P::kTopBottom, "top-bottom"},
           {P::kDiamond, "diamond"}}) {
    EXPECT_TRUE(round_trips(v, name, ParseMcPlacement, McPlacementName))
        << name;
  }
  using T = TrafficPattern;
  for (const auto& [v, name] : std::vector<std::pair<T, const char*>>{
           {T::kUniformRandom, "uniform-random"},
           {T::kTranspose, "transpose"},
           {T::kBitReverse, "bit-reverse"},
           {T::kHotspot, "hotspot"},
           {T::kTornado, "tornado"},
           {T::kNeighbor, "neighbor"},
           {T::kShuffle, "shuffle"}}) {
    EXPECT_TRUE(
        round_trips(v, name, ParseTrafficPattern, TrafficPatternName))
        << name;
  }
  using S = SearchStrategy;
  for (const auto& [v, name] : std::vector<std::pair<S, const char*>>{
           {S::kNsga2, "nsga2"}, {S::kRandom, "random"}, {S::kGrid, "grid"}}) {
    EXPECT_TRUE(
        round_trips(v, name, ParseSearchStrategy, SearchStrategyName))
        << name;
  }
  using O = SearchObjective;
  for (const auto& [v, name] : std::vector<std::pair<O, const char*>>{
           {O::kIpc, "ipc"},
           {O::kMeanLatency, "mean_latency"},
           {O::kP99Latency, "p99_latency"},
           {O::kBufferArea, "buffer_area"}}) {
    EXPECT_TRUE(
        round_trips(v, name, ParseSearchObjective, SearchObjectiveName))
        << name;
  }
}

TEST(SearchParseTest, ObjectiveVectorNegatesIpc) {
  EvaluatedDesign d;
  d.ipc = 2.0;
  d.mean_packet_latency = 30.0;
  d.buffer_area_flits = 640.0;
  const auto v = ObjectiveVector(
      d, {SearchObjective::kIpc, SearchObjective::kMeanLatency,
          SearchObjective::kBufferArea});
  EXPECT_EQ(v, (std::vector<double>{-2.0, 30.0, 640.0}));
}

// --- the search engine ---

/// A 16-point sub-space on a 4x4 grid: cheap enough to brute-force in a
/// unit test, rich enough to have a non-trivial frontier.
DesignSpace SmallSpace() {
  DesignSpace space;
  space.base.width = 4;
  space.base.height = 4;
  space.base.num_mcs = 4;
  space.routings = {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX};
  space.vc_policies = {VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize};
  space.vc_counts = {2, 4};
  space.vc_depths = {2, 4};
  return space;
}

RunLengths ShortLengths() {
  RunLengths lengths;
  lengths.warmup = 300;
  lengths.measure = 1500;
  return lengths;
}

SearchOptions QuickOptions() {
  SearchOptions opt;
  opt.lengths = ShortLengths();
  opt.objectives = {SearchObjective::kIpc, SearchObjective::kBufferArea};
  return opt;
}

std::set<std::string> FrontierLabels(const ParetoResult& result) {
  std::set<std::string> labels;
  for (const std::size_t i : result.FrontierIndices()) {
    labels.insert(result.designs[i].label);
  }
  return labels;
}

std::string ResultBytes(const ParetoResult& result) {
  std::ostringstream oss;
  result.WriteJson(oss);
  return oss.str();
}

TEST(ParetoSearchTest, RejectsBadOptions) {
  const DesignSpace space = SmallSpace();
  const auto workloads = WorkloadSubset({"BFS"});
  SearchOptions opt = QuickOptions();
  opt.objectives.clear();
  EXPECT_THROW(ParetoSearch(space, workloads, opt), std::invalid_argument);
  opt = QuickOptions();
  opt.objectives = {SearchObjective::kIpc, SearchObjective::kIpc};
  EXPECT_THROW(ParetoSearch(space, workloads, opt), std::invalid_argument);
  opt = QuickOptions();
  opt.population = 0;
  EXPECT_THROW(ParetoSearch(space, workloads, opt), std::invalid_argument);
  opt = QuickOptions();
  EXPECT_THROW(ParetoSearch(space, {}, opt), std::invalid_argument);
}

TEST(ParetoSearchTest, InfeasibleDesignsAreScreenedNotSimulated) {
  DesignSpace space;
  space.base.width = 4;
  space.base.height = 4;
  space.base.num_mcs = 4;
  space.topologies = {TopologyKind::kMesh, TopologyKind::kTorus};
  const auto workloads = WorkloadSubset({"BFS"});
  SearchOptions opt = QuickOptions();
  opt.strategy = SearchStrategy::kGrid;
  opt.max_evaluations = 0;
  const ParetoResult result = ParetoSearch(space, workloads, opt);
  EXPECT_TRUE(result.completed);
  // Two points: mesh (feasible) and torus with 2 split VCs (dateline
  // infeasible). Only the mesh point costs a simulation. Infeasible
  // designs are committed at proposal time, so the torus precedes the
  // mesh in the archive — identify them by label, not position.
  ASSERT_EQ(result.designs.size(), 2u);
  EXPECT_EQ(result.evaluations, 1);
  const auto& torus = result.designs[0];
  const auto& mesh = result.designs[1];
  ASSERT_NE(mesh.label.find("mesh"), std::string::npos);
  ASSERT_NE(torus.label.find("torus"), std::string::npos);
  EXPECT_TRUE(mesh.feasible);
  EXPECT_EQ(mesh.rank, 0);
  EXPECT_GT(mesh.ipc, 0.0);
  EXPECT_FALSE(torus.feasible);
  EXPECT_EQ(torus.rank, -1);
  EXPECT_FALSE(torus.infeasible_reason.empty());
  EXPECT_EQ(FrontierLabels(result).count(mesh.label), 1u);

  // The artifact parses and carries both designs with their labels.
  const JsonValue doc = JsonValue::Parse(ResultBytes(result));
  EXPECT_EQ(doc.At("num_designs").AsNumber(), 2.0);
  EXPECT_EQ(doc.At("frontier_size").AsNumber(), 1.0);
  const auto& designs = doc.At("designs").AsArray();
  EXPECT_EQ(designs.at(0).At("config").At("topology").AsString(), "torus");
  EXPECT_EQ(designs.at(1).At("config").At("topology").AsString(), "mesh");
  EXPECT_TRUE(designs.at(0).Find("infeasible_reason") != nullptr);
}

TEST(ParetoSearchTest, Nsga2RecoversGridFrontierAtHalfBudget) {
  const DesignSpace space = SmallSpace();
  const auto workloads = WorkloadSubset({"BFS"});

  // Ground truth: exhaust the 16-point space.
  SearchOptions grid = QuickOptions();
  grid.strategy = SearchStrategy::kGrid;
  grid.max_evaluations = 0;
  const ParetoResult oracle = ParetoSearch(space, workloads, grid);
  EXPECT_TRUE(oracle.completed);
  ASSERT_EQ(oracle.designs.size(), 16u);
  EXPECT_EQ(oracle.evaluations, 16);
  const std::set<std::string> truth = FrontierLabels(oracle);
  ASSERT_FALSE(truth.empty());

  // The acceptance bar: NSGA-II with half the grid's budget finds the
  // exact frontier (fixed seed, deterministic).
  SearchOptions opt = QuickOptions();
  opt.strategy = SearchStrategy::kNsga2;
  opt.population = 4;
  opt.max_evaluations = 8;
  opt.seed = 3;
  const ParetoResult result = ParetoSearch(space, workloads, opt);
  EXPECT_TRUE(result.completed);
  EXPECT_LE(result.evaluations, 8);
  EXPECT_EQ(FrontierLabels(result), truth);
}

TEST(ParetoSearchTest, ByteIdenticalAcrossThreadCounts) {
  const DesignSpace space = SmallSpace();
  const auto workloads = WorkloadSubset({"BFS"});
  SearchOptions opt = QuickOptions();
  opt.population = 3;
  opt.max_evaluations = 6;
  opt.seed = 9;
  opt.threads = 1;
  const ParetoResult sequential = ParetoSearch(space, workloads, opt);
  opt.threads = 4;
  const ParetoResult parallel = ParetoSearch(space, workloads, opt);
  EXPECT_EQ(ResultBytes(sequential), ResultBytes(parallel));
}

class DseCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gnoc_dse_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DseCheckpointTest, PreemptedSearchResumesByteIdentical) {
  const DesignSpace space = SmallSpace();
  const auto workloads = WorkloadSubset({"BFS"});
  SearchOptions base = QuickOptions();
  base.population = 3;
  base.max_evaluations = 6;
  base.seed = 5;

  // Control: one uninterrupted run, no checkpointing.
  const ParetoResult control = ParetoSearch(space, workloads, base);
  EXPECT_TRUE(control.completed);

  // Interrupted run: preempt after the third committed design.
  SearchOptions first = base;
  first.checkpoint_dir = (dir_ / "ckpt").string();
  int committed = 0;
  first.on_design = [&committed](const EvaluatedDesign&, int, int) {
    ++committed;
  };
  first.should_stop = [&committed] { return committed >= 3; };
  const ParetoResult partial = ParetoSearch(space, workloads, first);
  EXPECT_FALSE(partial.completed);
  EXPECT_LT(partial.evaluations, control.evaluations);

  // Resume: same options, no stop condition. Must finish and match the
  // control byte for byte.
  SearchOptions second = base;
  second.checkpoint_dir = first.checkpoint_dir;
  second.resume = true;
  const ParetoResult resumed = ParetoSearch(space, workloads, second);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.evaluations, control.evaluations);
  EXPECT_EQ(ResultBytes(resumed), ResultBytes(control));
}

TEST_F(DseCheckpointTest, ResumeRejectsChangedConfiguration) {
  const DesignSpace space = SmallSpace();
  const auto workloads = WorkloadSubset({"BFS"});
  SearchOptions opt = QuickOptions();
  opt.population = 2;
  opt.max_evaluations = 2;
  opt.checkpoint_dir = (dir_ / "ckpt").string();
  const ParetoResult done = ParetoSearch(space, workloads, opt);
  EXPECT_TRUE(done.completed);

  // A different seed is a different search; its checkpoint must not load.
  SearchOptions other = opt;
  other.seed = opt.seed + 1;
  other.resume = true;
  EXPECT_THROW(ParetoSearch(space, workloads, other), SerializeError);
}

// The search checkpoint's format-v5 bytes, recorded from a build whose
// SearchState Save and Load were written separately (see SnapshotPinTest in
// test_checkpoint.cpp). A grid search on a 4x4 sub-space stopped after two
// generations, with the third batch pending: RNG, archive (the 1-VC split
// designs are infeasible, the rest simulated) and pending batch are live.
TEST_F(DseCheckpointTest, SearchCheckpointKeepsItsV5Bytes) {
  DesignSpace space = SmallSpace();
  space.vc_counts = {1, 2, 4};
  // The framing hashes GpuConfigFingerprint, which hashes the scheduling
  // mode the bytes were recorded under.
  space.base.scheduling = SchedulingMode::kFull;
  SearchOptions opt;
  opt.strategy = SearchStrategy::kGrid;
  opt.objectives = {SearchObjective::kIpc, SearchObjective::kBufferArea};
  opt.lengths.warmup = 60;
  opt.lengths.measure = 120;
  opt.population = 2;
  opt.max_evaluations = 8;
  opt.threads = 1;
  opt.checkpoint_dir = (dir_ / "ckpt").string();
  int committed = 0;
  opt.on_design = [&committed](const EvaluatedDesign&, int, int) {
    ++committed;
  };
  opt.should_stop = [&committed] { return committed >= 6; };
  const ParetoResult stopped = ParetoSearch(space, WorkloadSubset({"BFS"}), opt);
  EXPECT_FALSE(stopped.completed);
  EXPECT_EQ(stopped.generations, 2);

  std::ifstream in(dir_ / "ckpt" / "search.ckpt", std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(Fnv1a64(file), 0x6fb1c8e6a0c22405ull)
      << std::hex << "0x" << Fnv1a64(file);
}

// A resumed search passes every loaded design point to PointLabel and
// MakeConfig, which index the space's axes by its coordinates and check
// them only with an assert. Load refuses an out-of-range coordinate. The
// checkpoint payload is laid out as: u32 layout @0, Rng @4 (41 bytes),
// u64 generation @45, u64 evaluations @53, u64 archive count @61, first
// design's u16 coordinates @69.
TEST_F(DseCheckpointTest, ResumeRefusesDesignPointsOutsideTheSpace) {
  const DesignSpace space = SmallSpace();
  const auto workloads = WorkloadSubset({"BFS"});
  SearchOptions opt = QuickOptions();
  opt.strategy = SearchStrategy::kGrid;
  opt.lengths.warmup = 60;
  opt.lengths.measure = 120;
  opt.population = 2;
  opt.max_evaluations = 2;
  opt.checkpoint_dir = (dir_ / "ckpt").string();
  ParetoSearch(space, workloads, opt);

  const std::string path = opt.checkpoint_dir + "/search.ckpt";
  const std::uint64_t fingerprint = SearchFingerprint(space, workloads, opt);
  const std::string clean = ReadSnapshotFile(path, fingerprint);
  ASSERT_GE(clean.size(), 71u);
  opt.resume = true;
  for (std::size_t axis = 0; axis < kNumDesignAxes; ++axis) {
    std::string patched = clean;
    patched[69 + 2 * axis] = static_cast<char>(space.AxisSize(axis));
    WriteSnapshotFile(path, fingerprint, patched);
    EXPECT_THROW(ParetoSearch(space, workloads, opt), SerializeError)
        << "axis " << axis;
  }
  WriteSnapshotFile(path, fingerprint, clean);
  EXPECT_TRUE(ParetoSearch(space, workloads, opt).completed);
}

}  // namespace
}  // namespace gnoc
