#include "dse/search.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/enum_registry.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "dse/pareto.hpp"

namespace gnoc {

const EnumRegistry<SearchStrategy>& SearchStrategyRegistry() {
  static const EnumRegistry<SearchStrategy> kRegistry{
      "strategy",
      {
          {"nsga2", SearchStrategy::kNsga2},
          {"random", SearchStrategy::kRandom},
          {"grid", SearchStrategy::kGrid},
          {"nsga-ii", SearchStrategy::kNsga2},
          {"nsga", SearchStrategy::kNsga2},
          {"rand", SearchStrategy::kRandom},
          {"exhaustive", SearchStrategy::kGrid},
      }};
  return kRegistry;
}

namespace {

const EnumRegistry<SearchObjective>& ObjectiveRegistry() {
  static const EnumRegistry<SearchObjective> kRegistry{
      "objective",
      {
          {"ipc", SearchObjective::kIpc},
          {"mean_latency", SearchObjective::kMeanLatency},
          {"p99_latency", SearchObjective::kP99Latency},
          {"buffer_area", SearchObjective::kBufferArea},
          {"latency", SearchObjective::kMeanLatency},
          {"p99", SearchObjective::kP99Latency},
          {"area", SearchObjective::kBufferArea},
      }};
  return kRegistry;
}

/// Throws std::invalid_argument unless `objectives` is a non-empty,
/// duplicate-free list.
void CheckObjectives(const std::vector<SearchObjective>& objectives) {
  if (objectives.empty()) {
    throw std::invalid_argument("search needs at least one objective");
  }
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    for (std::size_t j = i + 1; j < objectives.size(); ++j) {
      if (objectives[i] == objectives[j]) {
        throw std::invalid_argument(
            "duplicate search objective '" +
            std::string(SearchObjectiveName(objectives[i])) + "'");
      }
    }
  }
}

}  // namespace

const char* SearchStrategyName(SearchStrategy s) {
  return SearchStrategyRegistry().Name(s);
}

SearchStrategy ParseSearchStrategy(const std::string& name) {
  return SearchStrategyRegistry().Parse(name);
}

const char* SearchObjectiveName(SearchObjective o) {
  return ObjectiveRegistry().Name(o);
}

SearchObjective ParseSearchObjective(const std::string& name) {
  return ObjectiveRegistry().Parse(name);
}

std::vector<SearchObjective> ParseSearchObjectives(
    const std::vector<std::string>& names) {
  std::vector<SearchObjective> objectives;
  for (const std::string& name : names) {
    objectives.push_back(ParseSearchObjective(name));
  }
  CheckObjectives(objectives);
  return objectives;
}

std::vector<double> ObjectiveVector(
    const EvaluatedDesign& d, const std::vector<SearchObjective>& objectives) {
  std::vector<double> v;
  v.reserve(objectives.size());
  for (const SearchObjective o : objectives) {
    switch (o) {
      case SearchObjective::kIpc: v.push_back(-d.ipc); break;
      case SearchObjective::kMeanLatency:
        v.push_back(d.mean_packet_latency);
        break;
      case SearchObjective::kP99Latency:
        v.push_back(d.p99_packet_latency);
        break;
      case SearchObjective::kBufferArea:
        v.push_back(d.buffer_area_flits);
        break;
    }
  }
  return v;
}

std::uint64_t SearchFingerprint(const DesignSpace& space,
                                const std::vector<WorkloadProfile>& workloads,
                                const SearchOptions& options) {
  Serializer s;
  // Base config + each workload, via the canonical per-cell fingerprint
  // (covers every GpuConfig field in declaration order).
  for (const WorkloadProfile& w : workloads) {
    s.U64(GpuConfigFingerprint(space.base, w));
  }
  const auto axis_enum = [&s](const auto& values) {
    s.U64(values.size());
    for (const auto v : values) s.U8(static_cast<std::uint8_t>(v));
  };
  axis_enum(space.placements);
  axis_enum(space.routings);
  axis_enum(space.vc_policies);
  axis_enum(space.topologies);
  s.U64(space.vc_counts.size());
  for (const int v : space.vc_counts) s.I32(v);
  s.U64(space.vc_depths.size());
  for (const int v : space.vc_depths) s.I32(v);
  s.U64(options.lengths.warmup);
  s.U64(options.lengths.measure);
  s.U8(static_cast<std::uint8_t>(options.strategy));
  s.U64(options.objectives.size());
  for (const SearchObjective o : options.objectives) {
    s.U8(static_cast<std::uint8_t>(o));
  }
  s.I32(options.population);
  s.I32(options.max_evaluations);
  s.U64(options.seed);
  s.Double(options.crossover_rate);
  s.Double(options.mutation_rate);
  // threads / checkpointing / callbacks deliberately excluded: a resumed
  // search may run under different parallelism (as a sweep's CellKey
  // leaves out threads).
  return Fnv1a64(s.bytes());
}

std::vector<std::size_t> ParetoResult::FrontierIndices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    if (designs[i].feasible && designs[i].rank == 0) out.push_back(i);
  }
  return out;
}

void ParetoResult::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("strategy").Value(SearchStrategyName(strategy));
  w.Key("objectives").BeginArray();
  for (const SearchObjective o : objectives) w.Value(SearchObjectiveName(o));
  w.EndArray();
  w.Key("evaluations").Value(evaluations);
  w.Key("generations").Value(generations);
  w.Key("completed").Value(completed);
  w.Key("num_designs").Value(static_cast<std::int64_t>(designs.size()));
  w.Key("frontier_size")
      .Value(static_cast<std::int64_t>(FrontierIndices().size()));
  w.Key("space").BeginObject();
  w.Key("width").Value(space.base.width);
  w.Key("height").Value(space.base.height);
  w.Key("num_mcs").Value(space.base.num_mcs);
  w.Key("num_points").Value(static_cast<std::int64_t>(space.NumPoints()));
  w.EndObject();
  w.Key("designs").BeginArray();
  for (const EvaluatedDesign& d : designs) {
    const GpuConfig cfg = MakeConfig(space, d.point);
    w.BeginObject();
    w.Key("label").Value(d.label);
    w.Key("coord").BeginArray();
    for (const std::uint16_t c : d.point.coord) {
      w.Value(static_cast<std::int64_t>(c));
    }
    w.EndArray();
    w.Key("config").BeginObject();
    w.Key("placement").Value(McPlacementName(cfg.placement));
    w.Key("routing").Value(RoutingName(cfg.routing));
    w.Key("vc_policy").Value(VcPolicyName(cfg.vc_policy));
    w.Key("topology").Value(TopologyName(cfg.topology));
    w.Key("num_vcs").Value(cfg.num_vcs);
    w.Key("vc_depth").Value(cfg.vc_depth);
    w.EndObject();
    w.Key("feasible").Value(d.feasible);
    if (!d.feasible) {
      w.Key("infeasible_reason").Value(d.infeasible_reason);
    } else {
      w.Key("metrics").BeginObject();
      w.Key("ipc").Value(d.ipc);
      w.Key("mean_packet_latency").Value(d.mean_packet_latency);
      w.Key("p99_packet_latency").Value(d.p99_packet_latency);
      w.Key("buffer_area_flits").Value(d.buffer_area_flits);
      w.EndObject();
      w.Key("rank").Value(d.rank);
      w.Key("dominated").Value(d.rank != 0);
      // Crowding is +inf at front boundaries; JSON has no infinity, so
      // JsonNumber maps it to null (parsed back as "unbounded").
      w.Key("crowding").Value(d.crowding);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void ParetoResult::WriteJson(std::ostream& out) const {
  JsonWriter w(out);
  WriteJson(w);
}

void ParetoResult::WriteJsonFile(const std::string& path) const {
  std::ostringstream oss;
  WriteJson(oss);
  // Atomic (temp + rename): a crashed writer never leaves a partial
  // pareto.json for the job server or a reader to trip over.
  AtomicWriteFile(path, oss.str());
}

namespace {

/// Thrown from the sweep progress hook to unwind a preempted batch.
struct SearchPreempted {};

constexpr std::uint32_t kSearchCkptLayout = 1;

/// The whole mutable state of a search between batches. Everything else
/// (labels, configs, pool ranking) is a pure function of this + options.
struct SearchState {
  std::uint32_t layout = kSearchCkptLayout;  ///< Load refuses any other
  Rng rng{0};
  std::uint64_t generation = 0;
  std::uint64_t evaluations = 0;
  std::vector<EvaluatedDesign> archive;
  std::map<DesignPoint, std::size_t> index;  // point -> archive position
  std::vector<DesignPoint> pending;          // next batch (all feasible)

  bool Seen(const DesignPoint& p) const {
    return index.find(p) != index.end();
  }

  void Commit(EvaluatedDesign d) {
    index.emplace(d.point, archive.size());
    archive.push_back(std::move(d));
  }

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.layout);
    Io(ar, self.rng);
    Io(ar, self.generation);
    Io(ar, self.evaluations);
    IoSeq(ar, self.archive);
    IoSeq(ar, self.pending);
  }

  void Save(Serializer& s) const { Fields(*this, s); }

  void Load(Deserializer& d, const DesignSpace& space) {
    Fields(*this, d);
    if (layout != kSearchCkptLayout) {
      throw SerializeError("search checkpoint layout " +
                           std::to_string(layout) + " != expected " +
                           std::to_string(kSearchCkptLayout));
    }
    // PointLabel and MakeConfig index the axes by these coordinates.
    const auto check = [&space](const DesignPoint& p) {
      for (std::size_t axis = 0; axis < kNumDesignAxes; ++axis) {
        if (p.coord[axis] >= space.AxisSize(axis)) {
          throw SerializeError(
              "search checkpoint design point has index " +
              std::to_string(p.coord[axis]) + " on axis " +
              std::to_string(axis) + " of " +
              std::to_string(space.AxisSize(axis)) + " value(s)");
        }
      }
    };
    index.clear();
    for (std::size_t i = 0; i < archive.size(); ++i) {
      check(archive[i].point);
      archive[i].label = PointLabel(space, archive[i].point);
      index.emplace(archive[i].point, i);
    }
    for (const DesignPoint& p : pending) check(p);
  }
};

/// One parent candidate: archive index + its (rank, crowding) fitness.
struct PoolMember {
  std::size_t archive_idx = 0;
  int rank = 0;
  double crowding = 0.0;
};

/// True when `a` is the better parent (lower rank, then larger crowding,
/// then lower archive index — the deterministic tiebreak).
bool BetterParent(const PoolMember& a, const PoolMember& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.crowding != b.crowding) return a.crowding > b.crowding;
  return a.archive_idx < b.archive_idx;
}

/// The search engine proper; one instance per ParetoSearch call.
class Search {
 public:
  Search(const DesignSpace& space,
         const std::vector<WorkloadProfile>& workloads,
         const SearchOptions& options)
      : space_(space),
        workloads_(workloads),
        options_(options),
        num_points_(space.NumPoints()),
        fingerprint_(SearchFingerprint(space, workloads, options)) {
    CheckObjectives(options.objectives);
    if (options.population < 1) {
      throw std::invalid_argument("population must be >= 1");
    }
    if (workloads.empty()) {
      throw std::invalid_argument("search needs at least one workload");
    }
  }

  ParetoResult Run() {
    InitOrResume();
    bool preempted = false;
    while (true) {
      if (ShouldStop()) {
        preempted = true;
        break;
      }
      if (!state_.pending.empty()) {
        if (!EvaluateBatch()) {
          preempted = true;
          break;
        }
        state_.pending.clear();
        ++state_.generation;
        SaveCheckpoint();
      }
      std::vector<DesignPoint> next = NextBatch();
      if (next.empty()) break;  // budget reached or space exhausted
      state_.pending = std::move(next);
      SaveCheckpoint();
    }
    return Finalize(!preempted);
  }

 private:
  bool ShouldStop() const {
    return options_.should_stop && options_.should_stop();
  }

  std::string CheckpointPath() const {
    return options_.checkpoint_dir + "/search.ckpt";
  }

  void SaveCheckpoint() const {
    if (options_.checkpoint_dir.empty()) return;
    Serializer s;
    state_.Save(s);
    WriteSnapshotFile(CheckpointPath(), fingerprint_, s.bytes());
  }

  void InitOrResume() {
    state_.rng = Rng(options_.seed);
    if (!options_.checkpoint_dir.empty()) {
      std::filesystem::create_directories(options_.checkpoint_dir);
      if (options_.resume &&
          std::filesystem::exists(CheckpointPath())) {
        const std::string payload =
            ReadSnapshotFile(CheckpointPath(), fingerprint_);
        Deserializer d(payload);
        state_.Load(d, space_);
        d.Finish();
        return;
      }
    }
    state_.pending = NextBatch();
    SaveCheckpoint();
  }

  // --- batch generation ---

  int RemainingBudget() const {
    if (options_.max_evaluations <= 0) {
      return std::numeric_limits<int>::max();
    }
    return options_.max_evaluations -
           static_cast<int>(state_.evaluations);
  }

  DesignPoint RandomPoint() {
    DesignPoint p;
    for (std::size_t a = 0; a < kNumDesignAxes; ++a) {
      p.coord[a] = static_cast<std::uint16_t>(
          state_.rng.NextBounded(space_.AxisSize(a)));
    }
    return p;
  }

  /// Commits an infeasible candidate (zero simulation cost) so it is never
  /// proposed again; returns false when the candidate was feasible.
  bool CommitIfInfeasible(const DesignPoint& p) {
    const std::string reason = DesignInfeasibility(space_, p);
    if (reason.empty()) return false;
    EvaluatedDesign d;
    d.point = p;
    d.label = PointLabel(space_, p);
    d.feasible = false;
    d.infeasible_reason = reason;
    d.buffer_area_flits = BufferAreaFlits(space_, p);
    state_.Commit(std::move(d));
    if (options_.on_design) {
      options_.on_design(state_.archive.back(),
                         static_cast<int>(state_.evaluations),
                         options_.max_evaluations);
    }
    return true;
  }

  /// The parent pool: the best `population` feasible designs by
  /// (non-dominated rank, crowding), i.e. NSGA-II environmental selection
  /// over the whole archive.
  std::vector<PoolMember> SelectPool() const {
    std::vector<std::size_t> feasible;
    for (std::size_t i = 0; i < state_.archive.size(); ++i) {
      if (state_.archive[i].feasible) feasible.push_back(i);
    }
    std::vector<PoolMember> pool;
    if (feasible.empty()) return pool;
    std::vector<std::vector<double>> objs;
    objs.reserve(feasible.size());
    for (const std::size_t i : feasible) {
      objs.push_back(ObjectiveVector(state_.archive[i], options_.objectives));
    }
    const auto fronts = NonDominatedSort(objs);
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(options_.population), feasible.size());
    for (std::size_t f = 0; f < fronts.size() && pool.size() < want; ++f) {
      const std::vector<double> crowd = CrowdingDistance(objs, fronts[f]);
      std::vector<PoolMember> members;
      members.reserve(fronts[f].size());
      for (std::size_t k = 0; k < fronts[f].size(); ++k) {
        members.push_back({feasible[fronts[f][k]], static_cast<int>(f),
                           crowd[k]});
      }
      std::sort(members.begin(), members.end(), BetterParent);
      for (const PoolMember& m : members) {
        if (pool.size() >= want) break;
        pool.push_back(m);
      }
    }
    return pool;
  }

  const PoolMember& Tournament(const std::vector<PoolMember>& pool) {
    const std::size_t a = state_.rng.NextBounded(pool.size());
    const std::size_t b = state_.rng.NextBounded(pool.size());
    return BetterParent(pool[a], pool[b]) ? pool[a] : pool[b];
  }

  DesignPoint Offspring(const std::vector<PoolMember>& pool) {
    const DesignPoint& pa = state_.archive[Tournament(pool).archive_idx].point;
    const DesignPoint& pb = state_.archive[Tournament(pool).archive_idx].point;
    DesignPoint child = pa;
    if (state_.rng.Bernoulli(options_.crossover_rate)) {
      for (std::size_t a = 0; a < kNumDesignAxes; ++a) {
        if (state_.rng.Bernoulli(0.5)) child.coord[a] = pb.coord[a];
      }
    }
    const double mutation = options_.mutation_rate > 0.0
                                ? options_.mutation_rate
                                : 1.0 / static_cast<double>(kNumDesignAxes);
    for (std::size_t a = 0; a < kNumDesignAxes; ++a) {
      if (state_.rng.Bernoulli(mutation)) {
        child.coord[a] = static_cast<std::uint16_t>(
            state_.rng.NextBounded(space_.AxisSize(a)));
      }
    }
    return child;
  }

  std::vector<DesignPoint> NextBatch() {
    std::vector<DesignPoint> batch;
    const int remaining = RemainingBudget();
    if (remaining <= 0) return batch;
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(options_.population),
        static_cast<std::size_t>(remaining));

    if (options_.strategy == SearchStrategy::kGrid) {
      // Enumerated-so-far count == archive size + batch size: every
      // enumerated point lands in exactly one of the two.
      std::uint64_t idx = state_.archive.size();
      while (batch.size() < want && idx < num_points_) {
        const DesignPoint p = space_.PointAt(idx++);
        assert(!state_.Seen(p));
        if (!CommitIfInfeasible(p)) batch.push_back(p);
      }
      return batch;
    }

    const std::vector<PoolMember> pool =
        options_.strategy == SearchStrategy::kNsga2 ? SelectPool()
                                                    : std::vector<PoolMember>();
    // Proposal loop with an attempt cap: when the strategy keeps proposing
    // already-seen designs (small space, converged population), the search
    // is done exploring and terminates rather than spinning.
    std::size_t attempts = 0;
    const std::size_t max_attempts = 100 * want + 100;
    while (batch.size() < want && attempts < max_attempts &&
           state_.archive.size() + batch.size() < num_points_) {
      ++attempts;
      const DesignPoint p =
          pool.empty() ? RandomPoint() : Offspring(pool);
      if (state_.Seen(p) ||
          std::find(batch.begin(), batch.end(), p) != batch.end()) {
        continue;
      }
      if (!CommitIfInfeasible(p)) batch.push_back(p);
    }
    return batch;
  }

  // --- batch evaluation ---

  /// Simulates the pending batch through RunSweep and commits the results.
  /// Returns false when preempted mid-sweep (the batch's cell files in the
  /// checkpoint directory then let the resumed search pick up where this
  /// one stopped).
  bool EvaluateBatch() {
    std::vector<SchemeSpec> schemes;
    schemes.reserve(state_.pending.size());
    for (const DesignPoint& p : state_.pending) {
      schemes.push_back({PointLabel(space_, p), MakeConfig(space_, p)});
    }
    SweepOptions so;
    so.lengths = options_.lengths;
    so.threads = options_.threads;
    so.checkpoint_dir = options_.checkpoint_dir;
    so.resume = options_.resume;
    so.progress = [this](const std::string& scheme,
                         const std::string& workload, int done, int total) {
      if (options_.progress) options_.progress(scheme, workload, done, total);
      if (ShouldStop()) throw SearchPreempted{};
    };
    SweepResult result = [&] {
      try {
        return RunSweep(schemes, workloads_, so);
      } catch (const SearchPreempted&) {
        return SweepResult({}, {});
      }
    }();
    if (result.schemes().empty()) return false;  // preempted

    for (std::size_t i = 0; i < state_.pending.size(); ++i) {
      const DesignPoint& p = state_.pending[i];
      EvaluatedDesign d;
      d.point = p;
      d.label = schemes[i].label;
      d.buffer_area_flits = BufferAreaFlits(space_, p);
      std::vector<double> ipcs;
      RunningStats pooled_latency;
      Histogram pooled_hist(1.0, 1);
      bool first = true;
      for (const WorkloadProfile& w : workloads_) {
        const GpuRunStats& stats = result.Get(d.label, w.name);
        ipcs.push_back(stats.ipc);
        for (int c = 0; c < kNumClasses; ++c) {
          pooled_latency.Merge(stats.network.packet_latency[c]);
          if (first) {
            pooled_hist = stats.network.latency_histogram[c];
            first = false;
          } else {
            pooled_hist.Merge(stats.network.latency_histogram[c]);
          }
        }
      }
      d.ipc = GeometricMean(ipcs);
      d.mean_packet_latency = pooled_latency.mean();
      d.p99_packet_latency = pooled_hist.Percentile(99);
      state_.Commit(std::move(d));
      ++state_.evaluations;
      if (options_.on_design) {
        options_.on_design(state_.archive.back(),
                           static_cast<int>(state_.evaluations),
                           options_.max_evaluations);
      }
    }
    return true;
  }

  // --- final ranking ---

  ParetoResult Finalize(bool completed) {
    ParetoResult out;
    out.space = space_;
    out.strategy = options_.strategy;
    out.objectives = options_.objectives;
    out.designs = state_.archive;
    out.evaluations = static_cast<int>(state_.evaluations);
    out.generations = static_cast<int>(state_.generation);
    out.completed = completed;

    std::vector<std::size_t> feasible;
    for (std::size_t i = 0; i < out.designs.size(); ++i) {
      if (out.designs[i].feasible) feasible.push_back(i);
    }
    if (feasible.empty()) return out;
    std::vector<std::vector<double>> objs;
    objs.reserve(feasible.size());
    for (const std::size_t i : feasible) {
      objs.push_back(ObjectiveVector(out.designs[i], options_.objectives));
    }
    const auto fronts = NonDominatedSort(objs);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const std::vector<double> crowd = CrowdingDistance(objs, fronts[f]);
      for (std::size_t k = 0; k < fronts[f].size(); ++k) {
        EvaluatedDesign& d = out.designs[feasible[fronts[f][k]]];
        d.rank = static_cast<int>(f);
        d.crowding = crowd[k];
      }
    }
    return out;
  }

  const DesignSpace& space_;
  const std::vector<WorkloadProfile>& workloads_;
  const SearchOptions& options_;
  const std::uint64_t num_points_;
  const std::uint64_t fingerprint_;
  SearchState state_;
};

}  // namespace

ParetoResult ParetoSearch(const DesignSpace& space,
                          const std::vector<WorkloadProfile>& workloads,
                          const SearchOptions& options) {
  return Search(space, workloads, options).Run();
}

}  // namespace gnoc
