#include "dse/job.hpp"

#include <climits>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/json.hpp"

namespace gnoc {

const char* JobTypeName(JobType t) {
  switch (t) {
    case JobType::kSweep: return "sweep";
    case JobType::kParetoSearch: return "pareto-search";
  }
  return "?";
}

namespace {

/// A JSON scalar as the string Config stores (numbers via the shortest
/// round-trip form, so integer-valued doubles stay integer-looking).
std::string ScalarToString(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kString: return v.AsString();
    case JsonValue::Kind::kBool: return v.AsBool() ? "true" : "false";
    case JsonValue::Kind::kNumber: return JsonNumber(v.AsNumber());
    default:
      throw std::invalid_argument(
          "config values must be scalars (string/number/bool)");
  }
}

/// A JSON object of GpuConfig::ApplyOverrides keys -> Config, checked
/// against the flags RegisterGpuConfigFlags registers (the same names,
/// validators and did-you-mean as the CLI). `where` names the object.
Config ParseOverrides(const JsonValue& obj, const std::string& where) {
  static const FlagSet flags = [] {
    FlagSet f("job spec", "");
    RegisterGpuConfigFlags(f);
    return f;
  }();
  Config cfg;
  for (const auto& [key, value] : obj.AsObject()) {
    cfg.Set(key, ScalarToString(value));
  }
  try {
    flags.Check(cfg);
  } catch (const CliError& e) {
    throw std::invalid_argument(where + ": " + e.what());
  }
  return cfg;
}

/// The largest integer every JSON number (an IEEE double) holds exactly.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// `v` as an integer in [lo, hi]. Refuses fractions and out-of-range
/// values before any cast: casting -5.0 to an unsigned type is undefined.
double IntegerIn(const JsonValue& v, const std::string& key, double lo,
                 double hi) {
  const double x = v.AsNumber();
  if (!(x >= lo && x <= hi) || x != std::floor(x)) {
    throw std::invalid_argument("'" + key + "' must be an integer in [" +
                                JsonNumber(lo) + ", " + JsonNumber(hi) +
                                "], got " + JsonNumber(x));
  }
  return x;
}

/// Sets `out` to doc[key] (IntegerIn [lo, hi]) when the key is present.
template <class T>
void ReadInteger(const JsonValue& doc, const std::string& key, double lo,
                 double hi, T& out) {
  if (const JsonValue* v = doc.Find(key)) {
    out = static_cast<T>(IntegerIn(*v, key, lo, hi));
  }
}

std::vector<std::string> ParseStringArray(const JsonValue& arr) {
  std::vector<std::string> out;
  for (const JsonValue& v : arr.AsArray()) out.push_back(v.AsString());
  return out;
}

DesignSpace ParseSpace(const JsonValue& obj) {
  DesignSpace s;  // single-point baseline; listed axes override
  if (const JsonValue* base = obj.Find("base")) {
    s.base.ApplyOverrides(ParseOverrides(*base, "space.base"));
  }
  for (std::size_t axis = 0; axis < kNumDesignAxes; ++axis) {
    const std::string name = kDesignAxisNames[axis];
    if (const JsonValue* v = obj.Find(name)) {
      std::vector<std::string> values;
      for (const JsonValue& e : v->AsArray()) {
        values.push_back(ScalarToString(e));
      }
      SetAxis(s, axis, values, "space." + name);
    }
  }
  s.NumPoints();  // throws on an empty axis
  return s;
}

}  // namespace

JobSpec JobSpec::Parse(const std::string& json_text) {
  return Parse(JsonValue::Parse(json_text));
}

JobSpec JobSpec::Parse(const JsonValue& doc) {
  JobSpec spec;
  const std::string type = doc.At("type").AsString();
  if (type == "sweep") {
    spec.type = JobType::kSweep;
  } else if (type == "pareto-search" || type == "search") {
    spec.type = JobType::kParetoSearch;
  } else {
    throw std::invalid_argument("unknown job type '" + type +
                                "' (want sweep|pareto-search)");
  }
  if (const JsonValue* v = doc.Find("id")) spec.id = v->AsString();
  if (const JsonValue* v = doc.Find("workloads")) {
    spec.workloads = ParseStringArray(*v);
    if (spec.workloads.empty()) {
      throw std::invalid_argument("job needs at least one workload");
    }
  }
  ReadInteger(doc, "warmup", 0, kMaxExactInteger, spec.lengths.warmup);
  ReadInteger(doc, "measure", 0, kMaxExactInteger, spec.lengths.measure);
  ReadInteger(doc, "threads", 0, INT_MAX, spec.threads);
  if (const JsonValue* v = doc.Find("base")) {
    spec.base_overrides = ParseOverrides(*v, "base");
  }

  if (spec.type == JobType::kSweep) {
    const JsonValue& schemes = doc.At("schemes");
    for (const JsonValue& s : schemes.AsArray()) {
      SchemeOverride so;
      so.label = s.At("label").AsString();
      if (const JsonValue* cfg = s.Find("config")) {
        so.overrides = ParseOverrides(*cfg, "scheme '" + so.label + "' config");
      }
      spec.schemes.push_back(std::move(so));
    }
    if (spec.schemes.empty()) {
      throw std::invalid_argument("sweep job needs at least one scheme");
    }
    if (const JsonValue* v = doc.Find("baseline")) {
      spec.baseline = v->AsString();
    }
    return spec;
  }

  // pareto-search
  if (const JsonValue* v = doc.Find("space")) {
    spec.space = ParseSpace(*v);
  } else {
    spec.space = DesignSpace::Default();
  }
  spec.space.base.ApplyOverrides(spec.base_overrides);
  if (const JsonValue* v = doc.Find("strategy")) {
    spec.strategy = ParseSearchStrategy(v->AsString());
  }
  if (const JsonValue* v = doc.Find("objectives")) {
    spec.objectives = ParseSearchObjectives(ParseStringArray(*v));
  }
  ReadInteger(doc, "population", 1, INT_MAX, spec.population);
  ReadInteger(doc, "max_evaluations", 0, INT_MAX, spec.max_evaluations);
  ReadInteger(doc, "seed", 0, kMaxExactInteger, spec.seed);
  if (const JsonValue* v = doc.Find("crossover_rate")) {
    spec.crossover_rate = v->AsNumber();
  }
  if (const JsonValue* v = doc.Find("mutation_rate")) {
    spec.mutation_rate = v->AsNumber();
  }
  return spec;
}

std::vector<SchemeSpec> JobSpec::BuildSchemes() const {
  if (schemes.empty()) {
    throw std::invalid_argument("sweep job has no schemes");
  }
  std::vector<SchemeSpec> out;
  out.reserve(schemes.size());
  for (const SchemeOverride& so : schemes) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.ApplyOverrides(base_overrides);
    cfg.ApplyOverrides(so.overrides);
    out.push_back({so.label, cfg});
  }
  return out;
}

namespace {

/// Thrown from the sweep progress hook to unwind a preempted sweep job.
struct JobPreempted {};

}  // namespace

JobOutcome RunJob(const JobSpec& spec, const std::string& result_dir,
                  const std::string& checkpoint_dir,
                  const std::function<bool()>& should_stop,
                  const JobProgressFn& progress) {
  std::filesystem::create_directories(result_dir);
  JobOutcome outcome;

  if (spec.type == JobType::kSweep) {
    const std::vector<SchemeSpec> schemes = spec.BuildSchemes();
    const std::vector<WorkloadProfile> workloads =
        WorkloadSubset(spec.workloads);
    SweepOptions so;
    so.lengths = spec.lengths;
    so.threads = spec.threads;
    so.checkpoint_dir = checkpoint_dir;
    so.resume = !checkpoint_dir.empty();
    so.progress = [&](const std::string& scheme, const std::string& workload,
                      int done, int total) {
      if (progress) progress(done, total, scheme + " x " + workload);
      if (should_stop && should_stop()) throw JobPreempted{};
    };
    try {
      const SweepResult result = RunSweep(schemes, workloads, so);
      outcome.artifact = result_dir + "/sweep.json";
      result.WriteJsonFile(outcome.artifact, spec.baseline);
      outcome.completed = true;
    } catch (const JobPreempted&) {
      outcome.completed = false;
    }
    return outcome;
  }

  // pareto-search
  SearchOptions opts;
  opts.strategy = spec.strategy;
  opts.objectives = spec.objectives;
  opts.population = spec.population;
  opts.max_evaluations = spec.max_evaluations;
  opts.seed = spec.seed;
  opts.crossover_rate = spec.crossover_rate;
  opts.mutation_rate = spec.mutation_rate;
  opts.lengths = spec.lengths;
  opts.threads = spec.threads;
  opts.checkpoint_dir = checkpoint_dir;
  opts.resume = !checkpoint_dir.empty();
  opts.should_stop = should_stop;
  if (progress) {
    opts.on_design = [&](const EvaluatedDesign& d, int evaluated, int budget) {
      progress(evaluated, budget, d.label);
    };
  }
  const ParetoResult result =
      ParetoSearch(spec.space, WorkloadSubset(spec.workloads), opts);
  if (result.completed) {
    outcome.artifact = result_dir + "/pareto.json";
    result.WriteJsonFile(outcome.artifact);
    outcome.completed = true;
  }
  return outcome;
}

}  // namespace gnoc
