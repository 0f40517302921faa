#include "noc/qos.hpp"

#include <bit>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/config.hpp"
#include "common/enum_registry.hpp"
#include "common/json.hpp"
#include "common/serialize.hpp"

namespace gnoc {

namespace {

const EnumRegistry<QosArbitration> kQosArbitrationRegistry{
    "qos",
    {
        {"none", QosArbitration::kNone},
        {"off", QosArbitration::kNone},
        {"strict", QosArbitration::kStrict},
        {"priority", QosArbitration::kStrict},
        {"wrr", QosArbitration::kWrr},
        {"weighted", QosArbitration::kWrr},
    }};

std::int64_t ParseSpecInt(const std::string& key, const std::string& text) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("qos_class " + key + ": not an integer: '" +
                                text + "'");
  }
}

double ParseSpecDouble(const std::string& key, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("qos_class " + key + ": not a number: '" +
                                text + "'");
  }
}

std::uint64_t HashBytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;  // FNV-1a prime
  }
  return h;
}

std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  return HashBytes(h, &v, sizeof(v));
}

std::uint64_t HashStr(std::uint64_t h, const std::string& s) {
  h = HashU64(h, s.size());
  return HashBytes(h, s.data(), s.size());
}

}  // namespace

const char* QosArbitrationName(QosArbitration a) {
  return kQosArbitrationRegistry.Name(a);
}

QosArbitration ParseQosArbitration(const std::string& text) {
  return kQosArbitrationRegistry.Parse(text);
}

std::array<TrafficClassSpec, kNumClasses> QosConfig::DefaultClasses() {
  std::array<TrafficClassSpec, kNumClasses> classes;
  for (int c = 0; c < kNumClasses; ++c) {
    classes[c].name = ClassName(static_cast<TrafficClass>(c));
  }
  return classes;
}

bool QosConfig::Enabled() const {
  if (arbitration != QosArbitration::kNone) return true;
  for (const TrafficClassSpec& s : classes) {
    if (s.priority != 0 || s.rate > 0.0 || s.burst != 0 ||
        s.reserved_vcs != 0 || s.p99_target > 0.0) {
      return true;
    }
  }
  return false;
}

bool QosConfig::RegulatesInjection() const {
  for (const TrafficClassSpec& s : classes) {
    if (s.rate > 0.0) return true;
  }
  return false;
}

bool QosConfig::ReservesVcs() const {
  for (const TrafficClassSpec& s : classes) {
    if (s.reserved_vcs > 0) return true;
  }
  return false;
}

TrafficClassSpec ParseTrafficClassSpec(const std::string& text) {
  // Split on commas; the first field is the class name, the rest are
  // key=value knobs.
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    fields.push_back(text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  TrafficClassSpec spec;
  spec.name = fields.front();
  if (spec.name.empty() || spec.name.find('=') != std::string::npos) {
    throw std::invalid_argument(
        "qos_class: expected '<name>[,prio=N][,rate=X][,burst=N][,vcs=N]"
        "[,p99=X]', got '" +
        text + "'");
  }
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("qos_class: expected key=value, got '" +
                                  field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "prio") {
      spec.priority = static_cast<int>(ParseSpecInt(key, value));
    } else if (key == "rate") {
      spec.rate = ParseSpecDouble(key, value);
      if (spec.rate < 0.0) {
        throw std::invalid_argument("qos_class rate: must be >= 0");
      }
    } else if (key == "burst") {
      spec.burst = static_cast<int>(ParseSpecInt(key, value));
      if (spec.burst < 0) {
        throw std::invalid_argument("qos_class burst: must be >= 0");
      }
    } else if (key == "vcs") {
      spec.reserved_vcs = static_cast<int>(ParseSpecInt(key, value));
      if (spec.reserved_vcs < 0) {
        throw std::invalid_argument("qos_class vcs: must be >= 0");
      }
    } else if (key == "p99") {
      spec.p99_target = ParseSpecDouble(key, value);
      if (spec.p99_target < 0.0) {
        throw std::invalid_argument("qos_class p99: must be >= 0");
      }
    } else {
      throw std::invalid_argument(
          "qos_class: unknown key '" + key +
          "' (expected prio|rate|burst|vcs|p99)");
    }
  }
  return spec;
}

void ApplyQosOverrides(QosConfig& qos, const Config& overrides) {
  if (overrides.Contains("qos")) {
    qos.arbitration = ParseQosArbitration(overrides.GetString("qos"));
  }
  const std::vector<std::string> specs = overrides.GetList("qos_class");
  if (specs.size() > static_cast<std::size_t>(kNumClasses)) {
    throw std::invalid_argument(
        "qos_class: at most " + std::to_string(kNumClasses) +
        " classes are modelled, got " + std::to_string(specs.size()));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    qos.classes[i] = ParseTrafficClassSpec(specs[i]);
  }
}

std::uint64_t HashQosConfig(std::uint64_t h, const QosConfig& qos) {
  h = HashU64(h, static_cast<std::uint64_t>(qos.arbitration));
  for (const TrafficClassSpec& s : qos.classes) {
    h = HashStr(h, s.name);
    h = HashU64(h, static_cast<std::uint64_t>(s.priority));
    h = HashU64(h, std::bit_cast<std::uint64_t>(s.rate));
    h = HashU64(h, static_cast<std::uint64_t>(s.burst));
    h = HashU64(h, static_cast<std::uint64_t>(s.reserved_vcs));
    h = HashU64(h, std::bit_cast<std::uint64_t>(s.p99_target));
  }
  return h;
}

void QosReport::Merge(const QosReport& other) {
  enabled = enabled || other.enabled;
  if (other.arbitration != QosArbitration::kNone) {
    arbitration = other.arbitration;
  }
  for (int c = 0; c < kNumClasses; ++c) {
    QosClassReport& mine = classes[c];
    const QosClassReport& theirs = other.classes[c];
    if (mine.name.empty()) mine.name = theirs.name;
    mine.throttle_cycles += theirs.throttle_cycles;
    mine.packets_delivered += theirs.packets_delivered;
    if (theirs.p99_latency > mine.p99_latency) {
      mine.p99_latency = theirs.p99_latency;
    }
    mine.slo_windows += theirs.slo_windows;
    mine.slo_violation_windows += theirs.slo_violation_windows;
    mine.slo_time_in_violation += theirs.slo_time_in_violation;
  }
}

void QosReport::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("enabled").Value(enabled);
  w.Key("arbitration").Value(QosArbitrationName(arbitration));
  w.Key("classes").BeginObject();
  for (const QosClassReport& c : classes) {
    w.Key(c.name).BeginObject();
    w.Key("priority").Value(c.priority);
    w.Key("rate").Value(c.rate);
    w.Key("burst").Value(c.burst);
    w.Key("reserved_vcs").Value(c.reserved_vcs);
    w.Key("p99_target").Value(c.p99_target);
    w.Key("throttle_cycles").Value(c.throttle_cycles);
    w.Key("packets_delivered").Value(c.packets_delivered);
    w.Key("p99_latency").Value(c.p99_latency);
    w.Key("slo").BeginObject();
    w.Key("windows").Value(c.slo_windows);
    w.Key("violation_windows").Value(c.slo_violation_windows);
    w.Key("time_in_violation").Value(c.slo_time_in_violation);
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

void QosReport::Save(Serializer& s) const { Fields(*this, s); }
void QosReport::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
