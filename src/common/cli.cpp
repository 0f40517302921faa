#include "common/cli.hpp"

#include <algorithm>
#include <sstream>

namespace gnoc {

namespace {

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "int";
    case 1:
      return "double";
    case 2:
      return "bool";
    case 3:
      return "string";
    case 4:
      return "enum";
    default:
      return "?";
  }
}

/// Levenshtein edit distance (classic two-row DP) for did-you-mean.
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

bool IsHelpToken(const std::string& token) {
  return token == "help" || token == "--help" || token == "-h" ||
         token.rfind("help=", 0) == 0;
}

}  // namespace

FlagSet::FlagSet(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

FlagSet& FlagSet::Register(Flag flag) {
  if (flag.name.empty()) throw CliError("flag name must not be empty");
  if (flag.name == "help" || flag.name == "config") {
    throw CliError("flag name '" + flag.name + "' is reserved");
  }
  if (index_.count(flag.name) != 0) {
    throw CliError("flag '" + flag.name + "' registered twice");
  }
  index_.emplace(flag.name, flags_.size());
  flags_.push_back(std::move(flag));
  return *this;
}

FlagSet& FlagSet::AddInt(const std::string& name, std::int64_t def,
                         const std::string& doc, IntCheck check) {
  Flag f;
  f.name = name;
  f.kind = Kind::kInt;
  f.def = std::to_string(def);
  f.doc = doc;
  f.int_check = std::move(check);
  return Register(std::move(f));
}

FlagSet& FlagSet::AddDouble(const std::string& name, double def,
                            const std::string& doc, DoubleCheck check) {
  Flag f;
  f.name = name;
  f.kind = Kind::kDouble;
  std::ostringstream oss;
  oss << def;
  f.def = oss.str();
  f.doc = doc;
  f.double_check = std::move(check);
  return Register(std::move(f));
}

FlagSet& FlagSet::AddBool(const std::string& name, bool def,
                          const std::string& doc) {
  Flag f;
  f.name = name;
  f.kind = Kind::kBool;
  f.def = def ? "true" : "false";
  f.doc = doc;
  return Register(std::move(f));
}

FlagSet& FlagSet::AddString(const std::string& name, const std::string& def,
                            const std::string& doc, StringCheck check) {
  Flag f;
  f.name = name;
  f.kind = Kind::kString;
  f.def = def;
  f.doc = doc;
  f.string_check = std::move(check);
  return Register(std::move(f));
}

FlagSet& FlagSet::AddEnum(const std::string& name, const std::string& def,
                          const std::string& doc,
                          std::vector<std::string> values) {
  if (values.empty()) {
    throw CliError("enum flag '" + name + "' needs at least one value");
  }
  if (std::find(values.begin(), values.end(), def) == values.end()) {
    throw CliError("enum flag '" + name + "': default '" + def +
                   "' is not among its values");
  }
  Flag f;
  f.name = name;
  f.kind = Kind::kEnum;
  f.def = def;
  f.doc = doc;
  f.enum_values = std::move(values);
  return Register(std::move(f));
}

FlagSet& FlagSet::Copy(const FlagSet& from, const std::string& name) {
  const auto it = from.index_.find(name);
  if (it == from.index_.end()) {
    throw CliError("no flag '" + name + "' to copy from " + from.program_);
  }
  return Register(from.flags_[it->second]);
}

bool FlagSet::Contains(const std::string& name) const {
  return index_.count(name) != 0;
}

void FlagSet::ThrowUnknown(const std::string& key) const {
  std::string message = "unknown flag '" + key + "'";
  const Flag* best = nullptr;
  std::size_t best_distance = 0;
  for (const Flag& flag : flags_) {
    const std::size_t d = EditDistance(key, flag.name);
    if (best == nullptr || d < best_distance) {
      best = &flag;
      best_distance = d;
    }
  }
  // Only suggest a plausible near-miss, not an arbitrary flag.
  if (best != nullptr &&
      best_distance <= std::max<std::size_t>(2, key.size() / 3)) {
    message += "; did you mean '" + best->name + "'?";
  }
  message += " (run with help= for the flag list)";
  throw CliError(message);
}

void FlagSet::Validate(const Flag& flag, const std::string& value) const {
  const auto fail = [&](const std::string& why) {
    throw CliError("flag '" + flag.name + "': " + why);
  };
  switch (flag.kind) {
    case Kind::kInt: {
      std::int64_t v = 0;
      try {
        std::size_t pos = 0;
        v = std::stoll(value, &pos);
        if (pos != value.size()) throw std::invalid_argument("trailing");
      } catch (const std::exception&) {
        fail("'" + value + "' is not an integer");
      }
      if (flag.int_check) {
        const std::string why = flag.int_check(v);
        if (!why.empty()) fail(why);
      }
      break;
    }
    case Kind::kDouble: {
      double v = 0.0;
      try {
        std::size_t pos = 0;
        v = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument("trailing");
      } catch (const std::exception&) {
        fail("'" + value + "' is not a number");
      }
      if (flag.double_check) {
        const std::string why = flag.double_check(v);
        if (!why.empty()) fail(why);
      }
      break;
    }
    case Kind::kBool: {
      std::string v = value;
      std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      if (v != "true" && v != "false" && v != "1" && v != "0" && v != "yes" &&
          v != "no" && v != "on" && v != "off") {
        fail("'" + value + "' is not a bool (true/false)");
      }
      break;
    }
    case Kind::kString: {
      if (flag.string_check) {
        const std::string why = flag.string_check(value);
        if (!why.empty()) fail(why);
      }
      break;
    }
    case Kind::kEnum: {
      const bool accepted =
          flag.string_check
              ? flag.string_check(value).empty()
              : std::find(flag.enum_values.begin(), flag.enum_values.end(),
                          value) != flag.enum_values.end();
      if (!accepted) {
        std::string choices;
        for (const std::string& v : flag.enum_values) {
          if (!choices.empty()) choices += "|";
          choices += v;
        }
        // Same did-you-mean policy as unknown flag names, applied to the
        // value space: suggest the closest allowed value when plausible.
        const std::string* best = nullptr;
        std::size_t best_distance = 0;
        for (const std::string& v : flag.enum_values) {
          const std::size_t d = EditDistance(value, v);
          if (best == nullptr || d < best_distance) {
            best = &v;
            best_distance = d;
          }
        }
        std::string message = "'" + value + "' is not one of " + choices;
        if (best != nullptr &&
            best_distance <= std::max<std::size_t>(2, value.size() / 3)) {
          message += "; did you mean '" + *best + "'?";
        }
        fail(message);
      }
      break;
    }
  }
}

Config FlagSet::Parse(int argc, const char* const* argv, int first) {
  help_requested_ = false;
  Config from_file;
  Config from_cli;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (IsHelpToken(token)) {
      help_requested_ = true;
      continue;
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw CliError("malformed token '" + token +
                     "' (expected key=value; run with help= for the list)");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "config") {
      const Config file = Config::FromFile(value);
      Check(file);
      for (const std::string& file_key : file.keys()) {
        for (const std::string& file_value : file.GetList(file_key)) {
          from_file.Append(file_key, file_value);
        }
      }
      continue;
    }
    const auto it = index_.find(key);
    if (it == index_.end()) ThrowUnknown(key);
    Validate(flags_[it->second], value);
    from_cli.Append(key, value);
  }
  // Precedence: config-file values first, command-line values override.
  Config merged = from_file;
  merged.Merge(from_cli);
  return merged;
}

void FlagSet::Check(const Config& config) const {
  for (const std::string& key : config.keys()) {
    const auto it = index_.find(key);
    if (it == index_.end()) ThrowUnknown(key);
    for (const std::string& value : config.GetList(key)) {
      Validate(flags_[it->second], value);
    }
  }
}

std::string FlagSet::Help() const {
  std::ostringstream oss;
  oss << "usage: " << program_ << " [key=value]...\n";
  if (!summary_.empty()) oss << summary_ << "\n";
  oss << "\nflags:\n";
  std::size_t width = std::string("config").size();
  for (const Flag& flag : flags_) width = std::max(width, flag.name.size());
  const auto line = [&](const std::string& name, const std::string& type,
                        const std::string& def, const std::string& doc) {
    oss << "  " << name << std::string(width - name.size() + 2, ' ') << type;
    if (!def.empty()) oss << " (default " << def << ")";
    if (!doc.empty()) oss << "  " << doc;
    oss << '\n';
  };
  for (const Flag& flag : flags_) {
    std::string type = KindName(static_cast<int>(flag.kind));
    if (flag.kind == Kind::kEnum) {
      type.clear();
      for (const std::string& v : flag.enum_values) {
        if (!type.empty()) type += "|";
        type += v;
      }
    }
    line(flag.name, type, flag.def, flag.doc);
  }
  line("config", "file", "",
       "load key=value defaults from a file (command line wins)");
  line("help", "", "", "print this help text");
  return oss.str();
}

}  // namespace gnoc
