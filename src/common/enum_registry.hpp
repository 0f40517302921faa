// One registry per string-keyed enum: canonical names plus aliases, a
// case-insensitive Parse with a helpful error, the canonical Name of a
// value, and the choice list flag registration wants. Consolidates the
// Parse*/Name* pairs that used to be hand-rolled per enum (scheduling,
// topology, QoS arbitration, network division, MC scheduler, ...).
//
// Usage:
//   const EnumRegistry<SchedulingMode> kReg{"scheduling", {
//       {"full", SchedulingMode::kFull},
//       {"soa", SchedulingMode::kSoa},
//       {"event", SchedulingMode::kSoa},  // alias
//   }};
//   kReg.Parse("Event");         // -> kSoa
//   kReg.Name(kSoa);             // -> "soa" (first registered wins)
//   kReg.CanonicalNames();       // -> {"full", "soa"}
#pragma once

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace gnoc {

namespace enum_registry_detail {
inline std::string AsciiLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}
}  // namespace enum_registry_detail

template <typename E>
class EnumRegistry {
 public:
  struct Entry {
    const char* name;
    E value;
  };

  /// `subject` is the flag/key name used in parse-error messages.
  EnumRegistry(const char* subject, std::initializer_list<Entry> entries)
      : subject_(subject), entries_(entries) {}

  /// Parses a name or alias (case-insensitive). Throws
  /// std::invalid_argument naming `text` and listing the canonical choices
  /// on a miss.
  E Parse(const std::string& text) const {
    const std::string needle = enum_registry_detail::AsciiLower(text);
    for (const Entry& e : entries_) {
      if (enum_registry_detail::AsciiLower(e.name) == needle) return e.value;
    }
    throw std::invalid_argument(std::string(subject_) + " must be " +
                                Choices() + ", not '" + text + "'");
  }

  /// Canonical (first-registered) name of `value`.
  const char* Name(E value) const {
    for (const Entry& e : entries_) {
      if (e.value == value) return e.name;
    }
    return "?";
  }

  /// Canonical names in registration order, one per distinct value —
  /// the list to hand to FlagSet::AddEnum.
  std::vector<std::string> CanonicalNames() const {
    std::vector<std::string> names;
    std::vector<E> seen;
    for (const Entry& e : entries_) {
      if (std::find(seen.begin(), seen.end(), e.value) != seen.end()) continue;
      seen.push_back(e.value);
      names.emplace_back(e.name);
    }
    return names;
  }

  /// "a|b|c" over the canonical names, for errors and help text.
  std::string Choices() const {
    std::string out;
    for (const std::string& n : CanonicalNames()) {
      if (!out.empty()) out += '|';
      out += n;
    }
    return out;
  }

 private:
  const char* subject_;
  std::vector<Entry> entries_;
};

}  // namespace gnoc
