// Typed command-line interface layered on Config.
//
// Every driver builds a FlagSet describing the flags it accepts — name,
// type, default, doc string, optional validator — and parses its argv
// through it:
//
//   FlagSet flags("fig8_vc_monopolizing", "Fig. 8: VC monopolizing sweep");
//   flags.AddDouble("scale", 1.0, "warmup/measure scaling factor");
//   flags.AddEnum("topology", "mesh", "interconnect topology",
//                 {"mesh", "torus"});
//   const Config args = flags.Parse(argc, argv);
//   if (flags.help_requested()) { std::cout << flags.Help(); return 0; }
//
// Parse rejects unknown keys (with a did-you-mean suggestion) and
// malformed or out-of-range values, and auto-handles two flags every
// driver shares:
//
//   help          (also --help / -h) print the generated help text
//   config=<file> load key=value defaults from a file; explicit
//                 command-line flags win (defaults < file < CLI)
//
// The returned Config contains only keys that were explicitly provided
// (on the command line or in the config file) — registered defaults are
// documentation and are applied by the driver's usual fallback arguments,
// so programmatically-built configurations are never clobbered.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/enum_registry.hpp"

namespace gnoc {

/// Thrown on CLI misuse: unknown flag, malformed value, failed validation.
/// Drivers catch it at top level and exit non-zero with the message.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A typed flag registry with generated help text.
class FlagSet {
 public:
  /// Validators return an error message, or "" when the value is fine.
  using IntCheck = std::function<std::string(std::int64_t)>;
  using DoubleCheck = std::function<std::string(double)>;
  using StringCheck = std::function<std::string(const std::string&)>;

  FlagSet(std::string program, std::string summary);

  FlagSet& AddInt(const std::string& name, std::int64_t def,
                  const std::string& doc, IntCheck check = nullptr);
  FlagSet& AddDouble(const std::string& name, double def,
                     const std::string& doc, DoubleCheck check = nullptr);
  FlagSet& AddBool(const std::string& name, bool def, const std::string& doc);
  FlagSet& AddString(const std::string& name, const std::string& def,
                     const std::string& doc, StringCheck check = nullptr);
  /// A string flag restricted to `values` (listed in the help text).
  FlagSet& AddEnum(const std::string& name, const std::string& def,
                   const std::string& doc, std::vector<std::string> values);
  /// Same, accepting what `registry.Parse` accepts (any case, aliases
  /// too), so flag choices and the Parse* function can never drift apart.
  /// The help text and the did-you-mean list the canonical names.
  template <typename E>
  FlagSet& AddEnum(const std::string& name, const std::string& def,
                   const std::string& doc, const EnumRegistry<E>& registry) {
    AddEnum(name, def, doc, registry.CanonicalNames());
    flags_.back().string_check =
        ParsedBy([registry](const std::string& v) { registry.Parse(v); });
    return *this;
  }

  /// A string validator that accepts what `parse` accepts: the message of
  /// the exception `parse` throws, or "".
  template <typename Parse>
  static StringCheck ParsedBy(Parse parse) {
    return [parse](const std::string& value) -> std::string {
      try {
        parse(value);
        return "";
      } catch (const std::exception& e) {
        return e.what();
      }
    };
  }

  /// Registers `from`'s flag `name` here — type, default, doc and
  /// validator — so one definition serves every FlagSet that takes the
  /// flag. Throws CliError when `from` has no such flag.
  FlagSet& Copy(const FlagSet& from, const std::string& name);

  bool Contains(const std::string& name) const;

  /// Parses "key=value" tokens from argv[first..). Loads `config=<file>`
  /// first when present, then lets command-line values win. Repeated
  /// occurrences of a flag all validate and are kept in order (see
  /// Config::GetList); scalar getters stay last-wins. Throws CliError
  /// on unknown keys, malformed values or failed validation. When a help
  /// token (help, help=..., --help, -h) appears, sets help_requested() and
  /// returns the flags parsed so far.
  Config Parse(int argc, const char* const* argv, int first = 1);

  /// Validates every key and value of `config` as Parse does (unknown keys
  /// with a did-you-mean, types, validators), with no `config=` or help
  /// handling: both are unknown keys here. Throws CliError.
  void Check(const Config& config) const;

  /// True when the last Parse saw a help request.
  bool help_requested() const { return help_requested_; }

  /// The generated help text: usage line, summary and one line per flag
  /// (type, default, doc), in registration order.
  std::string Help() const;

  const std::string& program() const { return program_; }

 private:
  enum class Kind : std::uint8_t { kInt, kDouble, kBool, kString, kEnum };

  struct Flag {
    std::string name;
    Kind kind = Kind::kString;
    std::string def;  ///< default rendered as text (help only)
    std::string doc;
    std::vector<std::string> enum_values;
    IntCheck int_check;
    DoubleCheck double_check;
    /// kString: the validator. kEnum: when set, it decides which values
    /// are accepted, in place of `enum_values`.
    StringCheck string_check;
  };

  FlagSet& Register(Flag flag);
  /// Type-checks and validates one value; throws CliError.
  void Validate(const Flag& flag, const std::string& value) const;
  /// Throws CliError for `key`, suggesting the closest registered flag.
  [[noreturn]] void ThrowUnknown(const std::string& key) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::map<std::string, std::size_t> index_;
  bool help_requested_ = false;
};

}  // namespace gnoc
