// A small streaming JSON writer for structured benchmark output.
//
// The sweep engine serializes `SweepResult`s with it so bench runs can emit
// machine-readable trajectories next to the human-readable tables. It
// handles commas, nesting and indentation; the caller supplies a valid
// sequence of calls (keys only inside objects, matched Begin/End):
//
//   JsonWriter w(out);
//   w.BeginObject();
//   w.Key("ipc").Value(1.42);
//   w.Key("workloads").BeginArray().Value("BFS").Value("KMN").EndArray();
//   w.EndObject();
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gnoc {

/// Escapes `s` for use inside a JSON string literal (no surrounding
/// quotes). Escapes the two mandatory characters, the C0 control range and
/// nothing else, so round-tripping through any JSON parser returns `s`.
std::string JsonEscape(const std::string& s);

/// Formats a double as a JSON number: shortest representation that parses
/// back to the same value. Non-finite values have no JSON encoding and
/// become "null".
std::string JsonNumber(double value);

class JsonWriter {
 public:
  /// Writes to `out` with `indent` spaces per nesting level; indent 0
  /// produces compact single-line output.
  explicit JsonWriter(std::ostream& out, int indent = 2);

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Writes an object key; the next call must produce its value.
  JsonWriter& Key(const std::string& key);

  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v);
  JsonWriter& Value(double v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(int v);
  JsonWriter& Value(bool v);
  JsonWriter& Null();

 private:
  struct Scope {
    char close;       // '}' or ']'
    bool has_items = false;
  };

  /// Comma/newline/indent bookkeeping before a value or key is emitted.
  void Lead();
  void NewlineIndent();

  std::ostream& out_;
  int indent_;
  std::vector<Scope> stack_;
  bool after_key_ = false;
};

/// A parsed JSON value — a minimal recursive-descent reader for the small
/// machine-written documents this codebase produces itself (checkpoint
/// manifests, bench result files). Numbers are doubles; object keys keep
/// document order.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// Parses one JSON document (trailing whitespace allowed, nothing else).
  /// Throws std::invalid_argument with an offset on malformed input.
  static JsonValue Parse(const std::string& text);

  Kind kind() const { return kind_; }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;

  /// Object member lookup: Find returns nullptr when absent, At throws.
  const JsonValue* Find(const std::string& key) const;
  const JsonValue& At(const std::string& key) const;

  /// Object members in document order (key, value). Throws on non-objects;
  /// lets callers iterate free-form objects (e.g. job-spec config blocks).
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace gnoc
