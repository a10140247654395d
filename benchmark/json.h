#ifndef VSD_BENCHMARK_JSON_H_
#define VSD_BENCHMARK_JSON_H_

// Just enough JSON for the benchmark's own files: a streaming writer for
// results, records and traces, and a parser `compare` uses to read them
// back along with BENCHMARK.json.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vsd::benchmark {

/// Streaming writer; commas and key/value separators are placed for the
/// caller. Numbers keep all 17 significant digits; non-finite numbers are
/// written as null, which JSON has no other spelling for.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(double value);
  JsonWriter& Value(int64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<int64_t>(value)); }
  JsonWriter& Value(bool value);
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) { return Value(std::string_view(value)); }
  /// Inserts an already serialized JSON value.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  /// One entry per open container: true until its first element.
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Parsed JSON value.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member `key` of an object, or null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses a whole document; nullopt on malformed input.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_JSON_H_
