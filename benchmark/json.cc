#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vsd::benchmark {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Value(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Separate();
  out_ += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Document() {
    JsonValue value;
    if (!Parse(&value, 0)) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Parse(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (Consume("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Consume("false")) {
      out->type = JsonValue::Type::kBool;
      return true;
    }
    if (Consume("null")) return true;
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    const double value = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    pos_ += static_cast<size_t>(end - rest.c_str());
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // The benchmark writes \u only for control characters.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          *out += e;
      }
    }
    return false;
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;
    SkipSpace();
    if (Consume("]")) return true;
    for (;;) {
      JsonValue element;
      if (!Parse(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (Consume("]")) return true;
      if (!Consume(",")) return false;
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;
    SkipSpace();
    if (Consume("}")) return true;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(":")) return false;
      JsonValue value;
      if (!Parse(&value, depth + 1)) return false;
      out->object[key] = std::move(value);
      SkipSpace();
      if (Consume("}")) return true;
      if (!Consume(",")) return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace vsd::benchmark
