#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace alcop {
namespace support {

namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

template <typename Integer>
void AppendInteger(std::string* out, Integer value) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(&out, text);
  return out;
}

std::string NumberToJson(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::Key(std::string_view key) {
  members_ += ",\"";
  AppendEscaped(&members_, key);
  members_ += "\":";
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  members_ += '"';
  AppendEscaped(&members_, value);
  members_ += '"';
  return *this;
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  Key(key);
  members_ += NumberToJson(value);
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, int64_t value) {
  Key(key);
  AppendInteger(&members_, value);
  return *this;
}

JsonObject& JsonObject::Uint(std::string_view key, uint64_t value) {
  Key(key);
  AppendInteger(&members_, value);
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  Key(key);
  members_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  members_ += json;
  return *this;
}

JsonObject& JsonObject::Append(const JsonObject& other) {
  members_ += other.members_;
  return *this;
}

std::string JsonObject::Object() const {
  std::string out;
  out.reserve(members_.size() + 2);
  out += '{';
  if (!members_.empty()) out.append(members_, 1);  // drop the leading comma
  out += '}';
  return out;
}

std::string JsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += ',';
    out += elements[i];
  }
  out += ']';
  return out;
}

}  // namespace support
}  // namespace alcop
