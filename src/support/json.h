// The JSON writer shared by every compact emitter in the tree: alcopd
// replies and /healthz, the request record (access log and flight
// recorder), structured-log lines, the watchdog's stall dump and the
// CLI's --json, --log and client request bodies. They all build objects
// with JsonObject, so all of them escape strings and print numbers the
// same way. The pretty-printed reports (profile, PMU, calibration,
// roofline, diagnostics, the metrics registry and Chrome traces) keep
// their own layouts and call JsonEscape and NumberToJson directly where
// their rules are these.
#ifndef ALCOP_SUPPORT_JSON_H_
#define ALCOP_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace alcop {
namespace support {

// Escapes a string for embedding in a JSON literal: quote, backslash,
// \n, \t and \r by name, every other control character as \u00XX.
std::string JsonEscape(std::string_view text);

// A double as a JSON number. %.17g round-trips every finite value exactly
// and deterministically for a given bit pattern, and integers print
// without an exponent; NaN and infinities (not JSON) print as null.
std::string NumberToJson(double value);

// One compact JSON object, built member by member in call order:
//
//   JsonObject().Int("id", 7).Bool("ok", true).Str("what", name).Object()
//     == {"id":7,"ok":true,"what":"..."}
//
// Keys and Str values are escaped, Num prints with NumberToJson, Raw
// splices an already-rendered JSON value verbatim (a nested object or
// array), and Append splices another builder's members, which is how a
// structured-log line carries its caller's fields.
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, int64_t value);
  JsonObject& Uint(std::string_view key, uint64_t value);
  JsonObject& Bool(std::string_view key, bool value);
  JsonObject& Raw(std::string_view key, std::string_view json);
  JsonObject& Append(const JsonObject& other);

  // `{...}`; `{}` when no member was added.
  std::string Object() const;

 private:
  void Key(std::string_view key);

  std::string members_;  // `,"key":value` per member
};

// `[e0,e1,...]` from already-rendered JSON values.
std::string JsonArray(const std::vector<std::string>& elements);

}  // namespace support
}  // namespace alcop

#endif  // ALCOP_SUPPORT_JSON_H_
