// JSON text helpers shared by every writer in the tree (the serving
// protocol, the access log, structured logs, metrics dumps, the flight
// recorder and Chrome traces), so all of them escape and print numbers
// the same way.
#ifndef ALCOP_SUPPORT_JSON_H_
#define ALCOP_SUPPORT_JSON_H_

#include <string>

namespace alcop {
namespace support {

// Escapes a string for embedding in a JSON literal: quote, backslash,
// \n, \t and \r by name, every other control character as \u00XX.
std::string JsonEscape(const std::string& text);

// A double as a JSON number. %.17g round-trips every finite value exactly
// and deterministically for a given bit pattern, and integers print
// without an exponent; NaN and infinities (not JSON) print as null.
std::string NumberToJson(double value);

}  // namespace support
}  // namespace alcop

#endif  // ALCOP_SUPPORT_JSON_H_
