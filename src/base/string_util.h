#ifndef MAYBMS_BASE_STRING_UTIL_H_
#define MAYBMS_BASE_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace maybms {

/// Lower-cases ASCII characters only (SQL identifiers/keywords).
std::string AsciiToLower(std::string_view s);

/// Upper-cases ASCII characters only.
std::string AsciiToUpper(std::string_view s);

/// Case-insensitive ASCII string equality.
bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` matches the SQL LIKE `pattern` with wildcards % and _.
bool LikeMatch(std::string_view s, std::string_view pattern);

/// Parses a decimal integer written with ASCII digits only — no sign,
/// whitespace or base prefix — whose value is at most `max`; nullopt for
/// anything else, an empty string and overflow included. The one parser
/// for integers from outside the process: environment variables,
/// command-line flags, SQL integer literals and CAST to INTEGER.
std::optional<uint64_t> ParseDecimal(std::string_view text, uint64_t max);

/// ParseDecimal into `*out`, bounded by the largest value of T (a
/// command-line flag's type). False, leaving `*out` alone, for a null or
/// rejected `text`.
template <typename T>
bool ParseDecimalInto(const char* text, T* out) {
  if (text == nullptr) return false;
  const std::optional<uint64_t> value = ParseDecimal(
      text, static_cast<uint64_t>(std::numeric_limits<T>::max()));
  if (!value.has_value()) return false;
  *out = static_cast<T>(*value);
  return true;
}

/// Formats a double the way we print probabilities/values: shortest
/// representation that round-trips, without trailing zeros.
std::string FormatDouble(double value);

}  // namespace maybms

#endif  // MAYBMS_BASE_STRING_UTIL_H_
