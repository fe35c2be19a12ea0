#include "base/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace maybms {

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string AsciiToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

std::optional<uint64_t> ParseDecimal(std::string_view text, uint64_t max) {
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

namespace {
// Recursive matcher; patterns in queries are short so this is fine.
bool LikeMatchImpl(std::string_view s, std::string_view p) {
  while (true) {
    if (p.empty()) return s.empty();
    if (p.front() == '%') {
      // Collapse consecutive % and try all suffixes.
      while (!p.empty() && p.front() == '%') p.remove_prefix(1);
      if (p.empty()) return true;
      for (size_t i = 0; i <= s.size(); ++i) {
        if (LikeMatchImpl(s.substr(i), p)) return true;
      }
      return false;
    }
    if (s.empty()) return false;
    if (p.front() != '_' && p.front() != s.front()) return false;
    s.remove_prefix(1);
    p.remove_prefix(1);
  }
}
}  // namespace

bool LikeMatch(std::string_view s, std::string_view pattern) {
  return LikeMatchImpl(s, pattern);
}

std::string FormatDouble(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Inf" : "-Inf";
  // If integral and small, print without decimals.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace maybms
