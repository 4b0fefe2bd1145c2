#include "src/common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace dime {

std::string ToLower(std::string_view s) {
  std::string out;
  ToLowerInto(s, &out);
  return out;
}

void ToLowerInto(std::string_view s, std::string* out) {
  out->resize(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    (*out)[i] =
        static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
  }
}

std::string_view Trim(std::string_view s) {
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

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitAndTrim(std::string_view s, char delim) {
  std::vector<std::string> out;
  for (const std::string& piece : Split(s, delim)) {
    std::string_view trimmed = Trim(piece);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // std::from_chars for double is available in libstdc++ >= 11.
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

StatusOr<uint64_t> ParseUintFlag(std::string_view flag, std::string_view value,
                                 uint64_t min, uint64_t max) {
  uint64_t parsed = 0;
  auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (value.empty() || ec != std::errc() ||
      ptr != value.data() + value.size() || parsed < min || parsed > max) {
    return InvalidArgumentError(
        std::string(flag) + ": expected an integer in [" +
        std::to_string(min) + ", " + std::to_string(max) + "], got \"" +
        std::string(value) + "\"");
  }
  return parsed;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

}  // namespace dime
