#ifndef DIME_COMMON_STRING_UTIL_H_
#define DIME_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

/// \file string_util.h
/// Small string helpers shared by the tokenizers, dataset IO and rule
/// parsing. All functions are pure and allocation-explicit.

namespace dime {

/// Returns `s` with ASCII letters lower-cased.
std::string ToLower(std::string_view s);

/// Overwrites `*out` with ToLower(s), reusing its capacity: a loop that
/// lower-cases into one buffer allocates only when a string outgrows it.
/// `s` must not point into `*out`.
void ToLowerInto(std::string_view s, std::string* out);

/// Returns `s` without leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits `s` on `delim`. Empty pieces are kept ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on `delim`, trimming each piece and dropping empty pieces.
std::vector<std::string> SplitAndTrim(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Returns true if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Returns true if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// The largest millisecond value a numeric flag accepts (deadlines,
/// timeouts, intervals), so that each fits the int it is held in.
inline constexpr uint64_t kMaxFlagMillis = std::numeric_limits<int>::max();

/// Parses `value`, the argument of command-line flag `flag`, as a base-10
/// unsigned integer in [min, max]: all of it, digits only, with no sign,
/// whitespace or suffix. Otherwise INVALID_ARGUMENT with the message
/// `<flag>: expected an integer in [min, max], got "<value>"`. Numeric
/// flags go through this rather than strtoul, which reads "-1" as
/// ULONG_MAX and "abc" as 0.
StatusOr<uint64_t> ParseUintFlag(std::string_view flag, std::string_view value,
                                 uint64_t min, uint64_t max);

/// Formats `v` with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

}  // namespace dime

#endif  // DIME_COMMON_STRING_UTIL_H_
