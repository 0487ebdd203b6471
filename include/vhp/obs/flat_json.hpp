// Scanner for the flat JSON objects the project writes and reads back: the
// JSONL lines of a recording (obs/recording.cpp) and the rule objects of a
// fault plan (fault/plan.cpp). Not a JSON parser: it finds `"key":` and
// reads the one value after it, so objects must be flat and strings must
// hold no escaped quotes.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "vhp/common/format.hpp"
#include "vhp/common/status.hpp"
#include "vhp/common/types.hpp"

namespace vhp::obs::flat_json {

/// The value text after `"key":` in `obj`: a string's contents without its
/// quotes, or a scalar up to the next ',', '}' or ']' with blanks trimmed.
/// nullopt when the key is absent.
inline std::optional<std::string_view> raw_value(std::string_view obj,
                                                 std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto pos = obj.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view rest = obj.substr(pos + needle.size());
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!rest.empty() && blank(rest.front())) rest.remove_prefix(1);
  if (!rest.empty() && rest.front() == '"') {
    rest.remove_prefix(1);
    const auto end = rest.find('"');
    if (end == std::string_view::npos) return std::nullopt;
    return rest.substr(0, end);
  }
  rest = rest.substr(0, rest.find_first_of(",}]"));
  while (!rest.empty() && blank(rest.back())) rest.remove_suffix(1);
  return rest;
}

/// The unsigned integer field `key` of `obj`: nullopt when absent,
/// kInvalidArgument naming the field when present but not a decimal
/// number that fits T.
template <typename T>
Result<std::optional<T>> number(std::string_view obj, std::string_view key) {
  const auto raw = raw_value(obj, key);
  if (!raw.has_value()) return std::optional<T>{};
  constexpr u64 kMax = static_cast<u64>(std::numeric_limits<T>::max());
  u64 value = 0;
  bool fits = !raw->empty();
  for (char c : *raw) {
    const u64 digit = static_cast<u64>(c - '0');
    if (c < '0' || c > '9' || value > (kMax - digit) / 10) {
      fits = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!fits) {
    return Status{StatusCode::kInvalidArgument,
                  strformat("field \"{}\" is not a number in [0, {}]: {}",
                            key, kMax, *raw)};
  }
  return std::optional<T>{static_cast<T>(value)};
}

}  // namespace vhp::obs::flat_json
