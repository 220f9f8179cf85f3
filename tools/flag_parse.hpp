// Strict parsing of the tools' numeric flag values (cstf_cli, cstf_info,
// cstf_serve). The whole token must parse and land in range: trailing
// garbage, overflow and out-of-range values are rejected at the flag instead
// of being truncated the way atoi/atof would, or failing a check deep inside
// the run. On a bad value each parser calls the tool's usage(message), which
// prints the message and the usage text and exits.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

namespace cstf::tools {

/// The tool's usage(): prints `message` and the usage text, then exits.
using Usage = void (*)(const char* message);

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// True, with the value in `out`, when all of `text` is one finite number.
inline bool parse_finite(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(*out);
}

/// An integer in [min_value, max_value].
inline long long parse_count_flag(
    Usage usage, const std::string& flag, const std::string& text,
    long long min_value,
    long long max_value = std::numeric_limits<long long>::max()) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      v < min_value || v > max_value) {
    const std::string range =
        max_value == std::numeric_limits<long long>::max()
            ? ">= " + std::to_string(min_value)
            : "in [" + std::to_string(min_value) + ", " +
                  std::to_string(max_value) + "]";
    usage((flag + " must be an integer " + range + ", got: " + text).c_str());
  }
  return v;
}

/// An unsigned 64-bit integer (a seed): decimal digits only.
inline std::uint64_t parse_seed_flag(Usage usage, const std::string& flag,
                                     const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE) {
    usage((flag + " must be an integer in [0, " +
           std::to_string(std::numeric_limits<std::uint64_t>::max()) +
           "], got: " + text)
              .c_str());
  }
  return v;
}

/// A finite number in [min_value, max_value].
inline double parse_real_flag(Usage usage, const std::string& flag,
                              const std::string& text,
                              double min_value = -kInf,
                              double max_value = kInf) {
  double v = 0.0;
  if (!parse_finite(text, &v) || v < min_value || v > max_value) {
    std::ostringstream msg;
    msg << flag << " must be a finite number";
    if (max_value < kInf) {
      msg << " in [" << min_value << ", " << max_value << "]";
    } else if (min_value > -kInf) {
      msg << " >= " << min_value;
    }
    msg << ", got: " << text;
    usage(msg.str().c_str());
  }
  return v;
}

/// A finite, non-negative number of seconds.
inline double parse_seconds_flag(Usage usage, const std::string& flag,
                                 const std::string& text) {
  double v = 0.0;
  if (!parse_finite(text, &v) || v < 0.0) {
    usage((flag + " must be a finite non-negative number of seconds, got: " +
           text)
              .c_str());
  }
  return v;
}

/// A finite, positive byte count.
inline double parse_bytes_flag(Usage usage, const std::string& flag,
                               const std::string& text) {
  double v = 0.0;
  if (!parse_finite(text, &v) || !(v > 0.0)) {
    usage((flag + " must be a positive byte count, got: " + text).c_str());
  }
  return v;
}

}  // namespace cstf::tools
