#include "common/time_units.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dtpsim {

fs_t to_fs_checked(double value, fs_t unit, fs_t offset) {
  const double fs = value * static_cast<double>(unit);
  // 2^63 is exact in a double, and every double below it fits an int64_t.
  fs_t out = 0;
  if (std::isfinite(fs) && fs >= 0 && fs < 0x1p63 &&
      !__builtin_add_overflow(static_cast<fs_t>(fs), offset, &out) && out >= 0)
    return out;
  const std::string settle = offset != 0 ? " + " + format_duration(offset) + " settle" : "";
  char why[160];
  std::snprintf(why, sizeof(why), "%g s%s %s", fs / static_cast<double>(kFsPerSec),
                settle.c_str(),
                std::isfinite(fs) ? "lies outside the simulated-time range [0 s, 9223.372 s]"
                                  : "is not a finite duration");
  throw std::invalid_argument(why);
}

fs_t parse_duration(const std::string& text) {
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str())
    throw std::invalid_argument("'" + text + "' is not a duration");
  const std::string suffix(end);
  fs_t unit = 0;
  if (suffix == "ns") unit = kFsPerNs;
  else if (suffix == "us") unit = kFsPerUs;
  else if (suffix == "ms") unit = kFsPerMs;
  else if (suffix == "s") unit = kFsPerSec;
  else
    throw std::invalid_argument("'" + text +
                                "' needs a duration unit suffix (ns|us|ms|s)");
  if (!(x > 0))
    throw std::invalid_argument("duration '" + text + "' must be positive");
  const fs_t out = to_fs_checked(x, unit);
  // A positive value below one femtosecond would silently become 0: an
  // empty horizon, or a period the consumer replaces with its default.
  if (out == 0)
    throw std::invalid_argument("duration '" + text + "' rounds to 0 fs");
  return out;
}

std::string format_duration(fs_t t) {
  const bool neg = t < 0;
  const double a = std::abs(static_cast<double>(t));
  const char* unit = "fs";
  double value = a;
  if (a >= static_cast<double>(kFsPerSec)) {
    unit = "s";
    value = a / static_cast<double>(kFsPerSec);
  } else if (a >= static_cast<double>(kFsPerMs)) {
    unit = "ms";
    value = a / static_cast<double>(kFsPerMs);
  } else if (a >= static_cast<double>(kFsPerUs)) {
    unit = "us";
    value = a / static_cast<double>(kFsPerUs);
  } else if (a >= static_cast<double>(kFsPerNs)) {
    unit = "ns";
    value = a / static_cast<double>(kFsPerNs);
  } else if (a >= static_cast<double>(kFsPerPs)) {
    unit = "ps";
    value = a / static_cast<double>(kFsPerPs);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.4g%s", neg ? "-" : "", value, unit);
  return buf;
}

}  // namespace dtpsim
