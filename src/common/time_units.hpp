#pragma once

/// \file time_units.hpp
/// Simulated-time representation for the DTP reproduction.
///
/// All simulated real time is carried as an integer number of femtoseconds
/// (`fs_t`). Femtosecond granularity lets every oscillator period used by the
/// paper be represented exactly:
///
///   10 GbE PCS clock: 156.25 MHz -> 6.4 ns  = 6,400,000 fs
///   +-100 ppm bound:               +-0.64 ps = +-640 fs
///
/// so tick-edge arithmetic is exact integer math. An int64_t of femtoseconds
/// covers ~2.56 hours of simulated time, far beyond any run in this repo.

#include <cstdint>
#include <string>

namespace dtpsim {

/// Simulated real time / durations, in femtoseconds.
using fs_t = std::int64_t;

/// Picoseconds-to-femtoseconds multiplier.
inline constexpr fs_t kFsPerPs = 1'000;
/// Nanoseconds-to-femtoseconds multiplier.
inline constexpr fs_t kFsPerNs = 1'000'000;
/// Microseconds-to-femtoseconds multiplier.
inline constexpr fs_t kFsPerUs = 1'000'000'000;
/// Milliseconds-to-femtoseconds multiplier.
inline constexpr fs_t kFsPerMs = 1'000'000'000'000;
/// Seconds-to-femtoseconds multiplier.
inline constexpr fs_t kFsPerSec = 1'000'000'000'000'000;

/// Construct a duration from picoseconds.
constexpr fs_t from_ps(fs_t ps) { return ps * kFsPerPs; }
/// Construct a duration from nanoseconds.
constexpr fs_t from_ns(fs_t ns) { return ns * kFsPerNs; }
/// Construct a duration from microseconds.
constexpr fs_t from_us(fs_t us) { return us * kFsPerUs; }
/// Construct a duration from milliseconds.
constexpr fs_t from_ms(fs_t ms) { return ms * kFsPerMs; }
/// Construct a duration from seconds.
constexpr fs_t from_sec(fs_t s) { return s * kFsPerSec; }

/// Convert a femtosecond duration to (truncated) nanoseconds.
constexpr fs_t to_ns(fs_t t) { return t / kFsPerNs; }
/// Convert a femtosecond duration to fractional nanoseconds.
constexpr double to_ns_f(fs_t t) { return static_cast<double>(t) / static_cast<double>(kFsPerNs); }
/// Convert a femtosecond duration to fractional microseconds.
constexpr double to_us_f(fs_t t) { return static_cast<double>(t) / static_cast<double>(kFsPerUs); }
/// Convert a femtosecond duration to fractional seconds.
constexpr double to_sec_f(fs_t t) { return static_cast<double>(t) / static_cast<double>(kFsPerSec); }

namespace literals {
// User-defined literals so test and bench code reads like the paper:
// `25.6_ns`, `32_us`, `1_sec`.
constexpr fs_t operator""_fs(unsigned long long v) { return static_cast<fs_t>(v); }
constexpr fs_t operator""_ps(unsigned long long v) { return static_cast<fs_t>(v) * kFsPerPs; }
constexpr fs_t operator""_ns(unsigned long long v) { return static_cast<fs_t>(v) * kFsPerNs; }
constexpr fs_t operator""_ns(long double v) { return static_cast<fs_t>(v * static_cast<long double>(kFsPerNs)); }
constexpr fs_t operator""_us(unsigned long long v) { return static_cast<fs_t>(v) * kFsPerUs; }
constexpr fs_t operator""_us(long double v) { return static_cast<fs_t>(v * static_cast<long double>(kFsPerUs)); }
constexpr fs_t operator""_ms(unsigned long long v) { return static_cast<fs_t>(v) * kFsPerMs; }
constexpr fs_t operator""_sec(unsigned long long v) { return static_cast<fs_t>(v) * kFsPerSec; }
constexpr fs_t operator""_sec(long double v) { return static_cast<fs_t>(v * static_cast<long double>(kFsPerSec)); }
}  // namespace literals

/// Render a duration using the most readable unit, e.g. "25.6ns" or "1.28us".
std::string format_duration(fs_t t);

/// The checked conversion behind every externally supplied duration:
/// `value` units of `unit` femtoseconds (kFsPerSec for a seconds flag), plus
/// `offset` (a settle phase the run prepends). Throws std::invalid_argument
/// when `value` is not finite or the total lies outside [0, INT64_MAX] fs
/// (~9223 s): casting a double past 2^63 is undefined behaviour, and a
/// wrapped horizon would silently run a different experiment.
fs_t to_fs_checked(double value, fs_t unit, fs_t offset = 0);

/// Strictly parse a positive duration with a required unit suffix: "50us",
/// "1.5ms", "2s". The whole string must be consumed — "2,5ms", "50", a
/// non-positive value, one that rounds to 0 fs, or one past the fs_t range
/// throw std::invalid_argument, so a typo can never run a different
/// experiment.
/// This is the single parser behind every CLI / bench duration flag
/// (--metrics-interval, --holdover-ceiling, the watchdog knobs).
fs_t parse_duration(const std::string& text);

}  // namespace dtpsim
