#pragma once

/// Shared plumbing for the experiment harnesses in bench/: tiny CLI flag
/// parsing, series summaries, and ASCII strip plots so each binary prints
/// the same rows/series the paper's figures report.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/stats.hpp"
#include "common/time_units.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::benchutil {

/// Minimal `--key=value` flag reader. Numeric getters are strict: a value
/// that does not parse completely is a hard error (diagnostic + exit 2),
/// never a silent fall back to the default — `--seconds=2,5` must not
/// quietly run the 0.5 s experiment and report its numbers as 2.5 s ones.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Strict parsers (testable without the exit path): false = malformed.
  static bool parse_double_strict(const std::string& v, double* out) {
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == nullptr || end == v.c_str() || *end != '\0') return false;
    *out = x;
    return true;
  }
  /// A value past the long long range is malformed too, never saturated.
  static bool parse_int_strict(const std::string& v, long long* out) {
    try {
      *out = parse_int<long long>("", v, std::numeric_limits<long long>::min());
      return true;
    } catch (const std::invalid_argument&) {
      return false;
    }
  }

  double get_double(const std::string& key, double fallback) const {
    const auto v = find(key);
    if (v.empty()) return fallback;
    double out = 0;
    if (!parse_double_strict(v, &out)) die_malformed(key, v, "a number");
    return out;
  }
  long long get_int(const std::string& key, long long fallback) const {
    const auto v = find(key);
    if (v.empty()) return fallback;
    long long out = 0;
    if (!parse_int_strict(v, &out)) die_malformed(key, v, "an integer");
    return out;
  }
  /// Duration with a required unit suffix ("50us", "1.5ms"), via the shared
  /// strict parser in common/time_units.hpp.
  fs_t get_duration(const std::string& key, fs_t fallback) const {
    const auto v = find(key);
    if (v.empty()) return fallback;
    try {
      return parse_duration(v);
    } catch (const std::invalid_argument& e) {
      const std::string want =
          std::string("a duration with a unit suffix (ns|us|ms|s): ") + e.what();
      die_malformed(key, v, want.c_str());
    }
  }
  std::string get_string(const std::string& key, const std::string& fallback) const {
    const auto v = find(key);
    return v.empty() ? fallback : v;
  }
  bool has(const std::string& key) const {
    const std::string probe = "--" + key;
    for (const auto& a : args_)
      if (a == probe || a.rfind(probe + "=", 0) == 0) return true;
    return false;
  }

 private:
  [[noreturn]] static void die_malformed(const std::string& key, const std::string& v,
                                         const char* want) {
    std::fprintf(stderr, "bench: --%s=%s is not %s\n", key.c_str(), v.c_str(), want);
    std::exit(2);
  }

  std::string find(const std::string& key) const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_)
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    return "";
  }
  std::vector<std::string> args_;
};

/// Simulated duration flag: `--seconds=2.5` (experiment-specific default).
/// A value outside the fs_t range is a hard error (exit 2), like a malformed one.
inline fs_t duration_flag(const Flags& flags, double default_seconds) {
  const double seconds = flags.get_double("seconds", default_seconds);
  try {
    return to_fs_checked(seconds, kFsPerSec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench: --seconds=%g: %s\n", seconds, e.what());
    std::exit(2);
  }
}

/// Print "name: n=... min=... max=... mean=... sd=..." for a series.
inline void print_series_summary(const char* name, const TimeSeries& ts) {
  std::printf("  %-28s %s\n", name, ts.stats().summary().c_str());
}

/// Down-sample a series to `rows` lines of "t  value" (figure-style output).
inline void print_series(const TimeSeries& ts, std::size_t rows = 12,
                         const char* unit = "") {
  const auto& pts = ts.points();
  if (pts.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  const std::size_t stride = std::max<std::size_t>(1, pts.size() / rows);
  for (std::size_t i = 0; i < pts.size(); i += stride)
    std::printf("    t=%9.4fs  %+10.3f %s\n", pts[i].t_sec, pts[i].value, unit);
}

/// Max |value| in the tail fraction of a series (steady-state error).
inline double tail_max_abs(const TimeSeries& ts, double tail_fraction = 0.5) {
  const auto& pts = ts.points();
  double worst = 0;
  const auto start = static_cast<std::size_t>(
      static_cast<double>(pts.size()) * (1.0 - tail_fraction));
  for (std::size_t i = start; i < pts.size(); ++i)
    worst = std::max(worst, std::abs(pts[i].value));
  return worst;
}

/// Percentile over the tail of a series.
inline double tail_percentile(const TimeSeries& ts, double q, double tail_fraction = 0.5) {
  const auto& pts = ts.points();
  SampleSeries s;
  const auto start = static_cast<std::size_t>(
      static_cast<double>(pts.size()) * (1.0 - tail_fraction));
  for (std::size_t i = start; i < pts.size(); ++i) s.add(pts[i].value);
  return s.empty() ? 0.0 : s.percentile(q);
}

/// Banner for experiment output.
inline void banner(const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("==========================================================\n");
}

/// PASS/FAIL line for the shape checks each harness performs.
inline bool check(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

/// Print the event engine's instrumentation snapshot (one compact block:
/// totals, per-category executed counts, queue depth, throughput).
inline void print_sim_stats(const sim::Simulator& s) {
  const sim::SimStats st = s.stats();
  std::printf("  event loop: %llu executed / %llu scheduled / %llu cancelled, "
              "pending=%zu peak=%zu\n",
              static_cast<unsigned long long>(st.executed),
              static_cast<unsigned long long>(st.scheduled),
              static_cast<unsigned long long>(st.cancelled), st.pending,
              st.peak_pending);
  std::printf("  by category:");
  for (std::size_t i = 0; i < sim::kEventCategoryCount; ++i) {
    if (st.executed_by_category[i] == 0) continue;
    std::printf(" %s=%llu", sim::category_name(static_cast<sim::EventCategory>(i)),
                static_cast<unsigned long long>(st.executed_by_category[i]));
  }
  std::printf("\n");
  if (st.events_per_sec > 0)
    std::printf("  throughput: %.2f Mevents/s over %.3f s of run time\n",
                st.events_per_sec / 1e6, st.run_wall_seconds);
}

/// Destination for a harness's BENCH_*.json artifact: `--json-out=PATH`, or
/// `BENCH_<name>.json` in the working directory.
inline std::string json_out_path(const Flags& flags, const std::string& name) {
  return flags.get_string("json-out", "BENCH_" + name + ".json");
}

/// Incremental flat-JSON writer for the BENCH_*.json perf artifacts.
class BenchJson {
 public:
  void add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    fields_.push_back("\"" + key + "\": " + buf);
  }
  void add(const std::string& key, std::uint64_t v) {
    fields_.push_back("\"" + key + "\": " + std::to_string(v));
  }
  void add(const std::string& key, bool v) {
    fields_.push_back("\"" + key + "\": " + (v ? "true" : "false"));
  }
  void add(const std::string& key, const std::string& v) {
    fields_.push_back("\"" + key + "\": \"" + v + "\"");
  }
  /// Pre-rendered JSON value (array/object) — the caller owns its validity.
  /// Lets a sweep emit one entry per point ("k_sweep": [{...}, ...]) instead
  /// of a hardcoded key per point size.
  void add_raw(const std::string& key, const std::string& raw_json) {
    fields_.push_back("\"" + key + "\": " + raw_json);
  }

  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ", " : "") + fields_[i];
    }
    return out + "}";
  }

  /// Write the object to `path` and echo it on stdout as a "BENCH " line so
  /// transcripts capture the numbers even when the file is discarded. Any
  /// I/O failure is fatal (diagnostic + exit 1): a perf artifact that was
  /// asked for but silently missing poisons every downstream comparison.
  void write(const std::string& path) const {
    const std::string body = str();
    std::printf("BENCH %s\n", body.c_str());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open '%s' for writing\n", path.c_str());
      std::exit(1);
    }
    const bool wrote = std::fprintf(f, "%s\n", body.c_str()) >= 0;
    const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !flushed || !closed) {
      std::fprintf(stderr, "bench: short write to '%s' (disk full?)\n", path.c_str());
      std::exit(1);
    }
  }

 private:
  std::vector<std::string> fields_;
};

}  // namespace dtpsim::benchutil
