#pragma once

/// \file metrics.hpp
/// Named metrics with periodic simulated-time-stamped snapshots.
///
/// A `MetricsRegistry` holds a flat table of metrics addressed by dense
/// `MetricId`s, so per-sample recording is an array index plus one store:
///
///   * counter    — monotone accumulator, bumped by instrumented code;
///   * gauge      — last-value cell, set by instrumented code;
///   * histogram  — cheap streaming aggregate (count/sum/min/max) per sample;
///   * probe      — pull-model gauge: a callback evaluated at snapshot time.
///
/// `snapshot(t)` appends one `(t, value)` point to every metric's series.
/// Probes make the registry safe under the parallel engine without atomics:
/// instrumented state owned by worker shards is *read* only at snapshot
/// time, which the obs::Session drives from a global-affinity periodic
/// process — i.e. on the coordinator thread while every worker is parked.
/// Direct counter/gauge/histogram writes are therefore reserved for
/// coordinator-context code (chaos injection, probes, global events).
///
/// Snapshots are deterministic: timestamps are simulated femtoseconds and
/// values are rendered with round-trip precision, so a serial and a parallel
/// run of the same seed produce byte-identical metrics JSON.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time_units.hpp"

namespace dtpsim::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kProbe };

const char* metric_kind_name(MetricKind k);

using MetricId = std::uint32_t;

class MetricsRegistry {
 public:
  struct Point {
    fs_t t = 0;
    double value = 0;
  };

  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    double value = 0;  ///< live cell (counter/gauge); last probe result
    // Histogram streaming aggregate. `min`/`max` are meaningless until
    // `samples > 0` — the JSON writer omits them for an empty histogram
    // rather than inventing a zero (see IntHistogram's empty-state rules).
    std::uint64_t samples = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::function<double()> probe;  ///< kProbe only
    std::vector<Point> points;      ///< one entry per snapshot (see counter())
  };

  /// Register a metric (coordinator-only; names should be unique — a
  /// duplicate name returns the existing id so wiring code can be lazy).
  /// A counter, gauge or histogram registered after snapshots began gets a
  /// zero point at each of them, so its series lines up with
  /// snapshot_times(); a probe's series starts at its registration.
  MetricId counter(const std::string& name);
  MetricId gauge(const std::string& name);
  MetricId histogram(const std::string& name);
  MetricId probe(const std::string& name, std::function<double()> fn);

  /// Record into a metric (coordinator context; see file comment).
  void add(MetricId id, double delta = 1.0);  ///< counter
  void set(MetricId id, double v);            ///< gauge
  void observe(MetricId id, double sample);   ///< histogram

  /// Run `fn` at the start of every snapshot, before any probe fires. This
  /// is the shared-aggregation hook: when several probes expose fields of
  /// one expensive aggregate (e.g. SimStats, whose collection walks every
  /// shard queue), the owner refreshes a cache here once and the probes read
  /// the cache — one O(shards) walk per snapshot instead of one per probe.
  void before_snapshot(std::function<void()> fn);

  /// Sample every metric (probes are evaluated here) and append one point
  /// per metric stamped with simulated time `t`.
  void snapshot(fs_t t);

  std::size_t size() const { return metrics_.size(); }
  std::size_t snapshot_count() const { return snapshot_times_.size(); }
  const std::vector<fs_t>& snapshot_times() const { return snapshot_times_; }
  const Metric& metric(MetricId id) const { return metrics_.at(id); }
  /// Lookup by name; nullptr if absent.
  const Metric* find(const std::string& name) const;

  /// Render the whole registry as a JSON document (see DESIGN.md §11).
  std::string to_json() const;

  /// Write `to_json()` to `path`. On failure returns false and describes the
  /// problem in `*err` (never silently succeeds — the BENCH writer audit).
  bool write_json(const std::string& path, std::string* err) const;

 private:
  MetricId intern(const std::string& name, MetricKind kind);

  std::vector<Metric> metrics_;
  std::vector<fs_t> snapshot_times_;
  std::vector<std::function<void()>> pre_snapshot_;  ///< see before_snapshot
};

}  // namespace dtpsim::obs
