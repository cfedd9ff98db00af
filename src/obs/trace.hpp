#pragma once

/// \file trace.hpp
/// Chrome `trace_event`-format sink, viewable in Perfetto / chrome://tracing.
///
/// Two synthetic processes organize the file:
///
///   pid 1 — simulated time. One named track (tid) per device, interned via
///           `track()`. Offset samples become counter events ("C"), protocol
///           and fault milestones become instant events ("i"): faults,
///           recoveries, sentinel violations, BEACON-JOINs, port state
///           transitions. Timestamps are simulated fs rendered as µs.
///   pid 2 — wall clock. Complete events ("X") from the engine's profiling
///           scopes (bench attribution). Timestamps are steady_clock ns
///           rendered as µs.
///
/// Emission is mutex-protected because worker threads report JOINs and state
/// transitions mid-epoch; events are buffered in memory and sorted by
/// timestamp at write time so the output is stable. The sink is bounded
/// (`kMaxEvents`) — past the cap events are counted as dropped rather than
/// growing without limit, and the drop count is recorded in the file's
/// metadata so a truncated trace is never mistaken for a complete one.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time_units.hpp"

namespace dtpsim::obs {

class TraceSink {
 public:
  /// Simulated-time process / wall-clock process ids in the output.
  static constexpr int kSimPid = 1;
  static constexpr int kWallPid = 2;
  /// Event buffer bound (~4M events ≈ a few hundred MB of JSON).
  static constexpr std::size_t kMaxEvents = 1u << 22;

  /// Intern a named simulated-time track (one per device); emits the
  /// thread_name metadata record. Re-interning a label returns the same id
  /// (a hash lookup, so emit sites may look their device's track up by name).
  std::uint32_t track(const std::string& label);

  /// Instant event ("i", thread scope) on a device track at simulated `t`.
  void instant(std::uint32_t track, fs_t t, const std::string& name,
               const std::string& args_json = std::string());

  /// Instant event with global scope (fault injections, violations) — drawn
  /// across every track in Perfetto.
  void instant_global(fs_t t, const std::string& name,
                      const std::string& args_json = std::string());

  /// Counter sample ("C") at simulated `t`; `name` keys the counter track.
  void counter(std::uint32_t track, fs_t t, const std::string& name, double value);

  /// Wall-clock complete event ("X") under pid 2; times in steady_clock ns.
  void complete_wall(const std::string& name, std::uint64_t start_ns,
                     std::uint64_t dur_ns);

  std::size_t event_count() const;
  std::uint64_t dropped() const;

  /// Render the whole trace as a JSON array (Chrome trace "JSON Array
  /// Format": loaders accept a bare array of event objects).
  std::string to_json() const;

  /// Write `to_json()` to `path`; false + `*err` on any I/O failure.
  bool write(const std::string& path, std::string* err) const;

 private:
  struct Event {
    char ph = 'i';          ///< i / C / X / M
    int pid = kSimPid;
    std::uint32_t tid = 0;
    fs_t ts_fs = 0;         ///< simulated time (pid 1)
    std::uint64_t ts_ns = 0;   ///< wall time (pid 2)
    std::uint64_t dur_ns = 0;  ///< X events
    bool global_scope = false;
    std::string name;
    std::string args;  ///< raw JSON object body, without braces; may be empty
  };

  void push(Event e);
  static void append_event_json(std::string& out, const Event& e);

  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::unordered_map<std::string, std::uint32_t> track_ids_;  ///< label -> tid
  std::uint64_t dropped_ = 0;
};

}  // namespace dtpsim::obs
