#pragma once

/// \file daemon.hpp
/// The DTP daemon — software access to the DTP counter (Section 5.1).
///
/// Hardware keeps the synchronized counter in the NIC; applications reach
/// it through a daemon that (a) periodically reads the counter register
/// over PCIe (a read whose latency is mostly-constant but jittery, with
/// occasional large spikes — the paper's Fig. 7a spikes), (b) timestamps
/// each read with the CPU's invariant TSC, (c) estimates the counter's rate
/// against the TSC, and (d) serves `get_dtp_counter()` by interpolation, the
/// same technique used for gettimeofday().
///
/// The daemon's error (offset_sw = estimate - hardware counter) reproduces
/// Fig. 7: usually under 16 ticks raw, under 4 ticks after a window-10
/// moving average.
///
/// Serving (DESIGN.md §16): on every accepted poll the daemon publishes its
/// interpolation state — anchor, rate, an honest uncertainty bound, and a
/// staleness deadline — to a lock-free seqlock `TimebasePage`, so any number
/// of application readers extrapolate the counter themselves at memory
/// speed instead of funnelling through the daemon.
///
/// Internally the anchor is an integer unit count plus a fractional
/// remainder (never a lone double): a double loses tick precision past 2^53
/// units, well inside long-horizon runs at 10G tick rates.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dtp/agent.hpp"
#include "dtp/timebase.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::dtp {

/// Nominal TSC rate.
inline constexpr double kTscHz = 3e9;

/// Daemon timing/latency model.
struct DaemonParams {
  fs_t poll_period = from_ms(50);       ///< MMIO read cadence
  fs_t sample_period = from_ms(5);      ///< offset_sw evaluation cadence
  double pcie_spike_prob = 0.02;        ///< rare contention spikes
  fs_t pcie_spike_mean = from_ns(500);
  /// Rate estimation baseline: the counter/TSC ratio is computed against a
  /// checkpoint this many polls old (a long baseline averages out per-read
  /// jitter, the technique RADclock-style daemons use).
  std::size_t rate_window_polls = 16;
  /// The quality filter's best-RTT baseline is the minimum over this many
  /// recent polls (accepted *or* rejected — rejected reads still measured
  /// their RTT).
  /// A windowed minimum, unlike an all-time ratchet, lets the filter
  /// re-learn after a legitimate permanent PCIe-latency regime change:
  /// once the pre-change samples age out, the floor steps up and reads are
  /// accepted again.
  std::size_t rtt_window_polls = 64;
  /// Staleness cap on the interpolation anchor. When the last accepted
  /// poll is older than this (after stop(), or during a PCIe storm that
  /// rejects every read), the estimate is still served but flagged stale —
  /// extrapolation on a dead anchor is unbounded and callers must know.
  /// 0 = 8 poll periods.
  fs_t max_anchor_age = 0;
};

/// Split-precision counter reading: exact integer units + fraction.
struct CounterReading {
  std::int64_t units = 0;
  double frac = 0.0;  ///< in [0, 1)
  /// Lossy double view (quantizes past 2^53 units).
  double value() const { return static_cast<double>(units) + frac; }
};

/// Software clock over one DTP agent.
class Daemon {
 public:
  /// \param agent    the NIC agent whose counter is read
  /// \param tsc_ppm  frequency error of this host's TSC (independent of the
  ///                 NIC oscillator — different crystal)
  Daemon(sim::Simulator& sim, Agent& agent, DaemonParams params, double tsc_ppm);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Begin polling (and, if sample_period > 0, recording offset_sw). Each
  /// start bumps the published epoch so readers can tell a restart from a
  /// continuously serving daemon.
  void start();
  void stop();

  /// Pin the daemon's poll/sample events to a partition-graph node (the
  /// host's shard) so parallel-engine runs stay deterministic: page
  /// publishes then order with same-shard readers by simulated time. Set
  /// before start(); -1 (default) inherits the ambient context.
  void set_affinity(std::int32_t node) {
    poller_.set_affinity(node);
    sampler_.set_affinity(node);
  }

  /// True once at least two polls have established a rate estimate.
  bool calibrated() const { return polls_ >= 2; }
  std::uint64_t polls() const { return polls_; }
  /// Reads discarded by the RTT quality filter.
  std::uint64_t rejected_polls() const { return rejected_; }

  /// The get_DTP_counter() API: estimated counter (in counter units) at
  /// time `now`. Requires calibrated(). Double — quantizes past 2^53
  /// units; precision-critical callers use get_dtp_counter_split().
  double get_dtp_counter(fs_t now) const;

  /// Split-precision estimate: integer units stay exact at any counter
  /// magnitude; only the sub-unit fraction is floating point.
  CounterReading get_dtp_counter_split(fs_t now) const;

  /// Estimated counter converted to nanoseconds since counter zero.
  double get_time_ns(fs_t now) const;

  /// Time since the last *accepted* poll (-1 before the first), and the
  /// staleness verdict against max_anchor_age. A stale clock still
  /// extrapolates, but its error is no longer bounded by the poll-time
  /// analysis — the timebase page carries the same flag to every reader.
  fs_t anchor_age(fs_t now) const;
  bool stale(fs_t now) const;
  fs_t max_anchor_age_effective() const;

  /// The lock-free page this daemon publishes to on every accepted poll.
  const TimebasePage& timebase() const { return page_; }

  /// Convenience: read the page at simulated time `now` (what an
  /// application reader on this host would see).
  TimebaseSample timebase_sample(fs_t now) const {
    return page_.read(tsc_now(now));
  }

  /// This host's TSC reading at simulated time `t`, as the 64-bit value
  /// application readers timestamp page reads with.
  std::int64_t tsc_now(fs_t t) const { return static_cast<std::int64_t>(tsc_at(t)); }

  /// offset_sw in ticks, raw (Fig. 7a) and window-smoothed (Fig. 7b).
  const TimeSeries& raw_series() const { return raw_series_; }
  const TimeSeries& smoothed_series() const { return smoothed_series_; }

  /// Fault injection: a PCIe latency storm (bus contention / power event)
  /// adds `extra_per_leg` to every MMIO leg plus extra spikes. The RTT
  /// quality filter is expected to reject most reads for the duration and
  /// the clock to coast on its rate estimate.
  void set_pcie_stress(fs_t extra_per_leg, double spike_prob, fs_t spike_mean);
  void clear_pcie_stress();
  bool pcie_stressed() const { return stress_extra_ > 0 || stress_spike_prob_ > 0; }

  /// Current |estimate - hardware counter| in ticks (chaos probes; requires
  /// calibrated()). Differences the exact integer counters first, so the
  /// metric keeps tick resolution at any counter magnitude.
  double current_error_ticks(fs_t now) const;

  const DaemonParams& params() const { return params_; }
  Agent& agent() { return agent_; }
  const Agent& agent() const { return agent_; }

 private:
  void poll();
  void sample();
  void publish_page();
  /// Signed (estimate - truth) in ticks via exact integer differencing.
  double signed_error_ticks(fs_t now) const;
  double unc_base_units() const;
  /// Femtoseconds per counter unit (nominal tick / counter_delta).
  double unit_fs() const;
  /// TSC reading at simulated time t (exact integer arithmetic).
  __int128 tsc_at(fs_t t) const;

  sim::Simulator& sim_;
  Agent& agent_;
  DaemonParams params_;
  Rng rng_;
  std::int64_t tsc_rate_hz_;  ///< actual TSC counts per true second

  // Interpolation state from the last accepted poll. The anchor is split —
  // integer units + fraction — so precision is magnitude-independent.
  std::int64_t anchor_units_ = 0;
  double anchor_frac_ = 0.0;
  __int128 last_tsc_ = 0;
  double counter_per_tsc_ = 0.0;
  std::uint64_t polls_ = 0;
  fs_t last_accept_at_ = -1;
  /// Decaying max of recent |reading - prediction| residuals, feeding the
  /// published uncertainty (covers blend lag after steps/joins).
  double resid_max_ = 0.0;
  /// Ring of past (counter, tsc) checkpoints for the long-baseline rate.
  std::vector<std::pair<std::int64_t, __int128>> checkpoints_;
  std::size_t checkpoint_next_ = 0;
  /// Ring of recent per-poll RTTs (accepted and rejected); best_rtt_ caches
  /// its minimum.
  std::vector<fs_t> rtt_ring_;
  std::size_t rtt_next_ = 0;
  fs_t best_rtt_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint32_t epoch_ = 0;

  // Active PCIe-storm stress (chaos injection); zero when healthy.
  fs_t stress_extra_ = 0;
  double stress_spike_prob_ = 0;
  fs_t stress_spike_mean_ = 0;

  TimebasePage page_;
  TimeSeries raw_series_;
  TimeSeries smoothed_series_;
  MovingAverage smoother_;
  sim::PeriodicProcess poller_;
  sim::PeriodicProcess sampler_;
};

}  // namespace dtpsim::dtp
