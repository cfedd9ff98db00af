#pragma once

/// \file sentinel.hpp
/// Always-on invariant sentinel (DESIGN.md §10).
///
/// Cheap online monitors for the paper's headline claims, attached to a
/// live simulation: per-device clock monotonicity, global pairwise offset
/// within 4TD once the network has settled, zero-overhead / idle-restore
/// accounting at every PCS egress, SyncFifo crossing-delay bounds, and
/// counter-wrap self-checks. Violations are recorded (never thrown) with
/// simulated-time context; the stress fuzzer turns a non-empty violation
/// list into a shrinkable repro file.
///
/// Costs: two branch tests per control block when idle (the PhyPort probe
/// hooks), plus one periodic sampling event that walks the device list.
/// Measured end to end in bench_sentinel_overhead (< 10% on the Fig. 6a
/// saturated-MTU workload is the gated budget).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/violation.hpp"
#include "common/wide_counter.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::obs {
class Hub;
}

namespace dtpsim::dtp {
class TimeHierarchy;
class HierarchyClient;
class HealthWatchdog;
class Daemon;
}

namespace dtpsim::check {

/// FNV-1a accumulator over a run's observable outputs. Two runs of the same
/// campaign (any thread count) must produce identical digests; the
/// differential harness turns a mismatch into a kDigestMismatch violation.
struct RunDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  void mix_i128(__int128 v) {
    mix(static_cast<std::uint64_t>(static_cast<unsigned __int128>(v)));
    mix(static_cast<std::uint64_t>(static_cast<unsigned __int128>(v) >> 64));
  }

  std::string hex() const;
  bool operator==(const RunDigest&) const = default;
};

struct SentinelParams {
  /// Ground-truth sampling cadence. The per-block probes are continuous;
  /// this only paces the device-list walk.
  fs_t sample_period = from_us(5);
  /// Pairwise offset bound in ticks; 0 = 4 * D + 1, with D the network's
  /// exact hop diameter (net::hop_diameter): the 4TD claim plus the one-tick
  /// sampling/phase quantum bench_fig6a also allows.
  double offset_bound_ticks = 0.0;
};

/// Counts of checks actually performed — the "is the sentinel alive" gauge
/// asserted by tests so a silent monitor cannot rot into a no-op.
struct SentinelStats {
  std::uint64_t samples = 0;
  std::uint64_t monotonic_checks = 0;
  std::uint64_t offset_checks = 0;
  std::uint64_t overhead_checks = 0;
  std::uint64_t wrap_checks = 0;
  std::uint64_t rate_checks = 0;
  std::uint64_t tx_probe_checks = 0;
  std::uint64_t fifo_probe_checks = 0;
  std::uint64_t utc_checks = 0;
  std::uint64_t watchdog_checks = 0;
  std::uint64_t timebase_checks = 0;
  std::uint64_t suppressed_violations = 0;
};

class Sentinel {
 public:
  /// Attaches probes to every port of `net` and starts the periodic
  /// sampler. Both `net` and `dtp` must outlive the sentinel.
  Sentinel(net::Network& net, dtp::DtpNetwork& dtp, SentinelParams params = {});
  ~Sentinel();

  Sentinel(const Sentinel&) = delete;
  Sentinel& operator=(const Sentinel&) = delete;

  /// Declare [from, until) a fault window: the offset and runaway monitors
  /// hold their fire (monotonicity, FIFO, and egress checks stay armed —
  /// those invariants survive any fault).
  void add_blackout(fs_t from, fs_t until);

  /// Record an externally detected violation (the differential harness's
  /// kDigestMismatch enters here).
  void report(Violation v);

  /// All stored violations, sorted by (time, kind, device) so parallel-mode
  /// worker interleaving cannot reorder the report.
  std::vector<Violation> violations() const;
  std::uint64_t violation_count() const;
  bool clean() const { return violation_count() == 0; }

  SentinelStats stats() const;

  /// Digest of everything this run observably produced: sentinel offset
  /// samples, simulator event counts, per-port frame/control counts, and
  /// per-agent adjustment/reset counters. Call after the run completes.
  RunDigest digest() const;

  const SentinelParams& params() const { return params_; }
  double offset_bound_ticks() const { return offset_bound_ticks_; }
  std::size_t diameter_hops() const { return diameter_hops_; }

  /// Attach observability (null detaches): every recorded violation also
  /// becomes a global trace instant. Safe with worker-thread probes — the
  /// trace sink is internally locked.
  void set_obs(obs::Hub* hub) { hub_ = hub; }

  /// Attach a time hierarchy (null detaches). Every sample then also serves
  /// each client and checks the paper-external claims the hierarchy makes:
  /// served UTC never steps backwards (never blacked out — a backward step
  /// is illegal even mid-fault) and the served uncertainty never understates
  /// the true error. The served timeline is folded into the run digest, so
  /// the serial-vs-parallel differential covers selection and holdover too.
  void set_hierarchy(dtp::TimeHierarchy* hierarchy);

  /// Attach a health watchdog (null detaches). Every sample then also pins
  /// the watchdog's remediation contract — attempts never exceed the
  /// configured ceiling, each new backoff within an episode is strictly
  /// longer than the last, and a disabled port never re-INITs again — and
  /// folds the per-port ladder counters into the run digest. These checks
  /// are never blacked out: bounded remediation must hold *during* faults.
  void set_watchdog(const dtp::HealthWatchdog* watchdog);

  /// Watch a daemon's timebase page (DESIGN.md §16). Every sample then
  /// reads the page exactly like an application would and pins its honesty
  /// contract: a fresh (non-stale) snapshot must never claim an uncertainty
  /// smaller than the true counter error. Stale snapshots are exempt — the
  /// stale flag *is* the daemon saying the bound no longer holds. Respects
  /// blackout windows (a rogue oscillator makes the bound unknowable), and
  /// folds every read into the run digest so the serial-vs-parallel
  /// differential covers the serving layer too.
  void watch_timebase(const dtp::Daemon* daemon);

 private:
  struct PortMon;
  struct DeviceMon;
  struct HierarchyMon;
  struct WatchdogMon;
  struct TimebaseMon;

  void sample();
  void check_monotonic(fs_t now);
  void check_offsets(fs_t now);
  void check_overhead(fs_t now);
  void check_wrap_and_rate(fs_t now);
  void check_hierarchy(fs_t now);
  void check_watchdog(fs_t now);
  void check_timebase(fs_t now);
  bool in_blackout(fs_t t) const;
  void record(Violation v);

  net::Network& net_;
  dtp::DtpNetwork& dtp_;
  SentinelParams params_;
  std::size_t diameter_hops_ = 0;
  double offset_bound_ticks_ = 0.0;

  std::vector<std::unique_ptr<PortMon>> port_mons_;
  std::vector<DeviceMon> device_mons_;
  std::vector<HierarchyMon> hier_mons_;
  dtp::TimeHierarchy* hierarchy_ = nullptr;
  std::vector<WatchdogMon> watchdog_mons_;
  const dtp::HealthWatchdog* watchdog_ = nullptr;
  std::vector<TimebaseMon> timebase_mons_;
  std::vector<std::pair<fs_t, fs_t>> blackouts_;

  int settled_streak_ = 0;
  bool have_net_max_ = false;
  WideCounter prev_net_max_;
  fs_t prev_net_max_at_ = 0;
  RunDigest offsets_digest_;

  // Coordinator-written counters (sampler) need no lock; the violation
  // store is shared with worker-thread probes.
  SentinelStats stats_;
  mutable std::mutex mu_;
  std::vector<Violation> violations_;
  std::uint64_t violation_counts_[kInvariantKindCount] = {};
  obs::Hub* hub_ = nullptr;  ///< see set_obs

  std::unique_ptr<sim::PeriodicProcess> sampler_;
};

}  // namespace dtpsim::check
