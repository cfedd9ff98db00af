#pragma once

/// \file watchdog.hpp
/// Per-port gray-failure health watchdog (DESIGN.md §15).
///
/// The protocol's own defenses are loud-failure defenses: the range filter
/// rejects bit-error outliers, the jump detector quarantines peers whose
/// counter *jumps*, link-down tears state down. Gray failures — a cable
/// direction slowly gaining latency, a port stalling transmissions below the
/// detection threshold, corrupted-but-well-framed beacons, a counter register
/// that silently stops — bias the synchronized time without tripping any of
/// them. The `HealthWatchdog` cross-validates three signals those defenses
/// cannot see, per port per `check_period` window:
///
///   1. advance   — a SYNCED port whose local counter did not move over a
///                  whole window has a stuck register (the device lives, the
///                  oscillator ticks, so zero advance is impossible);
///   2. siblings  — every port on a device shares one oscillator, so their
///                  local counters may differ only by what their peers
///                  legitimately differ (bounded by the per-hop offset bound
///                  plus CDC slack); a port lagging its best sibling beyond
///                  `kSiblingBoundTicks` is tracking a lame peer;
///   3. staleness — `PortLogic` counts beacons whose implied delta is more
///                  negative than the plausibility gate; `kMinGateEvents`
///                  of them in one window is a failing lane, not noise.
///
/// Any signal makes the window a *strike*. Strikes drive an escalation
/// ladder that never flap-loops:
///
///   Healthy -> Suspect (one strike) -> Quarantined (`kSuspectStrikes`
///   consecutive) -> re-INIT after `reinit_backoff * 2^attempt` plus
///   deterministic jitter -> Probation -> Healthy after `probation_windows`
///   clean windows (only then does the attempt counter reset), or Disabled
///   with an operator-visible verdict once `max_reinit_attempts` re-INITs
///   failed to stick. Backoff is strictly monotone within an episode — the
///   sentinel pins both the monotonicity and the attempt ceiling.
///
/// Quarantine reuses PortState::kFaulty, so everything that already excludes
/// jump-detector quarantined ports (beacon handling, recovery-probe neighbor
/// measurement) excludes watchdog-quarantined ports for free.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/wide_counter.hpp"
#include "dtp/config.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::dtp {

/// Rung of the escalation ladder a watched port currently sits on.
enum class PortHealth : std::uint8_t {
  kHealthy,      ///< no active episode
  kSuspect,      ///< struck last window; one more quarantines
  kQuarantined,  ///< kFaulty; re-INIT scheduled after backoff
  kProbation,    ///< re-INIT issued; must stay clean to return to healthy
  kDisabled,     ///< remediation ceiling hit; permanently out, verdict filed
};

const char* to_string(PortHealth h);

/// Per-port watchdog counters (diagnostics, digest material, bench gates).
struct WatchdogPortStats {
  std::uint64_t windows = 0;      ///< evaluated windows (port SYNCED)
  std::uint64_t strikes = 0;      ///< struck windows
  std::uint64_t suspects = 0;     ///< Healthy -> Suspect transitions
  std::uint64_t quarantines = 0;  ///< entries into Quarantined
  std::uint64_t reinits = 0;      ///< re-INITs issued
  std::uint64_t disables = 0;     ///< 0 or 1; a disable is final
  int attempts = 0;               ///< re-INITs this episode (resets on Healthy)
  fs_t last_backoff = 0;          ///< most recent backoff delay (monotone/episode)
  fs_t first_suspected_at = -1;   ///< first Suspect entry ever (detection latency)
  fs_t suspected_at = -1;         ///< Suspect entry of the current/last episode
};

/// Operator-visible outcome of a port the watchdog gave up on.
struct WatchdogVerdict {
  std::string device;
  std::size_t port = 0;
  fs_t at = 0;
  std::string reason;
};

/// Watches every port of every agent in a DtpNetwork. Create after the
/// topology and agents exist; both must outlive the watchdog. Sampling and
/// remediation run as one periodic coordinator-context event (kProbe), so
/// decisions are deterministic for any worker-thread count.
class HealthWatchdog {
 public:
  HealthWatchdog(net::Network& net, DtpNetwork& dtp, WatchdogParams params = {},
                 std::uint64_t seed = 0x9E3779B97F4A7C15ULL);
  ~HealthWatchdog();

  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  const WatchdogParams& params() const { return params_; }

  std::size_t watch_count() const { return mons_.size(); }
  const std::string& watch_label(std::size_t i) const;
  PortHealth watch_health(std::size_t i) const;
  const WatchdogPortStats& watch_stats(std::size_t i) const;
  /// Watch index for (device name, port), or npos.
  std::size_t find_watch(const std::string& device, std::size_t port) const;

  /// Ports the watchdog permanently gave up on, in disable order.
  const std::vector<WatchdogVerdict>& verdicts() const { return verdicts_; }

  std::uint64_t total_suspects() const;
  std::uint64_t total_quarantines() const;
  std::uint64_t total_reinits() const;
  std::uint64_t total_disables() const;

 private:
  struct Mon;

  void sample();
  void evaluate(Mon& m, fs_t now);
  void strike(Mon& m, fs_t now, const char* why);
  void clean_window(Mon& m);
  void enter_quarantine(Mon& m, fs_t now, const char* why);
  void fire_reinit(Mon& m, fs_t now);
  /// Ladder transitions become global trace instants and bump the wd.*
  /// counters when the simulator's hub records them.
  void note(const Mon& m, fs_t now, const std::string& what);
  void count(const char* metric);

  net::Network& net_;
  DtpNetwork& dtp_;
  WatchdogParams params_;
  std::vector<std::unique_ptr<Mon>> mons_;
  std::vector<WatchdogVerdict> verdicts_;
  std::unique_ptr<sim::PeriodicProcess> sampler_;
};

}  // namespace dtpsim::dtp
