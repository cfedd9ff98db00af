#pragma once

/// \file config.hpp
/// DTP protocol parameters.

#include <cstdint>

#include "common/time_units.hpp"

namespace dtpsim::dtp {

/// How a device's global counter follows the network (Section 5.4).
enum class SyncMode : std::uint8_t {
  /// The paper's main design: gc = max over everything heard; the whole
  /// network follows the fastest oscillator.
  kPeerMax,
  /// The paper's future-work extension: a spanning tree rooted at a chosen
  /// master; each device follows only its parent, stalling its counter when
  /// its own oscillator runs fast. Survives out-of-spec oscillators that
  /// would drag the whole network in kPeerMax mode.
  kMasterTree,
};

/// Tunables of Algorithm 1/2 plus the failure-handling heuristics of
/// Section 3.2. Counter-valued fields are in *counter units*: with
/// `counter_delta == 1` (the paper's 10 GbE prototype) one unit is one tick
/// = 6.4 ns; in multi-rate mode (Table 2) one unit is 0.32 ns.
struct DtpParams {
  /// Counter-following discipline (see SyncMode).
  SyncMode mode = SyncMode::kPeerMax;

  /// BEACON interval in local ticks (T3 timeout). The paper uses 200 (the
  /// idle-block cadence under MTU-saturated load) to 1200 (jumbo); any
  /// value below ~5000 keeps the two-tick bound (Section 3.3).
  std::int64_t beacon_interval_ticks = 200;

  /// The OWD under-estimation correction (Section 3.3): measured RTT is
  /// reduced by alpha ticks before halving so the measured delay never
  /// exceeds the true delay and the global counter never runs fast.
  std::int64_t alpha_ticks = 3;

  /// Counter increment per tick (Table 2; 1 reproduces the paper's 10G
  /// prototype where a unit is 6.4 ns).
  std::uint32_t counter_delta = 1;

  /// Drop BEACONs whose implied adjustment exceeds this many ticks in
  /// either direction (bit-error filter, Section 3.2). The paper uses 8.
  std::int64_t max_beacon_offset_ticks = 8;

  /// Enable the parity bit over the 3 LSBs (Section 3.2), sacrificing one
  /// payload bit.
  bool parity = false;

  /// Send a BEACON-MSB (high 53 counter bits) every N beacons.
  std::int64_t msb_every_n_beacons = 1024;

  /// Retransmit INIT if no INIT-ACK arrives within this many ticks
  /// (supports peers whose DTP layer comes up later — incremental deploy).
  std::int64_t init_retry_ticks = 50'000;

  /// Faulty-peer detection (Section 3.2): adjustments larger than
  /// `jump_threshold_ticks` are suspicious; more than `max_jumps` of them
  /// within `jump_window` marks the peer faulty and stops synchronizing.
  std::int64_t jump_threshold_ticks = 4;
  int max_jumps = 16;
  fs_t jump_window = from_ms(10);
  bool enable_jump_detector = false;

  /// Quarantine re-enable path: a port that tripped the jump detector
  /// (kFaulty) is allowed back when its link goes down and comes up again
  /// ("bounce the port") *after* spending at least this long quarantined.
  /// A re-up inside the cooldown stays kFaulty. See also
  /// PortLogic::clear_fault() for the explicit operator override.
  fs_t fault_cooldown = from_ms(50);
};

/// Tunables of the per-port gray-failure HealthWatchdog (DESIGN.md §15).
/// The watchdog samples every port each `check_period` and cross-validates
/// three signals the loud detectors cannot see: sibling-port counter
/// divergence (all ports on one device share an oscillator), plausibility of
/// implied beacon deltas, and counter advance. Strikes drive an escalation
/// ladder: suspect -> quarantine -> re-INIT with exponential backoff +
/// deterministic jitter -> port disable with an operator-visible verdict.
struct WatchdogParams {
  /// Sampling window. Each window either records a strike or counts clean.
  fs_t check_period = from_us(50);

  /// Plausibility gate on implied beacon deltas (gdiff before the
  /// fast-forward clamp), in ticks; only deltas more negative than -gate
  /// count (staleness — positive surprises are the max-discipline working).
  /// The fastest oscillator in the network persistently sees every beacon
  /// stale by both endpoints' OWD underestimates (each bounded by
  /// ~alpha/2 + 1 tick of CDC jitter), so the healthy envelope reaches
  /// about -(alpha + 2). 6 sits above that and below the smallest gray
  /// staleness worth remediating (-8: a flipped counter bit 3, or a one-way
  /// delay of 8+ ticks). Smaller lies (+-4) stay sub-threshold by design —
  /// the range filter already bounds their effect to the healthy envelope.
  double plausible_delta_ticks = 6.0;

  /// Re-INIT backoff: attempt k fires base * 2^k plus a deterministic
  /// jitter drawn in [0, base/4) after the quarantine. Monotone by
  /// construction — the sentinel pins it.
  fs_t reinit_backoff = from_us(200);

  /// Escalation ceiling: after this many failed re-INIT attempts in one
  /// episode the port is disabled with an operator-visible verdict.
  int max_reinit_attempts = 6;

  /// Clean windows on probation before the port returns to healthy and the
  /// episode's attempt counter resets. Short streaks keep the attempt count
  /// (and therefore the backoff) growing — no flap-looping.
  int probation_windows = 8;
};

}  // namespace dtpsim::dtp
