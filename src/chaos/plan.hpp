#pragma once

/// \file plan.hpp
/// Fault-injection vocabulary: typed fault specifications and the plan
/// (schedule) a chaos campaign executes.
///
/// A `FaultSpec` is pure data — what to break, when, for how long — so a
/// plan can be built declaratively, printed, and replayed deterministically
/// (injection times are simulator times; all randomness inside a fault, e.g.
/// which bits a BER burst flips, comes from the simulator's seeded RNG
/// streams). It names its devices, so the same spec is a line of a repro file
/// (chaos/serialize.hpp) and an entry of a plan. The `ChaosEngine` resolves
/// the names against its network, turns specs into scheduled events and hangs
/// a `RecoveryProbe` off each one.

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_units.hpp"

namespace dtpsim::net {
class Device;
}
namespace dtpsim::dtp {
class Daemon;
}

namespace dtpsim::chaos {

/// Every failure class the engine knows how to inject.
enum class FaultKind : std::uint8_t {
  kLinkFlap,         ///< one link down briefly, then back up
  kFlapStorm,        ///< repeated flaps of the same link
  kPortFail,         ///< a port/cable outage long enough for INIT to restart
  kBerBurst,         ///< bit-error rate spikes on a cable for a window
  kBeaconLoss,       ///< control blocks silently dropped for a window
  kNodeCrash,        ///< agent torn down + links dark, later restarted
  kRogueOscillator,  ///< oscillator steps outside the 802.3 envelope
  kPcieStorm,        ///< PCIe latency storm against a daemon's MMIO reads

  // Source-level faults (the time hierarchy's roots; need
  // ChaosEngine::set_hierarchy).
  kGpsLoss,           ///< a source's reference dies; its broadcasts stop
  kRogueGrandmaster,  ///< a source broadcasts plausible-but-wrong UTC
  kIslandPartition,   ///< a link cut isolates clients from every source
  kStratumFlap,       ///< a source's advertised stratum flaps repeatedly

  // Gray failures (DESIGN.md §15): sub-detection-threshold degradation that
  // biases time without tripping the loud defenses. Paired with the
  // dtp::HealthWatchdog, which detects and remediates them.
  kAsymmetricDelay,   ///< one cable direction gains one-way latency
  kLimpingPort,       ///< intermittent TX stalls below the detection threshold
  kSilentCorruption,  ///< counter-bit flips that survive framing and parity
  kFrozenCounter,     ///< a port's counter register stops; the device lives
};

/// Stable snake_case identifier per class (JSON keys, report rows).
const char* fault_class_name(FaultKind kind);

/// True for the classes that fault a cable, named by both of its ends.
bool is_link_fault(FaultKind kind);

/// One planned fault. Only the fields relevant to `kind` are used; the
/// named constructors below fill exactly those, and throw
/// std::invalid_argument for a spec that breaks its kind's rules (validate).
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkFlap;
  fs_t at = 0;        ///< injection time (simulator time)
  fs_t duration = 0;  ///< outage/window length (per flap, for storms)

  // The faulted devices, by name (every topology builder assigns names
  // deterministically). Link faults name the cable's ends in `a` and `b`;
  // the a -> b order picks the direction a gray fault impairs. Node and
  // source faults name their device in `a`; PCIe storms name none.
  std::string a;
  std::string b;

  // PCIe storms (a daemon is host software, not a named device, so a storm
  // cannot be written to a repro file).
  dtp::Daemon* daemon = nullptr;
  fs_t pcie_extra_per_leg = 0;
  double pcie_spike_prob = 0;
  fs_t pcie_spike_mean = 0;

  int count = 1;         ///< flaps in a storm
  fs_t period = 0;       ///< storm flap cadence; rogue remediation delay
  double magnitude = 0;  ///< BER / control-drop probability / rogue ppm

  // Per-fault probe overrides (0 = engine default).
  double probe_threshold_ticks = 0;
  fs_t probe_sample_period = 0;
  fs_t probe_timeout = 0;

  std::string label;  ///< free-form tag carried into the report

  bool operator==(const FaultSpec&) const = default;

  // --- Named constructors ---------------------------------------------------

  /// Unplug the `a`--`b` cable at `at`, replug after `down_for`.
  static FaultSpec link_flap(net::Device& a, net::Device& b, fs_t at,
                             fs_t down_for);

  /// `flaps` consecutive flaps, one every `flap_period`, each `down_for` long.
  static FaultSpec flap_storm(net::Device& a, net::Device& b, fs_t at,
                              int flaps, fs_t flap_period, fs_t down_for);

  /// A longer outage of one port/cable (switch port failure).
  static FaultSpec port_fail(net::Device& a, net::Device& b, fs_t at,
                             fs_t down_for);

  /// Raise the cable's BER to `ber` for `window`, then restore it.
  static FaultSpec ber_burst(net::Device& a, net::Device& b, fs_t at,
                             fs_t window, double ber);

  /// Silently drop control blocks with probability `drop` for `window`.
  static FaultSpec beacon_loss(net::Device& a, net::Device& b, fs_t at,
                               fs_t window, double drop);

  /// Power the node off at `at` (agent destroyed, links dark), back on after
  /// `down_for` (links re-lit, a fresh zero-counter agent rejoins).
  static FaultSpec node_crash(net::Device& dev, fs_t at, fs_t down_for);

  /// Step the device's oscillator to `ppm` at `at`. The network must
  /// quarantine it within `detect_deadline`; `remediation_delay` after the
  /// quarantine is observed, collateral-faulted ports (not facing the rogue)
  /// are operator-cleared and the rest of the network must reconverge.
  static FaultSpec rogue_oscillator(net::Device& dev, fs_t at, double ppm,
                                    fs_t detect_deadline, fs_t remediation_delay);

  /// Inflate the daemon's PCIe legs by `extra_per_leg` (+ spikes) for
  /// `window`. `threshold_ticks` is the software-clock recovery criterion.
  static FaultSpec pcie_storm(dtp::Daemon& daemon, fs_t at, fs_t window,
                              fs_t extra_per_leg, double spike_prob,
                              fs_t spike_mean, double threshold_ticks);

  // --- Source-level faults (time hierarchy) --------------------------------

  /// The source hosted on `server_host` loses its reference at `at` (its
  /// broadcasts stop); the reference returns after `down_for`. Clients must
  /// fail over to the next-best source.
  static FaultSpec gps_loss(net::Device& server_host, fs_t at, fs_t down_for);

  /// The source hosted on `server_host` starts broadcasting UTC shifted by
  /// `lie_ns` (well-formed packets, wrong time). Every client must stop
  /// selecting it within `detect_deadline`; `remediation_delay` after the
  /// quarantine is observed the source is fixed (lie cleared) and the
  /// hierarchy must reconverge.
  static FaultSpec rogue_grandmaster(net::Device& server_host, fs_t at,
                                     double lie_ns, fs_t detect_deadline,
                                     fs_t remediation_delay);

  /// Cut the `a`--`b` link at `at` (partitioning an island away from its
  /// sources; islanded clients enter holdover), heal after `down_for`.
  static FaultSpec island_partition(net::Device& a, net::Device& b, fs_t at,
                                    fs_t down_for);

  /// The source on `server_host` flaps its advertised stratum to
  /// `alt_stratum` and back, `flaps` times, one toggle per `flap_period`;
  /// restored after the last toggle. Selection must track deterministically
  /// and serving must never step backwards.
  static FaultSpec stratum_flap(net::Device& server_host, fs_t at, int flaps,
                                fs_t flap_period, int alt_stratum);

  // --- Gray failures (DESIGN.md §15) ---------------------------------------
  // A malformed gray fault (non-positive window or delay, probability
  // outside [0, 1]) would silently look like a healthy link, which is
  // exactly the failure mode these exist to kill; validate rejects it.

  /// The `a` -> `b` direction of the cable gains `extra_delay` of one-way
  /// latency at `at` (b's beacons from a arrive stale; a re-INIT measures a
  /// biased OWD), restored after `window`.
  static FaultSpec asymmetric_delay(net::Device& a, net::Device& b, fs_t at,
                                    fs_t window, fs_t extra_delay);

  /// `a`'s transmitter toward `b` stalls each control block with
  /// probability `stall_prob` for `stall` — intermittent, below the range
  /// filter's detection threshold. Restored after `window`.
  static FaultSpec limping_port(net::Device& a, net::Device& b, fs_t at,
                                fs_t window, double stall_prob, fs_t stall);

  /// Control payloads on `a` -> `b` get a low counter bit flipped with
  /// probability `prob` — well-framed, parity-consistent lies of +-4/+-8
  /// ticks that survive the range filter. Restored after `window`.
  static FaultSpec silent_corruption(net::Device& a, net::Device& b, fs_t at,
                                     fs_t window, double prob);

  /// The counter register of `a`'s port facing `b` freezes at `at` (reads
  /// repeat the latched value, writes are dropped, transmitted counters go
  /// increasingly stale) while the device stays alive; thaws after `window`.
  static FaultSpec frozen_counter(net::Device& a, net::Device& b, fs_t at,
                                  fs_t window);
};

/// Throws std::invalid_argument when `spec` breaks its kind's rules: a
/// non-finite magnitude, a BER or probability outside [0, 1], or a gray
/// fault with a non-positive window or delay. The named constructors and
/// `fault_from_line` both call it, so a malformed fault fails where it is
/// written, not when it fires.
void validate(const FaultSpec& spec);

/// When the fault's last injected perturbation ends (storms: the final
/// flap; stratum flaps: the restoring toggle). Throws std::invalid_argument
/// when that time does not fit fs_t.
fs_t fault_end(const FaultSpec& spec);

/// An ordered batch of faults. Order is cosmetic — each spec carries its own
/// absolute injection time.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  FaultPlan& add(FaultSpec spec) {
    faults.push_back(std::move(spec));
    return *this;
  }
  std::size_t size() const { return faults.size(); }
};

}  // namespace dtpsim::chaos
