#pragma once

/// \file agent.hpp
/// Algorithm 2 — DTP inside a network device.
///
/// An `Agent` DTP-enables a `net::Device`: it owns the device's 106-bit
/// global counter (gc), one `PortLogic` per PHY port, and the T5 rule
/// gc <- max(gc + 1, {lc_i}), realized analytically: all counters on a
/// device share one oscillator, so between protocol events every counter
/// advances in lockstep and the max only needs re-evaluating when some lc
/// fast-forwards.
///
/// The agent also handles device-wide BEACON-JOIN propagation: when one
/// port learns a counter far ahead of gc (a newly joined subnet), the new
/// gc is announced on every other port.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dtp/config.hpp"
#include "dtp/counter.hpp"
#include "dtp/port.hpp"
#include "net/device.hpp"

namespace dtpsim::dtp {

/// DTP-enables one device (NIC or switch). Cache-line aligned: the state
/// its ports' beacons read fills three whole lines (see Hot).
class alignas(64) Agent {
 public:
  /// Attaches to every port currently on `dev` and starts the protocol on
  /// ports whose link is already up. Ports added to the device afterwards
  /// are NOT covered; build the topology first, then attach agents.
  Agent(net::Device& dev, DtpParams params = {});

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  net::Device& device() { return hot_.dev; }
  const net::Device& device() const { return hot_.dev; }
  const DtpParams& params() const { return hot_.params; }
  sim::Simulator& simulator() { return hot_.dev.simulator(); }

  /// Device tick index at simulated time `t`.
  std::int64_t tick_at(fs_t t) const { return hot_.dev.oscillator().tick_at(t); }

  /// Global counter value after the edge of tick `k`.
  WideCounter global_at_tick(std::int64_t k) const { return hot_.global.at_tick(k); }
  /// Global counter value at simulated time `t` (the value software would
  /// read from the NIC register at that instant).
  WideCounter global_at(fs_t t) const { return hot_.global.at_tick(tick_at(t)); }

  /// Global counter in fractional ticks at time `t` (ground-truth probes):
  /// counter units plus the phase fraction into the current tick. Rendered
  /// as a double, so beyond 2^53 units the absolute value quantizes; offset
  /// probes must not difference two of these — use true_offset_fractional,
  /// which differences the exact 106-bit counters first.
  double global_fractional_at(fs_t t) const;

  /// Fraction of the current oscillator tick elapsed at `t`, in counter
  /// units: phase_in_tick * counter_delta, in [0, delta). Exact enough to
  /// difference between devices regardless of counter magnitude.
  double phase_units_at(fs_t t) const;

  std::size_t port_count() const { return hot_.ports.size(); }
  PortLogic& port_logic(std::size_t i) { return *hot_.ports.at(i); }
  const PortLogic& port_logic(std::size_t i) const { return *hot_.ports.at(i); }

  /// Force the global counter to `v` as of time `t` (tests: pre-aged
  /// devices for BEACON-JOIN / partition-heal scenarios).
  void force_global(fs_t t, const WideCounter& v);

  // --- Master-tree mode (Section 5.4) -------------------------------------
  /// Declare which port leads to this device's parent in the spanning tree.
  /// Only meaningful with SyncMode::kMasterTree; beacons on other ports are
  /// then ignored for counter purposes.
  void set_parent_port(std::size_t port_index);
  /// Declare this device the tree root (no parent; its counter free-runs
  /// and everyone else follows it).
  void set_as_root();
  bool is_root() const {
    return hot_.params.mode == SyncMode::kMasterTree && !parent_port_;
  }
  std::optional<std::size_t> parent_port() const { return parent_port_; }

  /// Total positive gc fast-forwards (device-level jumps).
  std::uint64_t global_adjustments() const { return hot_.global_adjustments; }

  /// When gc last took a join-sized forward jump (adopting a BEACON-JOIN or
  /// an operator force_global), and by how much (counter units, saturated to
  /// 64 bits). Such jumps are the max-discipline converging after a
  /// partition heal or a quarantined subtree re-joining: every peer that has
  /// not heard the announce wave yet briefly looks stale. Consumers (the
  /// health watchdog) excuse staleness in the jump's shadow. -1 = never.
  fs_t last_join_jump_at() const { return last_join_jump_at_; }
  std::uint64_t last_join_jump_units() const { return last_join_jump_units_; }

  /// Times the counters were zeroed because every port went inactive
  /// (Section 3.2, "Network dynamics").
  std::uint64_t counter_resets() const { return counter_resets_; }

  /// Expires when this agent is destroyed (its node crashed). Objects that
  /// read the counter but outlive the agent check it before every read.
  std::weak_ptr<const void> lifetime() const { return alive_; }

 private:
  friend class PortLogic;

  /// Port `port`'s (a PortRecords id) lc was fast-forwarded to `lc` at
  /// tick `k`; fold into gc (T5) and, for join-sized moves, announce on the
  /// other ports.
  void local_updated(std::uint32_t port, std::int64_t k, bool join, const WideCounter& lc);

  /// Fast-forward every port's lc to the current gc (join adoption).
  void sync_locals_to_global(std::int64_t k);

  /// Record a join-sized forward move of gc for last_join_jump_at().
  void note_forward_jump(fs_t at, unsigned __int128 units);

  /// Master-tree mode: the parent port heard the parent's counter `target`
  /// (already delay-compensated) at tick `k`; jump up if behind, set the
  /// stall ceiling if ahead.
  void parent_update(std::int64_t k, const WideCounter& target);

  /// A port lost its link; when the last one goes, the device's counters
  /// reset to zero ("the global counter is set to zero when all ports
  /// become inactive", Section 3.2) and a later reconnection re-learns the
  /// network's counter through BEACON-JOIN.
  void port_went_down(std::size_t port_index);

  /// Quiet-path state: what a beacon on any of this device's ports reads.
  /// PortLogic's beacon step and handle_beacon read the parameters and gc
  /// (reaching the agent through their port records); local_updated folds
  /// an adjusted lc into gc. Join bookkeeping, the master-tree parent and
  /// the lifetime token are cold and sit behind it.
  struct Hot {
    net::Device& dev;
    DtpParams params;
    TickCounter global;  ///< gc
    std::vector<sim::ArenaPtr<PortLogic>> ports{};  ///< in the simulator's arena
    std::uint64_t global_adjustments = 0;
  };
  static_assert(sizeof(Hot) == 192, "Agent::Hot must stay three cache lines");
  Hot hot_;

  std::uint64_t counter_resets_ = 0;
  fs_t last_join_jump_at_ = -1;
  std::uint64_t last_join_jump_units_ = 0;
  std::optional<std::size_t> parent_port_;
  std::shared_ptr<const void> alive_ = std::make_shared<char>();
};

/// Ground truth: gc_a(t) - gc_b(t) in counter units, evaluated at one
/// instant with no measurement machinery in the way.
__int128 true_offset_units(const Agent& a, const Agent& b, fs_t t);

/// Same, in fractional ticks (accounts for tick-phase difference).
double true_offset_fractional(const Agent& a, const Agent& b, fs_t t);

}  // namespace dtpsim::dtp
