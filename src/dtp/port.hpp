#pragma once

/// \file port.hpp
/// Algorithm 1 — DTP inside a network port.
///
/// One `PortLogic` instance hangs off each PhyPort of a DTP-enabled device.
/// It owns the port's local counter `lc`, measures the one-way delay `d`
/// during the INIT phase, emits BEACONs with the device's global counter
/// every `beacon_interval_ticks`, and fast-forwards `lc` (never backwards)
/// on received BEACONs:
///
///   T0  link up:                 lc <- gc; send (INIT, lc)
///   T1  recv (INIT, c):          send (INIT-ACK, c)
///   T2  recv (INIT-ACK, c):      d <- (lc - c - alpha) / 2
///   T3  timeout:                 send (BEACON, gc)
///   T4  recv (BEACON, c):        lc <- max(lc, c + d)
///
/// plus BEACON-JOIN (unfiltered large adjustment after INIT, propagated
/// device-wide), BEACON-MSB (high counter half), the bit-error filters and
/// the faulty-peer detector of Section 3.2, and the LOG message the
/// evaluation harness uses (Section 6.2).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>

#include "common/wide_counter.hpp"
#include "dtp/config.hpp"
#include "dtp/counter.hpp"
#include "dtp/fault.hpp"
#include "dtp/messages.hpp"
#include "phy/port.hpp"

namespace dtpsim::dtp {

class Agent;

/// Port synchronization state.
enum class PortState : std::uint8_t {
  kDown,      ///< no link
  kInitWait,  ///< INIT sent, waiting for INIT-ACK
  kSynced,    ///< d measured; beaconing
  kFaulty,    ///< peer declared faulty; synchronization stopped
};

const char* to_string(PortState s);

/// Per-port protocol counters (diagnostics and tests). The four a quiet
/// beacon bumps (beacons sent and received, adjustments and their maximum)
/// live in the port's record; PortLogic::stats() assembles the whole set.
struct PortStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t beacons_received = 0;
  std::uint64_t adjustments = 0;      ///< positive lc fast-forwards
  std::uint64_t max_adjustment = 0;   ///< largest single fast-forward (units)
  std::uint64_t filtered_range = 0;   ///< beacons dropped by the +-8 filter
  std::uint64_t inits_sent = 0;
  std::uint64_t init_acks_sent = 0;
  std::uint64_t joins_sent = 0;
  std::uint64_t joins_received = 0;
  std::uint64_t msbs_sent = 0;
  std::uint64_t msbs_received = 0;
  std::uint64_t logs_sent = 0;
  std::uint64_t logs_received = 0;
  std::uint64_t filtered_parity = 0;  ///< messages dropped by parity (decode)
  std::uint64_t state_transitions = 0;  ///< PortState changes (obs/diagnostics)
};

/// Algorithm 1 state machine for one port. What a quiet beacon reads sits
/// in the DTP half of the port's record (see Hot); the object keeps the
/// INIT, join, MSB, LOG, watchdog and chaos state.
class PortLogic {
 public:
  /// \param agent  owning device agent (Algorithm 2); must outlive this
  /// \param port   the PHY port to speak through; must outlive this
  PortLogic(Agent& agent, phy::PhyPort& port, std::size_t index);

  /// Detaches cleanly from the PHY port: clears the hooks and queued control
  /// factories that capture `this`, cancels pending timers and retires the
  /// record half, so an agent can be destroyed mid-run (node crash) while
  /// peers keep transmitting.
  ~PortLogic();

  PortLogic(const PortLogic&) = delete;
  PortLogic& operator=(const PortLogic&) = delete;

  /// Begin the protocol (T0) if the link is up; otherwise waits for link-up.
  void start();

  PortState state() const { return hot().state; }
  std::size_t index() const { return index_; }
  /// The port's id in the simulator's PortRecords (its PHY port's id).
  std::uint32_t id() const { return id_; }

  /// Measured one-way delay in counter units; nullopt before T2 completes.
  std::optional<std::int64_t> measured_owd() const {
    if (hot().owd_units < 0) return std::nullopt;
    return hot().owd_units;
  }

  /// lc at an absolute simulated time.
  WideCounter local_at(fs_t t) const;

  /// All protocol counters, the record's and the object's.
  PortStats stats() const;
  phy::PhyPort& phy_port() { return port_; }

  /// Send a LOG message carrying the device global counter stamped at the
  /// moment of transmission (t1 of Section 6.2).
  void send_log();

  /// Fired when a LOG message is received: (t1 LSBs from the wire,
  /// t2 = gc at the visible tick, visible_time).
  std::function<void(std::uint64_t, WideCounter, fs_t)> on_log_received;

  /// Request a device-wide counter announcement (BEACON-JOIN) on this port;
  /// used by the Agent when another port learned a much larger counter.
  void send_join();

  /// Operator override for a quarantined port (kFaulty): reset the jump
  /// detector and re-run INIT (Section 3.2's "considered faulty" state is
  /// left by explicit intervention or by a post-cooldown link bounce — see
  /// DtpParams::fault_cooldown). No-op unless the port is kFaulty.
  void clear_fault();

  /// Inspection: the sliding-window fault detector for this port's peer.
  const JumpDetector& jump_detector() const { return jump_detector_; }

  // --- HealthWatchdog surface (DESIGN.md §15) ------------------------------

  /// Plausibility gate on implied beacon deltas, in counter units; 0 (the
  /// default) disables. When set, handle_beacon counts every beacon whose
  /// implied delta is more negative than -gate — *before* the range filter
  /// and the monotonicity clamp, so sub-threshold lies and range-filtered
  /// stale outliers are both visible to the watchdog. Only staleness counts;
  /// positive surprises are the max-discipline working (see handle_beacon).
  void set_plausibility_gate(std::int64_t units);
  /// Cumulative gate events (the watchdog differences these per window).
  std::uint64_t wd_gate_events() const { return wd_gate_events_; }

  /// Gray-fault seam (chaos kFrozenCounter): freeze the port's counter
  /// register. While frozen, lc reads return the value latched at the freeze
  /// instant, incoming beacons cannot advance it, and transmitted beacons
  /// carry the latched gc — exactly a stuck hardware register on a device
  /// that otherwise lives. Unfreezing resumes counting from the latched
  /// value, leaving the port as far behind as the freeze lasted.
  void set_counter_frozen(bool frozen);
  bool counter_frozen() const { return (hot().bits & Hot::kFrozen) != 0; }

  /// Watchdog remediation: quarantine this port (kFaulty, stops beaconing
  /// and ignores received beacons) without tripping the jump detector.
  /// `now` anchors the fault cooldown like a detector trip would.
  void quarantine(fs_t now);

  /// Watchdog remediation: full protocol restart — forget the measured
  /// delay, the detector state and the filters, then re-run INIT (kDown if
  /// the link is physically down). Unlike clear_fault() this re-measures d:
  /// the watchdog calls it when the *measurement itself* is suspect
  /// (asymmetric delay), which clear_fault deliberately preserves.
  void reinit();

 private:
  friend class Agent;

  /// The DTP half of the port's record (sim::PortRecords, DESIGN.md §14):
  /// what every beacon this port sends or receives reads. The first line is
  /// the receive side (T4: lc, d and the counters an applied beacon bumps);
  /// the second, which the record shares with the PHY's per-step state, is
  /// the beacon timer's (T3) and the state both sides test.
  struct Hot {
    enum : std::uint8_t {
      kFrozen = 1 << 0,  ///< chaos kFrozenCounter seam
      kGate = 1 << 1,    ///< the watchdog's plausibility gate is on
    };
    // First line: the receive side.
    CounterAnchor local;         ///< lc; its delta is the agent's
    std::int64_t owd_units = -1;  ///< measured d; -1 before T2
    std::uint64_t beacons_received = 0;
    std::uint64_t adjustments = 0;
    std::uint64_t max_adjustment = 0;
    std::uint8_t consecutive_filtered = 0;  ///< range-filtered in a row (< 16)
    // Second line: the beacon timer's side and the shared state.
    Agent* agent;
    std::uint64_t beacon_key = 0;  ///< bridged beacon timer's token
    std::uint64_t beacons_sent = 0;
    std::int64_t beacons_since_msb = 0;
    PortState state = PortState::kDown;
    std::uint8_t bits = 0;
  };
  static_assert(sizeof(Hot) <= sim::PortRecords::kUpperBytes,
                "the DTP half must fit the record's first 104 bytes");
  static_assert(offsetof(Hot, agent) == 64, "the beacon timer's side starts line two");

  static Hot& hot(sim::Simulator& sim, std::uint32_t port) {
    return *std::launder(reinterpret_cast<Hot*>(sim.port_records().upper(port)));
  }
  Hot& hot() { return *hot_; }
  const Hot& hot() const { return *hot_; }
  static PortLogic& owner(sim::Simulator& sim, std::uint32_t port) {
    return *static_cast<PortLogic*>(sim.port_records().upper_owner(port));
  }

  void handle_link_up();
  void handle_link_down();
  void handle_init(const Message& m, std::int64_t rx_tick);
  void handle_init_ack(const Message& m, std::int64_t rx_tick);
  void handle_msb(const Message& m, std::int64_t rx_tick);
  void handle_log(const Message& m, std::int64_t rx_tick, fs_t rx_time);

  // The quiet cycle, on the record alone: the phy::PhyPort::ControlSink
  // (every control block of a port with a live DTP half, both engines),
  // T4, and the bridged beacon timer's handler with its re-arm.
  static void handle_control(sim::Simulator& sim, std::uint32_t port,
                             const phy::ControlRx& rx);
  static void handle_beacon(sim::Simulator& sim, std::uint32_t port, const Message& m,
                            std::int64_t rx_tick, bool join);
  /// Bridged replacement for the beacon timer event (T3): runs send_beacon's
  /// quiet path fused inline when nothing can interleave, and falls back to
  /// send_beacon() wholesale otherwise (MSB due, line busy, off-lattice,
  /// same-instant interloper). Fires at the exact (time, key) the timer
  /// event would have.
  static void bridge_beacon_step(void* sim, const sim::EventQueue::BridgeStep& s);
  /// Arm the bridged beacon timer one interval after local tick `now_tick`
  /// (the tick at the current instant).
  static void arm_bridged_beacon(sim::Simulator& sim, std::uint32_t port,
                                 std::int64_t now_tick);

  void send_init();
  void arm_init_retry();
  void schedule_beacon();
  void send_beacon();
  void cancel_beacon();

  /// Single gate for every state change: counts the transition and emits a
  /// trace instant when observability is attached.
  void set_state(PortState s);
  /// A trace instant `what` + `detail` at `t` on the device's track, if the
  /// simulator's hub traces. Never on the per-beacon path.
  void trace_instant(fs_t t, const char* what, const char* detail = "") const;

  /// lc read honoring the frozen-counter seam (the stuck register reads the
  /// latched value). Every internal lc read goes through here.
  WideCounter lc_at_tick(std::int64_t tick) const;
  /// gc value stamped into transmitted beacons/joins/MSBs — the latched gc
  /// while frozen, the live device counter otherwise.
  static WideCounter tx_global(sim::Simulator& sim, std::uint32_t port, std::int64_t tx_tick);
  /// Freeze-honoring lc writes; the Agent routes its device-wide counter
  /// pushes (sync_locals_to_global, force_global) through these instead of
  /// touching the record directly, so a frozen register stays frozen.
  void local_set(std::int64_t tick, const WideCounter& v);
  unsigned __int128 local_fast_forward(std::int64_t tick, const WideCounter& v);
  std::uint32_t delta() const;

  sim::Simulator& sim_;
  Agent& agent_;
  phy::PhyPort& port_;
  std::uint32_t id_;
  std::uint32_t index_;
  Hot* hot_;         ///< this port's DTP half of its record
  PortStats stats_;  ///< all but the record's four quiet counters
  std::int64_t plausibility_gate_units_ = 0;  ///< watchdog gate; 0 = off
  std::optional<std::int64_t> prior_owd_;      ///< pre-reinit d, caps the remeasure
  std::optional<WideCounter> init_echo_wait_;  ///< lc value sent in our INIT
  std::uint64_t last_peer_msb_ = 0;
  std::int64_t last_join_reply_tick_ = 0;
  JumpDetector jump_detector_;
  fs_t faulted_at_ = 0;  ///< when the detector last tripped (cooldown anchor)
  std::uint64_t wd_gate_events_ = 0;          ///< |gdiff| > gate occurrences
  std::optional<WideCounter> frozen_value_;   ///< lc latched at freeze
  std::optional<WideCounter> frozen_gc_;      ///< gc latched at freeze (tx)
  sim::EventHandle beacon_timer_;  ///< exact-engine beacon timer
  sim::EventHandle init_retry_;
};

}  // namespace dtpsim::dtp
