#pragma once

/// \file port.hpp
/// A DTP-capable physical port and the cable that joins two of them.
///
/// `PhyPort` models the TX/RX paths of one network port at block
/// granularity without simulating every idle block as an event:
///
///   * Frame transmissions occupy the line for `blocks_for_frame` ticks of
///     the local oscillator, followed by a minimum inter-packet gap (the
///     standard's >= 12 idle characters), exactly the lattice the paper's
///     Section 4.1 describes.
///   * DTP control messages are 56-bit values carried in one idle (/E/)
///     block. Upper layers do not hand the port a finished message; they
///     hand it a *factory* that is invoked at the instant the block is
///     serialized, because DTP hardware stamps the counter at transmission
///     time (Section 4.2: the DTP sublayer and the TX PCS share one clock
///     domain, so insertion costs zero delay).
///   * The receive path delivers control messages through a SyncFifo
///     crossing into the local clock domain — the paper's only source of
///     nondeterminism — and frames after full reception (store-and-forward
///     at the receiving MAC boundary).
///
/// A `Cable` couples two ports with a symmetric, constant propagation delay
/// (Section 3.1's assumption) and an optional bit-error rate that corrupts
/// control payloads and frames (Section 3.2 "Handling failures").

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time_units.hpp"
#include "phy/oscillator.hpp"
#include "phy/rates.hpp"
#include "phy/sync_fifo.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::phy {

class Cable;

/// A control message (one /E/ block) delivered to the local clock domain.
struct ControlRx {
  std::uint64_t bits56 = 0;    ///< 56-bit idle-field payload (possibly corrupted)
  fs_t wire_arrival = 0;       ///< when the block finished arriving on the wire
  CrossingResult crossing{};   ///< when/where it became visible locally
  bool corrupted = false;      ///< ground truth: did the cable flip a bit?
};

/// A frame delivered to the MAC boundary.
struct FrameRx {
  std::shared_ptr<const void> payload;  ///< opaque upper-layer object
  std::uint32_t wire_bytes = 0;         ///< size on the wire incl. preamble
  bool fcs_ok = true;                   ///< false if the cable corrupted it
  fs_t arrival_time = 0;                ///< last bit on the wire
};

/// Minimum idle blocks between frames (>= 12 /I/).
inline constexpr int kIpgBlocks = 2;

/// Per-port configuration.
struct PortParams {
  LinkRate rate = LinkRate::k10G;
  SyncFifoParams fifo{};     ///< CDC model parameters
};

/// One physical port: TX serialization, RX delivery, DTP idle-block slots.
/// Cache-line aligned: its quiet-path state fills the first four lines (see
/// Hot), so a port never shares those lines with a neighbour's cold state.
class alignas(64) PhyPort {
 public:
  /// Invoked when an idle-block slot is granted; returns the 56 bits to
  /// send. `tx_time`/`tx_tick` identify the local tick whose block carries
  /// the message.
  using ControlFactory = std::function<std::uint64_t(fs_t tx_time, std::int64_t tx_tick)>;

  /// \param sim  simulator (must outlive the port)
  /// \param osc  local oscillator — the TX clock domain (must outlive)
  PhyPort(sim::Simulator& sim, Oscillator& osc, PortParams params, std::string name);

  PhyPort(const PhyPort&) = delete;
  PhyPort& operator=(const PhyPort&) = delete;

  const std::string& name() const { return name_; }
  Oscillator& oscillator() { return hot_.osc; }
  const Oscillator& oscillator() const { return hot_.osc; }
  const RateSpec& rate() const { return rate_spec(params_.rate); }
  const PortParams& params() const { return params_; }

  /// Device-graph node this port belongs to (-1 until a Device adopts it).
  /// Drives event affinity: everything the port schedules runs on the
  /// owning device's shard in parallel mode.
  std::int32_t node() const { return hot_.node; }
  void set_node(std::int32_t node) { hot_.node = node; }

  bool link_up() const { return hot_.cable != nullptr; }
  /// The port at the cable's far end; null while the link is down.
  PhyPort* peer();
  /// One-way propagation delay of the attached cable; requires link_up().
  fs_t propagation_delay() const;

  /// Queue a control-message factory; it is granted the next idle block
  /// (immediately if the line is idle, in the next inter-packet gap if not).
  void request_control_slot(ControlFactory factory);

  // --- Bridged quiet path (Simulator::EngineMode::kBridged; DESIGN.md §12) --
  //
  // When the line is idle and on-lattice, a control slot requested "now"
  // would be granted by a service event at this very instant. The fused path
  // runs that service inline — same sequence-number positions, same counter
  // bumps — skipping the event machinery entirely. Callers must check
  // fusibility, reserve (at the position request_control_slot would consume
  // the service's sequence number), then fire.

  /// True iff a slot requested right now would be serviced at this exact
  /// instant with nothing able to interleave: link up, no queued factories,
  /// no armed service event, line free, on a tick edge, and no same-instant
  /// event pending ahead of the would-be service key. `tx_client` identifies
  /// the caller's beacon chain (its bridge-step client pointer) so the gate
  /// can ignore sibling ports' benign timers while still refusing to run
  /// ahead of a second chain on the same port.
  bool control_slot_fusible(const void* tx_client) const;

  /// Account for the fused service event's schedule (consumes its sequence
  /// number). Must run exactly where request_control_slot would have armed.
  void fuse_reserve_control();

  /// Run the fused service inline: fire accounting, factory at (now, tick),
  /// TX probe, line bookkeeping, and cable transmission.
  void fuse_fire_control(const ControlFactory& factory);

  /// Number of factories waiting for an idle block.
  std::size_t pending_control() const { return hot_.control_queue.size(); }

  /// Discard every queued control factory. Required when the layer that
  /// queued them is being destroyed (the factories capture it): an agent
  /// torn down mid-run (node crash) must not leave callbacks into freed
  /// protocol state waiting for an idle block.
  void clear_pending_control() { hot_.control_queue.clear(); }

  /// Earliest time a new frame may start serializing (IPG respected).
  fs_t frame_clear_time() const;

  /// Timing of one frame transmission.
  struct TxTiming {
    fs_t start;               ///< first bit on the wire (hardware TX timestamp point)
    fs_t end;                 ///< last bit on the wire
    fs_t next_frame_allowed;  ///< end plus inter-packet gap
  };

  /// Serialize a frame starting at the first permissible tick edge at or
  /// after now. Requires link_up().
  TxTiming send_frame(std::uint32_t wire_bytes, std::shared_ptr<const void> payload);

  /// Total frames / control blocks this port transmitted (diagnostics; the
  /// zero-overhead claim is `frames_sent` unchanged by enabling DTP).
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t control_blocks_sent() const { return hot_.control_sent; }

  /// CDC observability: control blocks that crossed this port's SyncFifo
  /// into the local clock domain, and how many of those crossings drew the
  /// metastability penalty cycle (the paper's only nondeterminism source).
  /// Single-writer (the port's shard); sampled at obs snapshot sync points.
  std::uint64_t fifo_crossings() const { return hot_.fifo_crossings; }
  std::uint64_t fifo_extra_cycles() const { return hot_.fifo_extra_cycles; }

  /// When the current (or most recent) cable attached — the anchor for the
  /// MAC's post-link-training data hold-off.
  fs_t last_link_up_at() const { return last_link_up_at_; }

 private:
  friend class Cable;

  void link_established(Cable* cable);
  void link_lost();
  void deliver_control(std::uint64_t bits56, fs_t tx_end, bool corrupted);
  void deliver_frame(FrameRx rx);
  void schedule_control_service();

  // Bridged-step trampolines and bodies. The arrival step replaces the link
  // delivery event (CDC crossing at the wire-arrival instant); the apply
  // step replaces the visibility event (probe + on_control at the crossing's
  // visible edge). Payload packing: a = bits56, b = wire arrival, c =
  // visible tick, d = bit0 random_extra | bit1 corrupted.
  static void bridge_arrival_step(void* client,
                                  const sim::EventQueue::BridgeStep& s, fs_t t);
  static void bridge_apply_step(void* client,
                                const sim::EventQueue::BridgeStep& s, fs_t t);
  void bridge_arrival(std::uint64_t bits56, fs_t wire_arrival, bool corrupted);
  /// The visibility event's body in both engines: probe, then on_control.
  void apply_control(const ControlRx& rx);

  /// Quiet-path state: everything a control block this port sends or
  /// receives reads, packed ahead of the rest of the object. TX reads it in
  /// control_slot_fusible, fuse_reserve_control, fuse_fire_control and
  /// schedule_control_service; RX in bridge_arrival; Cable::transmit_control
  /// reads the far port's node. The three quiet-path hooks follow it, so
  /// block plus hooks fill the first four cache lines; a member added here
  /// must fail the size check, not push those hooks onto a fifth line.
  struct Hot {
    sim::Simulator& sim;
    Oscillator& osc;           ///< the TX clock domain (the device's)
    Cable* cable = nullptr;    ///< null while the link is down
    fs_t line_free = 0;        ///< end of the last serialized block
    /// Factories waiting for an idle block, oldest first. Rarely more than
    /// one deep, so a vector popped from the front: a std::deque would
    /// allocate a 576-byte map and block per port at construction.
    std::vector<ControlFactory> control_queue{};
    std::int32_t node = -1;
    bool control_service_scheduled = false;
    std::uint64_t control_sent = 0;
    std::uint64_t fifo_crossings = 0;
    std::uint64_t fifo_extra_cycles = 0;
    SyncFifo fifo;  ///< RX CDC model; its RNG is drawn near an edge only
  };
  static_assert(sizeof(Hot) == 160, "PhyPort::Hot must stay 2.5 cache lines");
  Hot hot_;

 public:
  // Upper-layer hooks. All optional; unset hooks drop the event. The first
  // three are tested (and on_control called) for every control block, so
  // they sit right behind hot_; the link and frame hooks come after them.
  std::function<void(const ControlRx&)> on_control;  ///< DTP sublayer input

  // Observation probes (check::Sentinel). Pure observers, distinct from the
  // protocol hooks: they must not schedule events or mutate port state.
  // Fired on the port's shard thread in parallel mode, so a probe shared
  // across ports must synchronize its own state.
  /// Fired as a control block is serialized, before the cable sees it:
  /// the 56-bit payload and the tick edge it occupies.
  std::function<void(std::uint64_t bits56, fs_t tx_start)> probe_control_tx;
  /// Fired when a control block becomes visible in the local clock domain,
  /// just before `on_control`.
  std::function<void(const ControlRx&)> probe_control_rx;

  std::function<void()> on_link_up;                  ///< fired when cable attaches
  std::function<void()> on_link_down;                ///< fired when cable detaches
  std::function<void(const FrameRx&)> on_frame;      ///< MAC input

 private:
  // Cold: the frame path, the exact engine's service event, and identity.
  fs_t frame_allowed_ = 0;  ///< line_free plus any outstanding IPG
  std::uint64_t frames_sent_ = 0;
  fs_t control_service_at_ = 0;             ///< slot the service event is armed for
  sim::EventHandle control_service_event_;  ///< so a busied line can move it
  fs_t last_link_up_at_ = 0;
  PortParams params_;
  std::string name_;
};

/// Full-duplex point-to-point cable between two ports. Cache-line aligned:
/// both directions' quiet-path state fills the first two lines (see Hot).
class alignas(64) Cable {
 public:
  struct Params {
    fs_t propagation_delay = from_ns(50);  ///< ~10 m of fiber/twinax
    double ber = 0.0;                      ///< per-bit error probability
  };

  /// Connect `a` and `b`; both ports' `on_link_up` hooks fire immediately.
  Cable(sim::Simulator& sim, PhyPort& a, PhyPort& b, Params params);

  Cable(const Cable&) = delete;
  Cable& operator=(const Cable&) = delete;

  /// Unplug the cable: both ports go link-down (their `on_link_down` hooks
  /// fire) and can later be re-connected with a fresh Cable. Blocks and
  /// frames already in flight are lost — pulling the cable kills the light
  /// in the fiber, so nothing is ever delivered to a link-down port.
  /// Idempotent.
  void disconnect();
  bool connected() const { return connected_; }

  PhyPort& port_a() { return hot_.a; }
  PhyPort& port_b() { return hot_.b; }

  fs_t propagation_delay() const { return hot_.propagation_delay; }
  double ber() const { return hot_.ber; }

  /// Change the bit-error rate mid-run (fault injection: BER bursts).
  void set_ber(double ber) { hot_.ber = ber; }

  /// Probability that a control block is silently swallowed (fault
  /// injection: beacon-loss windows — models momentary loss of block lock
  /// where the receiver PCS discards /E/ blocks without seeing bit flips).
  void set_control_drop(double p) { hot_.control_drop = p; }
  double control_drop() const { return hot_.control_drop; }

  // --- Gray-failure seams (chaos: asymmetric_delay / limping_port /
  // silent_corruption). All are per-direction (0 = a->b, 1 = b->a) and act
  // on the control path only — they model a degraded transceiver lane, not
  // an unplugged cable, so nothing here trips link-down or the BER decoder.
  // Extra delay and stalls only ever *increase* an arrival time, which keeps
  // the parallel engine's registered-edge lookahead conservative.

  /// One direction of the cable gains constant extra latency, silently
  /// biasing the symmetric-propagation assumption behind measured OWD.
  void set_extra_delay(int dir, fs_t extra);
  fs_t extra_delay(int dir) const { return hot_.extra_delay[check_dir(dir)]; }

  /// Intermittent TX stalls: with probability `prob`, a control block is
  /// held for `stall` before it starts propagating (a limping serializer).
  /// Stalled blocks never overtake later ones — the line is FIFO.
  void set_tx_stall(int dir, double prob, fs_t stall);

  /// With probability `prob`, flip one low bit of the counter field in the
  /// 56-bit payload. Unlike the BER path the block is NOT flagged corrupted:
  /// the damage survives framing and reaches the DTP sublayer as truth.
  void set_silent_corrupt(int dir, double prob);

  /// Cumulative corrupted / dropped transmissions (diagnostics; summed over
  /// both directions — each direction keeps its own counter because the two
  /// endpoints may transmit from different worker threads).
  std::uint64_t corrupted_control() const {
    return corrupted_control_[0] + corrupted_control_[1];
  }
  std::uint64_t corrupted_frames() const {
    return corrupted_frames_[0] + corrupted_frames_[1];
  }
  std::uint64_t dropped_control() const {
    return dropped_control_[0] + dropped_control_[1];
  }

 private:
  friend class PhyPort;

  PhyPort& other_side(const PhyPort& from);
  /// 0 for a->b, 1 for b->a. Each direction has its own RNG stream, error
  /// counters, and (edge, message) key sequence, so the two endpoints can
  /// transmit concurrently from their own shards.
  int direction_of(const PhyPort& from) const { return &from == &hot_.a ? 0 : 1; }
  static int check_dir(int dir);
  /// Move one control block across; applies BER and schedules delivery.
  void transmit_control(PhyPort& from, std::uint64_t bits56, fs_t tx_end);
  /// Move one frame across; applies BER and schedules delivery.
  void transmit_frame(PhyPort& from, std::uint32_t wire_bytes,
                      std::shared_ptr<const void> payload, fs_t tx_end);

  /// Remember a scheduled delivery so disconnect() can cancel it. Handles
  /// live in a power-of-two ring sized for the natural in-flight depth
  /// (propagation delay / block time); the head is pruned of already-fired
  /// entries only when the ring wraps full, so steady-state tracking is O(1)
  /// with no periodic scans. Mailbox-routed deliveries have no handle and
  /// are cancelled by owner purge instead.
  void track(sim::EventHandle h);
  void grow_ring();

  /// Quiet-path state of both directions, read by transmit_control for
  /// every control block and by transmit_frame for every frame. The first
  /// line is the delivery itself (ends, delay, FIFO clamp, tie key); the
  /// second holds the fault seams' switches, which each block tests even
  /// while all are off. What a seam reads once it is on (stall lengths, the
  /// RNG streams) and the counters sit behind, in cold lines.
  struct Hot {
    sim::Simulator& sim;
    PhyPort& a;
    PhyPort& b;
    fs_t propagation_delay;
    fs_t last_control_arrival[2] = {};  ///< FIFO clamp under stalls/delay
    std::uint32_t dir_id[2];            ///< globally unique edge-direction ids
    std::uint32_t tx_seq[2] = {};       ///< per-direction message index (key low bits)
    double ber;                         ///< per-bit error probability
    double control_drop = 0.0;
    fs_t extra_delay[2] = {};       ///< gray: constant one-way delay bias
    double stall_prob[2] = {};      ///< gray: limping-port stall probability
    double silent_corrupt[2] = {};  ///< gray: unflagged counter-bit flips
  };
  static_assert(sizeof(Hot) == 128, "Cable::Hot must stay two cache lines");
  Hot hot_;

  Rng rng_ab_;  ///< a->b direction stream
  Rng rng_ba_;  ///< b->a direction stream
  fs_t stall_[2] = {};  ///< gray: per-stall hold time
  bool connected_ = true;
  std::vector<sim::EventHandle> ring_;  ///< in-flight deliveries (power-of-two)
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::uint64_t corrupted_control_[2] = {};
  std::uint64_t corrupted_frames_[2] = {};
  std::uint64_t dropped_control_[2] = {};
};

}  // namespace dtpsim::phy
