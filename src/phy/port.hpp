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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
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

/// The PHY half of a port's record (sim::PortRecords, DESIGN.md §14): what
/// a control block the port sends or receives reads, including the transmit
/// direction of its cable. It sits behind the DTP half, so its first 24
/// bytes share the record's middle line with the DTP state a beacon timer
/// reads, and the rest is the record's last line.
struct PortRecordPhy {
  /// Flag bits: the state every control block tests, one byte.
  enum : std::uint8_t {
    kLinkUp = 1 << 0,        ///< a cable is attached
    kQueued = 1 << 1,        ///< control factories wait for an idle block
    kServiceArmed = 1 << 2,  ///< the exact engine's service event is armed
    kSeams = 1 << 3,         ///< a fault seam of the transmit direction is on
    kProbeTx = 1 << 4,       ///< probe_control_tx is set
    kProbeRx = 1 << 5,       ///< probe_control_rx is set
    kUpper = 1 << 6,         ///< a live DTP half takes this port's blocks
  };

  // Middle line: what every step of this port reads.
  Oscillator* osc;           ///< the TX clock domain (the device's)
  fs_t line_free = 0;        ///< end of the last serialized block
  std::int32_t node = -1;
  std::uint8_t flags = 0;
  std::int16_t fifo_pipeline = 0;  ///< SyncFifoParams::pipeline_cycles
  // Last line: the transmit path and the CDC crossing.
  std::uint32_t peer = sim::PortRecords::kNoPort;  ///< far port while linked
  std::int32_t peer_node = -1;
  std::uint64_t control_sent = 0;
  fs_t tx_delay = 0;          ///< propagation plus the direction's extra delay
  fs_t tx_last_arrival = 0;   ///< FIFO clamp under stalls and delay changes
  std::uint32_t tx_dir = 0;   ///< the direction's globally unique id
  std::uint32_t tx_seq = 0;   ///< per-direction message index (key low bits)
  std::uint64_t fifo_crossings = 0;
  std::uint64_t fifo_extra_cycles = 0;
  double fifo_window = 0;     ///< SyncFifoParams::metastability_window
};
static_assert(sizeof(PortRecordPhy) == sim::PortRecords::kPhyBytes,
              "the PHY half must fill the record's last 88 bytes");
static_assert(offsetof(PortRecordPhy, peer) + sim::PortRecords::kUpperBytes == 128,
              "the transmit path must start the record's last line");

/// One physical port: TX serialization, RX delivery, DTP idle-block slots.
/// The quiet path's state lives in the port's record; the object keeps the
/// hooks, the frame path, the exact engine's service event and identity.
class PhyPort {
 public:
  /// Invoked when an idle-block slot is granted; returns the 56 bits to
  /// send. `tx_time`/`tx_tick` identify the local tick whose block carries
  /// the message.
  using ControlFactory = std::function<std::uint64_t(fs_t tx_time, std::int64_t tx_tick)>;

  /// Where a port with a live DTP half delivers its control blocks, instead
  /// of `on_control`: registered by the layer above (dtp::PortLogic), one
  /// function for the whole program.
  using ControlSink = void (*)(sim::Simulator& sim, std::uint32_t port,
                               const ControlRx& rx);
  static void set_control_sink(ControlSink sink) {
    control_sink_.store(sink, std::memory_order_relaxed);
  }

  /// \param sim  simulator (must outlive the port)
  /// \param osc  local oscillator — the TX clock domain (must outlive)
  /// \param id   the port's record, from a run its device reserved;
  ///             kNoPort allocates one of its own
  PhyPort(sim::Simulator& sim, Oscillator& osc, PortParams params, std::string name,
          std::uint32_t id = sim::PortRecords::kNoPort);
  ~PhyPort();

  PhyPort(const PhyPort&) = delete;
  PhyPort& operator=(const PhyPort&) = delete;

  const std::string& name() const { return name_; }
  Oscillator& oscillator() { return *rec().osc; }
  const Oscillator& oscillator() const { return *rec().osc; }
  const RateSpec& rate() const { return rate_spec(params_.rate); }
  const PortParams& params() const { return params_; }

  /// The port's id in the simulator's PortRecords.
  std::uint32_t id() const { return id_; }
  /// This port's record half (see PortRecordPhy).
  static PortRecordPhy& record(sim::Simulator& sim, std::uint32_t id) {
    return *std::launder(reinterpret_cast<PortRecordPhy*>(sim.port_records().phy(id)));
  }

  /// Device-graph node this port belongs to (-1 until a Device adopts it).
  /// Drives event affinity: everything the port schedules runs on the
  /// owning device's shard in parallel mode.
  std::int32_t node() const { return rec().node; }
  void set_node(std::int32_t node);

  bool link_up() const { return (rec().flags & PortRecordPhy::kLinkUp) != 0; }
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
  // the service's sequence number), then fire. All three act on the record
  // of port `port` alone.

  /// True iff a slot requested right now would be serviced at this exact
  /// instant with nothing able to interleave: link up, no queued factories,
  /// no armed service event, line free, on a tick edge, and no same-instant
  /// event pending ahead of the would-be service key. The gate ignores
  /// sibling ports' benign timers while still refusing to run ahead of a
  /// second beacon chain on the same port. On true, `tick` is the local
  /// tick whose edge is now.
  static bool control_slot_fusible(sim::Simulator& sim, std::uint32_t port,
                                   std::int64_t& tick);

  /// Account for the fused service event's schedule (consumes its sequence
  /// number). Must run exactly where request_control_slot would have armed.
  static void fuse_reserve_control(sim::Simulator& sim, std::uint32_t port) {
    sim.bridge_virtual_schedule(record(sim, port).node);
  }

  /// Run the fused service inline: fire accounting, factory at (now,
  /// tx_tick), TX probe, line bookkeeping, and cable transmission.
  /// `tx_tick` is the tick control_slot_fusible() reported.
  template <typename Factory>
  static void fuse_fire_control(sim::Simulator& sim, std::uint32_t port,
                                std::int64_t tx_tick, Factory&& factory) {
    // Mirrors the service event body under control_slot_fusible()'s
    // preconditions: tx_start == now (on-lattice), queue empty, line free.
    const fs_t tx_start = sim.now();
    sim.bridge_virtual_fire(record(sim, port).node, sim::EventCategory::kFrame, tx_start);
    finish_control_tx(sim, port, factory(tx_start, tx_tick), tx_start, tx_tick);
  }

  /// Number of factories waiting for an idle block.
  std::size_t pending_control() const { return control_queue_.size(); }

  /// Discard every queued control factory. Required when the layer that
  /// queued them is being destroyed (the factories capture it): an agent
  /// torn down mid-run (node crash) must not leave callbacks into freed
  /// protocol state waiting for an idle block.
  void clear_pending_control();

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
  std::uint64_t control_blocks_sent() const { return rec().control_sent; }

  /// CDC observability: control blocks that crossed this port's SyncFifo
  /// into the local clock domain, and how many of those crossings drew the
  /// metastability penalty cycle (the paper's only nondeterminism source).
  /// Single-writer (the port's shard); sampled at obs snapshot sync points.
  std::uint64_t fifo_crossings() const { return rec().fifo_crossings; }
  std::uint64_t fifo_extra_cycles() const { return rec().fifo_extra_cycles; }

  /// When the current (or most recent) cable attached — the anchor for the
  /// MAC's post-link-training data hold-off.
  fs_t last_link_up_at() const { return last_link_up_at_; }

  /// Observation probes (check::Sentinel). Pure observers, distinct from
  /// the protocol hooks: they must not schedule events or mutate port
  /// state. Fired on the port's shard thread in parallel mode, so a probe
  /// shared across ports must synchronize its own state. The TX probe fires
  /// as a control block is serialized, before the cable sees it, with the
  /// 56-bit payload and the tick edge it occupies; the RX probe when a
  /// control block becomes visible in the local clock domain, just before
  /// it is delivered. An empty function detaches a probe.
  void set_probe_control_tx(std::function<void(std::uint64_t bits56, fs_t tx_start)> probe);
  void set_probe_control_rx(std::function<void(const ControlRx&)> probe);

  // Upper-layer hooks. All optional; unset hooks drop the event. A port
  // with a live DTP half delivers control blocks to the ControlSink instead
  // of on_control.
  std::function<void(const ControlRx&)> on_control;  ///< DTP sublayer input
  std::function<void()> on_link_up;                  ///< fired when cable attaches
  std::function<void()> on_link_down;                ///< fired when cable detaches
  std::function<void(const FrameRx&)> on_frame;      ///< MAC input

 private:
  friend class Cable;

  PortRecordPhy& rec() { return *rec_; }
  const PortRecordPhy& rec() const { return *rec_; }
  static PhyPort& owner(sim::Simulator& sim, std::uint32_t port) {
    return *static_cast<PhyPort*>(sim.port_records().phy_owner(port));
  }

  void link_established(Cable* cable);
  void link_lost();
  void deliver_control(std::uint64_t bits56, fs_t tx_end, bool corrupted);
  void deliver_frame(FrameRx rx);
  void schedule_control_service();
  void set_flag(std::uint8_t bit, bool on);

  /// The service event's body after the factory: TX probe, line
  /// bookkeeping, transmission, and a re-arm if more factories wait. Shared
  /// by the exact service event and the fused path.
  static void finish_control_tx(sim::Simulator& sim, std::uint32_t port,
                                std::uint64_t bits, fs_t tx_start, std::int64_t tx_tick);
  /// Move one control block across the cable (Cable::transmit_control's
  /// quiet path on the record; faults and the exact delivery through the
  /// cable): applies the seams and arms the delivery.
  static void transmit_control(sim::Simulator& sim, std::uint32_t port,
                               std::uint64_t bits56, fs_t tx_end);

  // Bridged-step handlers and bodies. The arrival step replaces the link
  // delivery event (CDC crossing at the wire-arrival instant); the apply
  // step replaces the visibility event (probe + delivery at the crossing's
  // visible edge). Payload packing: a = bits56 | corrupted << 56 (| random
  // extra << 57 on an apply), b = wire arrival, c = visible tick.
  static void bridge_arrival_step(void* sim, const sim::EventQueue::BridgeStep& s);
  static void bridge_apply_step(void* sim, const sim::EventQueue::BridgeStep& s);
  /// The visibility event's body in both engines: probe, then delivery.
  static void apply_control(sim::Simulator& sim, std::uint32_t port, const ControlRx& rx);

  static inline std::atomic<ControlSink> control_sink_{nullptr};

  sim::Simulator& sim_;
  std::uint32_t id_;
  PortRecordPhy* rec_;      ///< this port's half of its record
  Cable* cable_ = nullptr;  ///< null while the link is down
  /// Factories waiting for an idle block, oldest first. Rarely more than
  /// one deep, so a vector popped from the front: a std::deque would
  /// allocate a 576-byte map and block per port at construction.
  std::vector<ControlFactory> control_queue_;
  SyncFifo fifo_;  ///< RX CDC parameters and RNG (drawn near an edge only)
  std::function<void(std::uint64_t, fs_t)> probe_control_tx_;
  std::function<void(const ControlRx&)> probe_control_rx_;
  fs_t frame_allowed_ = 0;  ///< line_free plus any outstanding IPG
  std::uint64_t frames_sent_ = 0;
  fs_t control_service_at_ = 0;             ///< slot the service event is armed for
  sim::EventHandle control_service_event_;  ///< so a busied line can move it
  fs_t last_link_up_at_ = 0;
  PortParams params_;
  std::string name_;
};

/// Full-duplex point-to-point cable between two ports. A direction's quiet
/// path (delay, FIFO clamp, key sequence, whether any seam is on) lives in
/// the record of the port that transmits on it; the cable keeps the seams'
/// values, the RNG streams and the counters.
class Cable {
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

  PhyPort& port_a() { return a_; }
  PhyPort& port_b() { return b_; }

  fs_t propagation_delay() const { return propagation_delay_; }
  double ber() const { return ber_; }

  /// Change the bit-error rate mid-run (fault injection: BER bursts).
  void set_ber(double ber);

  /// Probability that a control block is silently swallowed (fault
  /// injection: beacon-loss windows — models momentary loss of block lock
  /// where the receiver PCS discards /E/ blocks without seeing bit flips).
  void set_control_drop(double p);

  // --- Gray-failure seams (chaos: asymmetric_delay / limping_port /
  // silent_corruption). All are per-direction (0 = a->b, 1 = b->a) and act
  // on the control path only — they model a degraded transceiver lane, not
  // an unplugged cable, so nothing here trips link-down or the BER decoder.
  // Extra delay and stalls only ever *increase* an arrival time, which keeps
  // the parallel engine's registered-edge lookahead conservative.

  /// One direction of the cable gains constant extra latency, silently
  /// biasing the symmetric-propagation assumption behind measured OWD.
  void set_extra_delay(int dir, fs_t extra);
  fs_t extra_delay(int dir) const { return extra_delay_[check_dir(dir)]; }

  /// Intermittent TX stalls: with probability `prob`, a control block is
  /// held for `stall` before it starts propagating (a limping serializer).
  /// Stalled blocks never overtake later ones — the line is FIFO.
  void set_tx_stall(int dir, double prob, fs_t stall);

  /// With probability `prob`, flip one low bit of the counter field in the
  /// 56-bit payload. Unlike the BER path the block is NOT flagged corrupted:
  /// the damage survives framing and reaches the DTP sublayer as truth.
  void set_silent_corrupt(int dir, double prob);

  /// Cumulative BER-corrupted control blocks (diagnostics; summed over
  /// both directions — each direction keeps its own counter because the two
  /// endpoints may transmit from different worker threads).
  std::uint64_t corrupted_control() const {
    return corrupted_control_[0] + corrupted_control_[1];
  }

 private:
  friend class PhyPort;

  PhyPort& other_side(const PhyPort& from);
  /// 0 for a->b, 1 for b->a. Each direction has its own RNG stream, error
  /// counters, and (edge, message) key sequence, so the two endpoints can
  /// transmit concurrently from their own shards.
  int direction_of(const PhyPort& from) const { return &from == &a_ ? 0 : 1; }
  static int check_dir(int dir);
  /// Copy direction `dir`'s delay and seam switch into its sender's record
  /// (while connected).
  void refresh_direction(int dir);
  /// The control path's seams in their fixed draw order: drop, BER, silent
  /// corruption, stall. Returns false if the block is dropped; otherwise
  /// may flip `bits`, sets `corrupted`, and returns any stall in `stall`.
  bool draw_control_seams(int dir, std::uint64_t& bits, bool& corrupted, fs_t& stall);
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

  sim::Simulator& sim_;
  PhyPort& a_;
  PhyPort& b_;
  fs_t propagation_delay_;
  std::uint32_t dir_id_[2];  ///< globally unique edge-direction ids
  double ber_;               ///< per-bit error probability
  double control_drop_ = 0.0;
  fs_t extra_delay_[2] = {};       ///< gray: constant one-way delay bias
  double stall_prob_[2] = {};      ///< gray: limping-port stall probability
  fs_t stall_[2] = {};             ///< gray: per-stall hold time
  double silent_corrupt_[2] = {};  ///< gray: unflagged counter-bit flips
  Rng rng_ab_;  ///< a->b direction stream
  Rng rng_ba_;  ///< b->a direction stream
  bool connected_ = true;
  std::vector<sim::EventHandle> ring_;  ///< in-flight deliveries (power-of-two)
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::uint64_t corrupted_control_[2] = {};
};

}  // namespace dtpsim::phy
