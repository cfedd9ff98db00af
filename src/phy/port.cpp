#include "phy/port.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dtpsim::phy {

namespace {

std::int16_t checked_pipeline(const SyncFifoParams& fifo) {
  if (fifo.pipeline_cycles < std::numeric_limits<std::int16_t>::min() ||
      fifo.pipeline_cycles > std::numeric_limits<std::int16_t>::max())
    throw std::invalid_argument("PhyPort: fifo pipeline_cycles must fit in 16 bits");
  return static_cast<std::int16_t>(fifo.pipeline_cycles);
}

std::uint32_t record_id(sim::Simulator& sim, std::uint32_t id) {
  return id != sim::PortRecords::kNoPort ? id : sim.port_records().allocate(1);
}

}  // namespace

PhyPort::PhyPort(sim::Simulator& sim, Oscillator& osc, PortParams params, std::string name,
                 std::uint32_t id)
    : sim_(sim),
      id_(record_id(sim, id)),
      rec_(nullptr),
      fifo_(params.fifo, sim.fork_rng(std::hash<std::string>{}(name) | 1)),
      params_(params),
      name_(std::move(name)) {
  sim::PortRecords& records = sim_.port_records();
  sim::PortRecords::revive(records.phy(id_), sim::PortRecords::kPhyBytes);
  rec_ = ::new (records.phy(id_)) PortRecordPhy{.osc = &osc};
  rec_->fifo_pipeline = checked_pipeline(params.fifo);
  rec_->fifo_window = params.fifo.metastability_window;
  records.set_phy_owner(id_, this);
  sim_.set_bridge_handler(sim::EventQueue::BridgeKind::kArrival,
                          {&PhyPort::bridge_arrival_step, &sim_});
  sim_.set_bridge_handler(sim::EventQueue::BridgeKind::kApply,
                          {&PhyPort::bridge_apply_step, &sim_});
}

PhyPort::~PhyPort() {
  sim_.port_records().set_phy_owner(id_, nullptr);
  rec_->~PortRecordPhy();
  sim::PortRecords::retire(rec_, sim::PortRecords::kPhyBytes);
}

void PhyPort::set_flag(std::uint8_t bit, bool on) {
  PortRecordPhy& r = rec();
  r.flags = static_cast<std::uint8_t>(on ? r.flags | bit : r.flags & ~bit);
}

void PhyPort::set_node(std::int32_t node) {
  rec().node = node;
  if (cable_ != nullptr) record(sim_, rec().peer).peer_node = node;
}

void PhyPort::set_probe_control_tx(std::function<void(std::uint64_t, fs_t)> probe) {
  probe_control_tx_ = std::move(probe);
  set_flag(PortRecordPhy::kProbeTx, static_cast<bool>(probe_control_tx_));
}

void PhyPort::set_probe_control_rx(std::function<void(const ControlRx&)> probe) {
  probe_control_rx_ = std::move(probe);
  set_flag(PortRecordPhy::kProbeRx, static_cast<bool>(probe_control_rx_));
}

PhyPort* PhyPort::peer() {
  return cable_ != nullptr ? &cable_->other_side(*this) : nullptr;
}

fs_t PhyPort::propagation_delay() const {
  if (!cable_) throw std::logic_error("PhyPort: no cable attached");
  return cable_->propagation_delay();
}

void PhyPort::link_established(Cable* cable) {
  if (cable_) throw std::logic_error("PhyPort: already connected");
  // Cables attach from setup or chaos code (global context); everything the
  // hooks schedule belongs to this port's device.
  PortRecordPhy& r = rec();
  sim::ScopedAffinity aff(r.node);
  cable_ = cable;
  const int dir = cable->direction_of(*this);
  const PhyPort& far = cable->other_side(*this);
  r.peer = far.id_;
  r.peer_node = far.node();
  r.tx_dir = cable->dir_id_[dir];
  r.tx_seq = 0;
  r.tx_last_arrival = 0;
  r.flags |= PortRecordPhy::kLinkUp;
  cable->refresh_direction(dir);
  r.line_free = std::max(r.line_free, sim_.now());
  frame_allowed_ = std::max(frame_allowed_, sim_.now());
  last_link_up_at_ = sim_.now();
  if (on_link_up) on_link_up();
  // Control requests queued while the link was down get slots now.
  schedule_control_service();
}

void PhyPort::link_lost() {
  PortRecordPhy& r = rec();
  sim::ScopedAffinity aff(r.node);
  cable_ = nullptr;
  r.peer = sim::PortRecords::kNoPort;
  r.flags &= static_cast<std::uint8_t>(~(PortRecordPhy::kLinkUp | PortRecordPhy::kSeams));
  if (on_link_down) on_link_down();
}

void PhyPort::request_control_slot(ControlFactory factory) {
  if (!factory) throw std::invalid_argument("PhyPort: empty control factory");
  control_queue_.push_back(std::move(factory));
  rec().flags |= PortRecordPhy::kQueued;
  schedule_control_service();
}

void PhyPort::clear_pending_control() {
  control_queue_.clear();
  set_flag(PortRecordPhy::kQueued, false);
}

void PhyPort::schedule_control_service() {
  if (control_queue_.empty() || !link_up()) return;
  PortRecordPhy& r = rec();
  sim::ScopedAffinity aff(r.node);

  const fs_t slot = r.osc->next_edge_at_or_after(std::max(sim_.now(), r.line_free));
  if (r.flags & PortRecordPhy::kServiceArmed) {
    if (slot == control_service_at_) return;  // armed for the right slot already
    // The line was claimed by a frame (or the edge lattice moved) since we
    // armed: move the event to the new earliest slot. Firing at the stale
    // slot just to discover the line is busy would burn one event per frame
    // on a saturated link.
    sim_.cancel(control_service_event_);
  }
  r.flags |= PortRecordPhy::kServiceArmed;
  control_service_at_ = slot;
  control_service_event_ = sim_.schedule_at(
      slot,
      [this] {
        PortRecordPhy& rr = rec();
        rr.flags &= static_cast<std::uint8_t>(~PortRecordPhy::kServiceArmed);
        if (control_queue_.empty() || !link_up()) return;
        // Defensive: send_frame re-aims the service event whenever it claims
        // the line, so these retries should not trigger; they keep the port
        // correct if a future caller mutates the line without re-aiming.
        if (rr.line_free > sim_.now()) {
          schedule_control_service();
          return;
        }
        const fs_t tx_start = rr.osc->next_edge_at_or_after(sim_.now());
        if (tx_start > sim_.now()) {
          // Drifted off the edge lattice (period change); realign.
          schedule_control_service();
          return;
        }
        const std::int64_t tx_tick = rr.osc->tick_at(tx_start);
        ControlFactory factory = std::move(control_queue_.front());
        control_queue_.erase(control_queue_.begin());
        if (control_queue_.empty())
          rr.flags &= static_cast<std::uint8_t>(~PortRecordPhy::kQueued);
        finish_control_tx(sim_, id_, factory(tx_start, tx_tick), tx_start, tx_tick);
      },
      sim::EventCategory::kFrame);
}

void PhyPort::finish_control_tx(sim::Simulator& sim, std::uint32_t port,
                                std::uint64_t bits, fs_t tx_start, std::int64_t tx_tick) {
  PortRecordPhy& r = record(sim, port);
  if (r.flags & PortRecordPhy::kProbeTx) owner(sim, port).probe_control_tx_(bits, tx_start);
  const fs_t tx_end = r.osc->edge_of_tick(tx_tick + 1);
  r.line_free = tx_end;
  ++r.control_sent;
  transmit_control(sim, port, bits, tx_end);
  // The exact body ends with schedule_control_service(), which only acts on
  // a non-empty queue: the factory itself may have queued a follow-up.
  if (r.flags & PortRecordPhy::kQueued) owner(sim, port).schedule_control_service();
}

bool PhyPort::control_slot_fusible(sim::Simulator& sim, std::uint32_t port,
                                   std::int64_t& tick) {
  const PortRecordPhy& r = record(sim, port);
  constexpr std::uint8_t kBusy = PortRecordPhy::kQueued | PortRecordPhy::kServiceArmed;
  if (!(r.flags & PortRecordPhy::kLinkUp) || (r.flags & kBusy)) return false;
  const fs_t now = sim.now();
  if (r.line_free > now) return false;
  // Off the edge lattice (a period change landed between edges): the exact
  // engine would arm the service for a later slot, so fall back to it.
  tick = r.osc->tick_at(now);
  if (r.osc->edge_of_tick(tick) != now) return false;
  // A same-instant event ahead of the would-be service key (a global fault,
  // this node's applies, a second chain on this port) could interleave in
  // the exact engine; the fused path must yield to it.
  return sim.bridge_tx_fusible(r.node, port);
}

void PhyPort::transmit_control(sim::Simulator& sim, std::uint32_t port,
                               std::uint64_t bits56, fs_t tx_end) {
  PortRecordPhy& r = record(sim, port);
  bool corrupted = false;
  fs_t stall = 0;
  if (r.flags & PortRecordPhy::kSeams) {
    Cable& cable = *owner(sim, port).cable_;
    const int dir = cable.direction_of(owner(sim, port));
    if (!cable.draw_control_seams(dir, bits56, corrupted, stall)) return;
  }
  fs_t arrival = tx_end + r.tx_delay + stall;
  // The lane is FIFO: a stalled block holds its successors behind it, so a
  // later block never overtakes an earlier one. No-op when the seams are off
  // (serialization already makes per-direction arrivals monotone).
  if (arrival < r.tx_last_arrival) arrival = r.tx_last_arrival;
  r.tx_last_arrival = arrival;
  const std::uint64_t key = (static_cast<std::uint64_t>(r.tx_dir) << 32) | r.tx_seq++;
  if (sim.bridged()) {
    // POD arrival step on the destination queue at the same (time, link key)
    // the exact delivery event would occupy. Cross-shard sends from a worker
    // still take the exact mailbox path below.
    sim::EventQueue::BridgeStep step;
    step.port = r.peer;
    step.a = bits56 | (corrupted ? 1ULL << 56 : 0);
    step.kind = sim::EventQueue::BridgeKind::kArrival;
    if (sim.bridge_deliver_link(r.peer_node, arrival, key, step)) return;
  }
  PhyPort& from = owner(sim, port);
  PhyPort* to = &owner(sim, r.peer);
  sim.deliver_link(
      r.node, r.peer_node, arrival,
      [to, bits56, arrival, corrupted] { to->deliver_control(bits56, arrival, corrupted); },
      sim::EventCategory::kFrame, from.cable_, key);
}

void PhyPort::bridge_arrival_step(void* ctx, const sim::EventQueue::BridgeStep& s) {
  // Mirrors deliver_control: the CDC crossing draws its RNG at the arrival
  // instant, then visibility is armed for the crossing's edge. When nothing
  // can fire in between — and the edge is inside the active run horizon —
  // the visibility event is fused inline instead of re-entering the heap.
  sim::Simulator& sim = *static_cast<sim::Simulator*>(ctx);
  PortRecordPhy& r = record(sim, s.port);
  const fs_t wire_arrival = s.time;
  const CrossingResult crossing =
      cdc_cross(*r.osc, wire_arrival, r.fifo_window, r.fifo_pipeline,
                [&] { return owner(sim, s.port).fifo_.draw_extra(); });
  ++r.fifo_crossings;
  r.fifo_extra_cycles += static_cast<std::uint64_t>(crossing.random_extra);
  const std::uint64_t bits56 = s.a & ((1ULL << 56) - 1);
  const bool corrupted = (s.a >> 56 & 1) != 0;
  if (sim.bridge_fusible_at(r.node, crossing.visible_time)) {
    sim.bridge_virtual_schedule(r.node);
    sim.bridge_virtual_fire(r.node, sim::EventCategory::kFrame, crossing.visible_time);
    apply_control(sim, s.port, ControlRx{bits56, wire_arrival, crossing, corrupted});
    return;
  }
  sim::EventQueue::BridgeStep step;
  step.port = s.port;
  step.a = s.a | (static_cast<std::uint64_t>(crossing.random_extra & 1) << 57);
  step.b = wire_arrival;
  step.c = crossing.visible_tick;
  step.kind = sim::EventQueue::BridgeKind::kApply;
  sim.bridge_schedule(r.node, crossing.visible_time, step);
}

void PhyPort::bridge_apply_step(void* ctx, const sim::EventQueue::BridgeStep& s) {
  const CrossingResult crossing{s.c, s.time, static_cast<int>(s.a >> 57 & 1)};
  apply_control(*static_cast<sim::Simulator*>(ctx), s.port,
                ControlRx{s.a & ((1ULL << 56) - 1), s.b, crossing, (s.a >> 56 & 1) != 0});
}

void PhyPort::apply_control(sim::Simulator& sim, std::uint32_t port, const ControlRx& rx) {
  const std::uint8_t flags = record(sim, port).flags;
  if (flags & PortRecordPhy::kProbeRx) owner(sim, port).probe_control_rx_(rx);
  if (flags & PortRecordPhy::kUpper)
    control_sink_.load(std::memory_order_relaxed)(sim, port, rx);
}

fs_t PhyPort::frame_clear_time() const {
  return std::max(frame_allowed_, rec().line_free);
}

PhyPort::TxTiming PhyPort::send_frame(std::uint32_t wire_bytes,
                                      std::shared_ptr<const void> payload) {
  if (!link_up()) throw std::logic_error("PhyPort: send_frame with link down");
  PortRecordPhy& r = rec();
  sim::ScopedAffinity aff(r.node);
  const fs_t start =
      r.osc->next_edge_at_or_after(std::max(sim_.now(), frame_clear_time()));
  const std::int64_t start_tick = r.osc->tick_at(start);
  const std::int64_t blocks = blocks_for_frame(wire_bytes);
  const fs_t end = r.osc->edge_of_tick(start_tick + blocks);
  r.line_free = end;
  frame_allowed_ = r.osc->edge_of_tick(start_tick + blocks + kIpgBlocks);
  ++frames_sent_;
  cable_->transmit_frame(*this, wire_bytes, std::move(payload), end);
  // A control request queued mid-frame gets the IPG slot right after `end`.
  schedule_control_service();
  return TxTiming{start, end, frame_allowed_};
}

void PhyPort::deliver_control(std::uint64_t bits56, fs_t tx_end, bool corrupted) {
  const fs_t wire_arrival = tx_end;  // propagation already applied by cable
  PortRecordPhy& r = rec();
  const CrossingResult crossing =
      cdc_cross(*r.osc, wire_arrival, r.fifo_window, r.fifo_pipeline,
                [this] { return fifo_.draw_extra(); });
  ++r.fifo_crossings;
  r.fifo_extra_cycles += static_cast<std::uint64_t>(crossing.random_extra);
  sim::ScopedAffinity aff(r.node);
  // The capture packs the crossing as the bridged apply step does, so it
  // fits Callback's inline buffer: the event fires at the visible edge, so
  // that time is now() at fire, and d = bit0 random_extra | bit1 corrupted.
  const std::int64_t visible_tick = crossing.visible_tick;
  const std::int32_t d = (crossing.random_extra & 1) | (corrupted ? 2 : 0);
  sim_.schedule_at(
      crossing.visible_time,
      [this, bits56, wire_arrival, visible_tick, d] {
        const CrossingResult c{visible_tick, sim_.now(), d & 1};
        apply_control(sim_, id_, ControlRx{bits56, wire_arrival, c, (d & 2) != 0});
      },
      sim::EventCategory::kFrame);
}

void PhyPort::deliver_frame(FrameRx rx) {
  if (on_frame) on_frame(rx);
}

Cable::Cable(sim::Simulator& sim, PhyPort& a, PhyPort& b, Params params)
    : sim_(sim),
      a_(a),
      b_(b),
      propagation_delay_(params.propagation_delay),
      dir_id_{sim.alloc_link_dir_id(), sim.alloc_link_dir_id()},
      ber_(params.ber),
      rng_ab_(sim.fork_rng(0xCAB1E)),
      rng_ba_(rng_ab_.fork(1)) {
  if (&a == &b) throw std::invalid_argument("Cable: cannot connect a port to itself");
  if (propagation_delay_ < 0) throw std::invalid_argument("Cable: negative delay");
  sim_.register_edge(a_.node(), b_.node(), propagation_delay_);
  a_.link_established(this);
  b_.link_established(this);
}

void Cable::disconnect() {
  if (!connected_) return;
  connected_ = false;
  // Kill everything still on the wire: an unplug extinguishes the light, so
  // a block that has not finished arriving never reaches the far PCS. Without
  // this, delivery events scheduled before the unplug would fire into a
  // link-down port (upper layers have already torn down their expectations).
  // Exact deliveries carry this cable as their owner tag and bridged
  // arrivals are the POD steps into its two ports; both are purged from the
  // queues directly.
  sim_.purge_deliveries(this, a_.node(), b_.node(), a_.id(), b_.id());
  a_.link_lost();
  b_.link_lost();
}

PhyPort& Cable::other_side(const PhyPort& from) {
  return &from == &a_ ? b_ : a_;
}

int Cable::check_dir(int dir) {
  if (dir != 0 && dir != 1)
    throw std::invalid_argument("Cable: direction must be 0 (a->b) or 1 (b->a)");
  return dir;
}

void Cable::refresh_direction(int dir) {
  if (!connected_) return;
  PortRecordPhy& r = (dir == 0 ? a_ : b_).rec();
  r.tx_delay = propagation_delay_ + extra_delay_[dir];
  const bool seams = control_drop_ > 0.0 || ber_ > 0.0 || silent_corrupt_[dir] > 0.0 ||
                     stall_prob_[dir] > 0.0;
  r.flags = static_cast<std::uint8_t>(seams ? r.flags | PortRecordPhy::kSeams
                                            : r.flags & ~PortRecordPhy::kSeams);
}

void Cable::set_ber(double ber) {
  ber_ = ber;
  refresh_direction(0);
  refresh_direction(1);
}

void Cable::set_control_drop(double p) {
  control_drop_ = p;
  refresh_direction(0);
  refresh_direction(1);
}

void Cable::set_extra_delay(int dir, fs_t extra) {
  if (extra < 0) throw std::invalid_argument("Cable: negative extra delay");
  fs_t delay = 0;
  if (__builtin_add_overflow(propagation_delay_, extra, &delay))
    throw std::invalid_argument("Cable: extra delay past the fs_t range");
  extra_delay_[check_dir(dir)] = extra;
  refresh_direction(dir);
}

void Cable::set_tx_stall(int dir, double prob, fs_t stall) {
  if (prob < 0.0 || prob > 1.0 || stall < 0)
    throw std::invalid_argument("Cable: tx stall needs prob in [0,1], stall >= 0");
  stall_prob_[check_dir(dir)] = prob;
  stall_[dir] = stall;
  refresh_direction(dir);
}

void Cable::set_silent_corrupt(int dir, double prob) {
  if (prob < 0.0 || prob > 1.0)
    throw std::invalid_argument("Cable: silent-corrupt prob must be in [0,1]");
  silent_corrupt_[check_dir(dir)] = prob;
  refresh_direction(dir);
}

bool Cable::draw_control_seams(int dir, std::uint64_t& bits, bool& corrupted,
                               fs_t& stall) {
  Rng& rng = dir == 0 ? rng_ab_ : rng_ba_;
  if (control_drop_ > 0.0 && rng.bernoulli(control_drop_)) {
    // Swallowed whole (loss-of-block-lock window): the receiver never sees
    // a block at all, as opposed to the BER path's corrupted-but-present.
    return false;
  }
  if (ber_ > 0.0) {
    // One 66-bit block of exposure.
    const double p_block = 1.0 - std::pow(1.0 - ber_, 66.0);
    if (rng.bernoulli(p_block)) {
      corrupted = true;
      ++corrupted_control_[dir];
      bits ^= (1ULL << rng.uniform(56));  // flip one payload bit
    }
  }
  if (silent_corrupt_[dir] > 0.0 && rng.bernoulli(silent_corrupt_[dir])) {
    // Gray fault: flip one low counter bit (payload bits sit at [55:3], so
    // bits 5..6 are counter bits 2..3 — a +-4/+-8 tick lie). Deliberately
    // does NOT set `corrupted`: the damage survives framing, so the DTP
    // sublayer sees a well-formed message carrying a wrong value.
    bits ^= (1ULL << (5 + rng.uniform(2)));
  }
  if (stall_prob_[dir] > 0.0 && rng.bernoulli(stall_prob_[dir])) stall = stall_[dir];
  return true;
}

void Cable::transmit_frame(PhyPort& from, std::uint32_t wire_bytes,
                           std::shared_ptr<const void> payload, fs_t tx_end) {
  const int dir = direction_of(from);
  bool fcs_ok = true;
  if (ber_ > 0.0) {
    Rng& rng = dir == 0 ? rng_ab_ : rng_ba_;
    const double bits = static_cast<double>(wire_bytes) * 8.0;
    const double p_frame = 1.0 - std::pow(1.0 - ber_, bits);
    if (rng.bernoulli(p_frame)) fcs_ok = false;
  }
  PhyPort& to = other_side(from);
  const fs_t arrival = tx_end + propagation_delay_;
  PortRecordPhy& r = from.rec();
  const std::uint64_t key = (static_cast<std::uint64_t>(r.tx_dir) << 32) | r.tx_seq++;
  sim_.deliver_link(
      r.node, to.node(), arrival,
      [&to, payload = std::move(payload), wire_bytes, fcs_ok, arrival] {
        to.deliver_frame(FrameRx{payload, wire_bytes, fcs_ok, arrival});
      },
      sim::EventCategory::kFrame, this, key);
}

}  // namespace dtpsim::phy
