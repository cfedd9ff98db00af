#include "phy/port.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace dtpsim::phy {

PhyPort::PhyPort(sim::Simulator& sim, Oscillator& osc, PortParams params, std::string name)
    : hot_{.sim = sim,
           .osc = osc,
           .fifo = SyncFifo(params.fifo,
                            sim.fork_rng(std::hash<std::string>{}(name) | 1))},
      params_(params),
      name_(std::move(name)) {}

PhyPort* PhyPort::peer() {
  return hot_.cable != nullptr ? &hot_.cable->other_side(*this) : nullptr;
}

fs_t PhyPort::propagation_delay() const {
  if (!hot_.cable) throw std::logic_error("PhyPort: no cable attached");
  return hot_.cable->propagation_delay();
}

void PhyPort::link_established(Cable* cable) {
  if (hot_.cable) throw std::logic_error("PhyPort: already connected");
  // Cables attach from setup or chaos code (global context); everything the
  // hooks schedule belongs to this port's device.
  sim::ScopedAffinity aff(hot_.node);
  hot_.cable = cable;
  hot_.line_free = std::max(hot_.line_free, hot_.sim.now());
  frame_allowed_ = std::max(frame_allowed_, hot_.sim.now());
  last_link_up_at_ = hot_.sim.now();
  if (on_link_up) on_link_up();
  // Control requests queued while the link was down get slots now.
  schedule_control_service();
}

void PhyPort::link_lost() {
  sim::ScopedAffinity aff(hot_.node);
  hot_.cable = nullptr;
  if (on_link_down) on_link_down();
}

void PhyPort::request_control_slot(ControlFactory factory) {
  if (!factory) throw std::invalid_argument("PhyPort: empty control factory");
  hot_.control_queue.push_back(std::move(factory));
  schedule_control_service();
}

void PhyPort::schedule_control_service() {
  if (hot_.control_queue.empty() || !link_up()) return;
  sim::ScopedAffinity aff(hot_.node);

  const fs_t slot =
      hot_.osc.next_edge_at_or_after(std::max(hot_.sim.now(), hot_.line_free));
  if (hot_.control_service_scheduled) {
    if (slot == control_service_at_) return;  // armed for the right slot already
    // The line was claimed by a frame (or the edge lattice moved) since we
    // armed: move the event to the new earliest slot. Firing at the stale
    // slot just to discover the line is busy would burn one event per frame
    // on a saturated link.
    hot_.sim.cancel(control_service_event_);
  }
  hot_.control_service_scheduled = true;
  control_service_at_ = slot;
  control_service_event_ = hot_.sim.schedule_at(
      slot,
      [this] {
        hot_.control_service_scheduled = false;
        if (hot_.control_queue.empty() || !link_up()) return;
        // Defensive: send_frame re-aims the service event whenever it claims
        // the line, so these retries should not trigger; they keep the port
        // correct if a future caller mutates the line without re-aiming.
        if (hot_.line_free > hot_.sim.now()) {
          schedule_control_service();
          return;
        }
        const fs_t tx_start = hot_.osc.next_edge_at_or_after(hot_.sim.now());
        if (tx_start > hot_.sim.now()) {
          // Drifted off the edge lattice (period change); realign.
          schedule_control_service();
          return;
        }
        const std::int64_t tx_tick = hot_.osc.tick_at(tx_start);
        ControlFactory factory = std::move(hot_.control_queue.front());
        hot_.control_queue.erase(hot_.control_queue.begin());
        const std::uint64_t bits = factory(tx_start, tx_tick);
        if (probe_control_tx) probe_control_tx(bits, tx_start);
        const fs_t tx_end = hot_.osc.edge_of_tick(tx_tick + 1);
        hot_.line_free = tx_end;
        ++hot_.control_sent;
        hot_.cable->transmit_control(*this, bits, tx_end);
        schedule_control_service();
      },
      sim::EventCategory::kFrame);
}

bool PhyPort::control_slot_fusible(const void* tx_client) const {
  if (!link_up() || !hot_.control_queue.empty() || hot_.control_service_scheduled)
    return false;
  const fs_t now = hot_.sim.now();
  if (hot_.line_free > now) return false;
  // Off the edge lattice (a period change landed between edges): the exact
  // engine would arm the service for a later slot, so fall back to it.
  if (hot_.osc.next_edge_at_or_after(now) != now) return false;
  // A same-instant event ahead of the would-be service key (a global fault,
  // this node's applies, a second chain on this port) could interleave in
  // the exact engine; the fused path must yield to it.
  return hot_.sim.bridge_tx_fusible(hot_.node, tx_client);
}

void PhyPort::fuse_reserve_control() { hot_.sim.bridge_virtual_schedule(hot_.node); }

void PhyPort::fuse_fire_control(const ControlFactory& factory) {
  // Mirrors the service event body under control_slot_fusible()'s
  // preconditions: tx_start == now (on-lattice), queue empty, line free.
  const fs_t tx_start = hot_.sim.now();
  hot_.sim.bridge_virtual_fire(hot_.node, sim::EventCategory::kFrame, tx_start);
  const std::int64_t tx_tick = hot_.osc.tick_at(tx_start);
  const std::uint64_t bits = factory(tx_start, tx_tick);
  if (probe_control_tx) probe_control_tx(bits, tx_start);
  const fs_t tx_end = hot_.osc.edge_of_tick(tx_tick + 1);
  hot_.line_free = tx_end;
  ++hot_.control_sent;
  hot_.cable->transmit_control(*this, bits, tx_end);
  // The exact body ends with schedule_control_service(); keep it for the
  // case where the factory itself queued a follow-up request.
  schedule_control_service();
}

void PhyPort::bridge_arrival_step(void* client, const sim::EventQueue::BridgeStep& s,
                                  fs_t t) {
  static_cast<PhyPort*>(client)->bridge_arrival(s.a, t, (s.d & 1) != 0);
}

void PhyPort::bridge_arrival(std::uint64_t bits56, fs_t wire_arrival, bool corrupted) {
  // Mirrors deliver_control: the CDC crossing draws its RNG at the arrival
  // instant, then visibility is armed for the crossing's edge. When nothing
  // can fire in between — and the edge is inside the active run horizon —
  // the visibility event is fused inline instead of re-entering the heap.
  const CrossingResult crossing = hot_.fifo.cross(hot_.osc, wire_arrival);
  ++hot_.fifo_crossings;
  hot_.fifo_extra_cycles += static_cast<std::uint64_t>(crossing.random_extra);
  if (hot_.sim.bridge_fusible_at(hot_.node, crossing.visible_time)) {
    hot_.sim.bridge_virtual_schedule(hot_.node);
    hot_.sim.bridge_virtual_fire(hot_.node, sim::EventCategory::kFrame,
                             crossing.visible_time);
    apply_control(ControlRx{bits56, wire_arrival, crossing, corrupted});
    return;
  }
  sim::EventQueue::BridgeStep step;
  step.fire = &PhyPort::bridge_apply_step;
  step.client = this;
  step.a = bits56;
  step.b = wire_arrival;
  step.c = crossing.visible_tick;
  step.d = (crossing.random_extra & 1) | (corrupted ? 2 : 0);
  step.node = hot_.node;
  step.cat = sim::EventCategory::kFrame;
  step.kind = sim::EventQueue::BridgeKind::kApply;
  hot_.sim.bridge_schedule(hot_.node, crossing.visible_time, step);
}

void PhyPort::bridge_apply_step(void* client, const sim::EventQueue::BridgeStep& s,
                                fs_t t) {
  const CrossingResult crossing{s.c, t, static_cast<int>(s.d & 1)};
  static_cast<PhyPort*>(client)->apply_control(
      ControlRx{s.a, s.b, crossing, (s.d & 2) != 0});
}

void PhyPort::apply_control(const ControlRx& rx) {
  if (probe_control_rx) probe_control_rx(rx);
  if (on_control) on_control(rx);
}

fs_t PhyPort::frame_clear_time() const {
  return std::max(frame_allowed_, hot_.line_free);
}

PhyPort::TxTiming PhyPort::send_frame(std::uint32_t wire_bytes,
                                      std::shared_ptr<const void> payload) {
  if (!link_up()) throw std::logic_error("PhyPort: send_frame with link down");
  sim::ScopedAffinity aff(hot_.node);
  const fs_t start =
      hot_.osc.next_edge_at_or_after(std::max(hot_.sim.now(), frame_clear_time()));
  const std::int64_t start_tick = hot_.osc.tick_at(start);
  const std::int64_t blocks = blocks_for_frame(wire_bytes);
  const fs_t end = hot_.osc.edge_of_tick(start_tick + blocks);
  hot_.line_free = end;
  frame_allowed_ = hot_.osc.edge_of_tick(start_tick + blocks + kIpgBlocks);
  ++frames_sent_;
  hot_.cable->transmit_frame(*this, wire_bytes, std::move(payload), end);
  // A control request queued mid-frame gets the IPG slot right after `end`.
  schedule_control_service();
  return TxTiming{start, end, frame_allowed_};
}

void PhyPort::deliver_control(std::uint64_t bits56, fs_t tx_end, bool corrupted) {
  const fs_t wire_arrival = tx_end;  // propagation already applied by cable
  const CrossingResult crossing = hot_.fifo.cross(hot_.osc, wire_arrival);
  ++hot_.fifo_crossings;
  hot_.fifo_extra_cycles += static_cast<std::uint64_t>(crossing.random_extra);
  sim::ScopedAffinity aff(hot_.node);
  // The capture packs the crossing as the bridged apply step does, so it
  // fits Callback's inline buffer: the event fires at the visible edge, so
  // that time is now() at fire, and d = bit0 random_extra | bit1 corrupted.
  const std::int64_t visible_tick = crossing.visible_tick;
  const std::int32_t d = (crossing.random_extra & 1) | (corrupted ? 2 : 0);
  hot_.sim.schedule_at(
      crossing.visible_time,
      [this, bits56, wire_arrival, visible_tick, d] {
        const CrossingResult c{visible_tick, hot_.sim.now(), d & 1};
        apply_control(ControlRx{bits56, wire_arrival, c, (d & 2) != 0});
      },
      sim::EventCategory::kFrame);
}

void PhyPort::deliver_frame(FrameRx rx) {
  if (on_frame) on_frame(rx);
}

Cable::Cable(sim::Simulator& sim, PhyPort& a, PhyPort& b, Params params)
    : hot_{.sim = sim,
           .a = a,
           .b = b,
           .propagation_delay = params.propagation_delay,
           .dir_id = {sim.alloc_link_dir_id(), sim.alloc_link_dir_id()},
           .ber = params.ber},
      rng_ab_(sim.fork_rng(0xCAB1E)),
      rng_ba_(rng_ab_.fork(1)) {
  if (&a == &b) throw std::invalid_argument("Cable: cannot connect a port to itself");
  if (hot_.propagation_delay < 0) throw std::invalid_argument("Cable: negative delay");
  hot_.sim.register_edge(hot_.a.node(), hot_.b.node(), hot_.propagation_delay);
  // Size the in-flight ring for the natural depth: one delivery per block
  // time of propagation, both directions, plus headroom for frames.
  std::size_t cap = 16;
  const fs_t block = std::min(hot_.a.oscillator().nominal_period(),
                              hot_.b.oscillator().nominal_period());
  if (block > 0) {
    const auto depth = static_cast<std::uint64_t>(
        2 * (hot_.propagation_delay / block + 8));
    while (cap < depth && cap < 8192) cap <<= 1;
  }
  ring_.assign(cap, sim::EventHandle{});
  hot_.a.link_established(this);
  hot_.b.link_established(this);
}

void Cable::disconnect() {
  if (!connected_) return;
  connected_ = false;
  // Kill everything still on the wire: an unplug extinguishes the light, so
  // a block that has not finished arriving never reaches the far PCS. Without
  // this, delivery events scheduled before the unplug would fire into a
  // link-down port (upper layers have already torn down their expectations).
  const std::size_t mask = ring_.size() - 1;
  for (std::size_t i = 0; i < ring_count_; ++i)
    hot_.sim.cancel(ring_[(ring_head_ + i) & mask]);
  ring_head_ = ring_count_ = 0;
  // Cross-shard deliveries went through mailboxes, and bridged arrivals are
  // POD steps; neither has a handle. Both are tagged with this cable and
  // purged directly from the queues.
  hot_.sim.purge_deliveries(this, hot_.a.node(), hot_.b.node());
  hot_.a.link_lost();
  hot_.b.link_lost();
}

void Cable::track(sim::EventHandle h) {
  if (!h.valid()) return;  // mailbox-routed: cancelled by owner purge
  if (ring_count_ == ring_.size()) {
    // The ring wrapped: the head holds the oldest deliveries, which under
    // steady traffic have long since fired. Drop those before growing.
    const std::size_t mask = ring_.size() - 1;
    while (ring_count_ > 0 && !hot_.sim.pending(ring_[ring_head_ & mask])) {
      ring_head_ = (ring_head_ + 1) & mask;
      --ring_count_;
    }
    if (ring_count_ == ring_.size()) grow_ring();
  }
  ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = h;
  ++ring_count_;
}

void Cable::grow_ring() {
  std::vector<sim::EventHandle> bigger(ring_.size() * 2);
  const std::size_t mask = ring_.size() - 1;
  for (std::size_t i = 0; i < ring_count_; ++i)
    bigger[i] = ring_[(ring_head_ + i) & mask];
  ring_ = std::move(bigger);
  ring_head_ = 0;
}

PhyPort& Cable::other_side(const PhyPort& from) {
  return &from == &hot_.a ? hot_.b : hot_.a;
}

int Cable::check_dir(int dir) {
  if (dir != 0 && dir != 1)
    throw std::invalid_argument("Cable: direction must be 0 (a->b) or 1 (b->a)");
  return dir;
}

void Cable::set_extra_delay(int dir, fs_t extra) {
  if (extra < 0) throw std::invalid_argument("Cable: negative extra delay");
  hot_.extra_delay[check_dir(dir)] = extra;
}

void Cable::set_tx_stall(int dir, double prob, fs_t stall) {
  if (prob < 0.0 || prob > 1.0 || stall < 0)
    throw std::invalid_argument("Cable: tx stall needs prob in [0,1], stall >= 0");
  hot_.stall_prob[check_dir(dir)] = prob;
  stall_[dir] = stall;
}

void Cable::set_silent_corrupt(int dir, double prob) {
  if (prob < 0.0 || prob > 1.0)
    throw std::invalid_argument("Cable: silent-corrupt prob must be in [0,1]");
  hot_.silent_corrupt[check_dir(dir)] = prob;
}

void Cable::transmit_control(PhyPort& from, std::uint64_t bits56, fs_t tx_end) {
  const int dir = direction_of(from);
  Rng& rng = dir == 0 ? rng_ab_ : rng_ba_;
  if (hot_.control_drop > 0.0 && rng.bernoulli(hot_.control_drop)) {
    // Swallowed whole (loss-of-block-lock window): the receiver never sees
    // a block at all, as opposed to the BER path's corrupted-but-present.
    ++dropped_control_[dir];
    return;
  }
  bool corrupted = false;
  if (hot_.ber > 0.0) {
    // One 66-bit block of exposure.
    const double p_block = 1.0 - std::pow(1.0 - hot_.ber, 66.0);
    if (rng.bernoulli(p_block)) {
      corrupted = true;
      ++corrupted_control_[dir];
      bits56 ^= (1ULL << rng.uniform(56));  // flip one payload bit
    }
  }
  if (hot_.silent_corrupt[dir] > 0.0 && rng.bernoulli(hot_.silent_corrupt[dir])) {
    // Gray fault: flip one low counter bit (payload bits sit at [55:3], so
    // bits 5..6 are counter bits 2..3 — a +-4/+-8 tick lie). Deliberately
    // does NOT set `corrupted`: the damage survives framing, so the DTP
    // sublayer sees a well-formed message carrying a wrong value.
    bits56 ^= (1ULL << (5 + rng.uniform(2)));
  }
  PhyPort& to = other_side(from);
  fs_t arrival = tx_end + hot_.propagation_delay + hot_.extra_delay[dir];
  if (hot_.stall_prob[dir] > 0.0 && rng.bernoulli(hot_.stall_prob[dir]))
    arrival += stall_[dir];
  // The lane is FIFO: a stalled block holds its successors behind it, so a
  // later block never overtakes an earlier one. No-op when the seams are off
  // (serialization already makes per-direction arrivals monotone).
  if (arrival < hot_.last_control_arrival[dir]) arrival = hot_.last_control_arrival[dir];
  hot_.last_control_arrival[dir] = arrival;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(hot_.dir_id[dir]) << 32) | hot_.tx_seq[dir]++;
  if (hot_.sim.bridged()) {
    // POD arrival step on the destination queue at the same (time, link key)
    // the exact delivery event would occupy. Cross-shard sends from a worker
    // still take the exact mailbox path below.
    sim::EventQueue::BridgeStep step;
    step.fire = &PhyPort::bridge_arrival_step;
    step.client = &to;
    step.owner = this;  // disconnect() purges in-flight deliveries by owner
    step.a = bits56;
    step.d = corrupted ? 1 : 0;
    step.node = to.node();
    step.cat = sim::EventCategory::kFrame;
    step.kind = sim::EventQueue::BridgeKind::kArrival;
    if (hot_.sim.bridge_deliver_link(to.node(), arrival, key, step)) return;
  }
  track(hot_.sim.deliver_link(
      from.node(), to.node(), arrival,
      [&to, bits56, arrival, corrupted] { to.deliver_control(bits56, arrival, corrupted); },
      sim::EventCategory::kFrame, this, key));
}

void Cable::transmit_frame(PhyPort& from, std::uint32_t wire_bytes,
                           std::shared_ptr<const void> payload, fs_t tx_end) {
  const int dir = direction_of(from);
  bool fcs_ok = true;
  if (hot_.ber > 0.0) {
    Rng& rng = dir == 0 ? rng_ab_ : rng_ba_;
    const double bits = static_cast<double>(wire_bytes) * 8.0;
    const double p_frame = 1.0 - std::pow(1.0 - hot_.ber, bits);
    if (rng.bernoulli(p_frame)) {
      fcs_ok = false;
      ++corrupted_frames_[dir];
    }
  }
  PhyPort& to = other_side(from);
  const fs_t arrival = tx_end + hot_.propagation_delay;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(hot_.dir_id[dir]) << 32) | hot_.tx_seq[dir]++;
  track(hot_.sim.deliver_link(
      from.node(), to.node(), arrival,
      [&to, payload = std::move(payload), wire_bytes, fcs_ok, arrival] {
        to.deliver_frame(FrameRx{payload, wire_bytes, fcs_ok, arrival});
      },
      sim::EventCategory::kFrame, this, key));
}

}  // namespace dtpsim::phy
