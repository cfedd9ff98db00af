#include "dtp/port.hpp"

#include <algorithm>
#include <string>

#include "dtp/agent.hpp"
#include "obs/hub.hpp"

namespace dtpsim::dtp {

const char* to_string(PortState s) {
  switch (s) {
    case PortState::kDown: return "DOWN";
    case PortState::kInitWait: return "INIT-WAIT";
    case PortState::kSynced: return "SYNCED";
    case PortState::kFaulty: return "FAULTY";
  }
  return "?";
}

namespace {
/// Divergence recovery: after this many *consecutive* range-filtered beacons
/// from a peer (impossible under random bit errors, certain under real
/// divergence), announce our counter with a BEACON-JOIN so the pair
/// re-agrees on the maximum.
constexpr std::int64_t kFilterRecoveryThreshold = 16;

/// Payload width in use (53, or 52 with parity).
int payload_bits(const DtpParams& p) {
  return p.parity ? kParityPayloadBits : kDtpPayloadBits;
}
}  // namespace

PortLogic::PortLogic(Agent& agent, phy::PhyPort& port, std::size_t index)
    : sim_(agent.simulator()),
      agent_(agent),
      port_(port),
      id_(port.id()),
      index_(static_cast<std::uint32_t>(index)),
      hot_(nullptr),
      jump_detector_(agent.params().jump_threshold_ticks *
                         agent.params().counter_delta,
                     agent.params().max_jumps, agent.params().jump_window) {
  // The record's DTP half comes into use with this object (after a node
  // crash, with the restarted agent's) and goes with it.
  sim::PortRecords& records = sim_.port_records();
  sim::PortRecords::revive(records.upper(id_), sim::PortRecords::kUpperBytes);
  hot_ = ::new (records.upper(id_)) Hot{
      .local = CounterAnchor(agent.device().oscillator().tick_at(sim_.now())),
      .agent = &agent};
  records.set_upper_owner(id_, this);
  phy::PhyPort::record(sim_, id_).flags |= phy::PortRecordPhy::kUpper;
  phy::PhyPort::set_control_sink(&PortLogic::handle_control);
  sim_.set_bridge_handler(sim::EventQueue::BridgeKind::kTx,
                          {&PortLogic::bridge_beacon_step, &sim_});
  port_.on_link_down = [this] { handle_link_down(); };
}

PortLogic::~PortLogic() {
  cancel_beacon();
  sim_.cancel(init_retry_);
  // Every one of these captures `this`; the PHY port outlives us (it belongs
  // to the device, we belong to the agent), so they must go.
  port_.on_link_up = nullptr;
  port_.on_link_down = nullptr;
  port_.clear_pending_control();
  sim::PortRecords& records = sim_.port_records();
  phy::PortRecordPhy& phy = phy::PhyPort::record(sim_, id_);
  phy.flags = static_cast<std::uint8_t>(phy.flags & ~phy::PortRecordPhy::kUpper);
  records.set_upper_owner(id_, nullptr);
  hot_->~Hot();
  sim::PortRecords::retire(hot_, sim::PortRecords::kUpperBytes);
}

void PortLogic::start() {
  // Persistent hook: every (re)connection restarts the INIT phase (T0).
  port_.on_link_up = [this] { handle_link_up(); };
  if (port_.link_up()) handle_link_up();
}

PortStats PortLogic::stats() const {
  PortStats st = stats_;
  const Hot& h = hot();
  st.beacons_sent = h.beacons_sent;
  st.beacons_received = h.beacons_received;
  st.adjustments = h.adjustments;
  st.max_adjustment = h.max_adjustment;
  return st;
}

std::uint32_t PortLogic::delta() const { return agent_.params().counter_delta; }

void PortLogic::set_plausibility_gate(std::int64_t units) {
  plausibility_gate_units_ = units;
  Hot& h = hot();
  h.bits = static_cast<std::uint8_t>(units > 0 ? h.bits | Hot::kGate : h.bits & ~Hot::kGate);
}

void PortLogic::set_state(PortState s) {
  if (s == hot().state) return;
  hot().state = s;
  ++stats_.state_transitions;
  trace_instant(sim_.now(), "state:", to_string(s));
}

void PortLogic::trace_instant(fs_t t, const char* what, const char* detail) const {
  // The Session interned every device's track first, so this finds the id
  // the offset counters use.
  if (auto* tr = obs::trace_of(sim_.obs()))
    tr->instant(tr->track(agent_.device().name()), t, std::string(what) + detail);
}

void PortLogic::handle_link_up() {
  if (jump_detector_.tripped()) {
    // The quarantine survives a link bounce inside the cooldown — otherwise
    // a flapping cable would launder a faulty peer back in every few ms.
    if (sim_.now() - faulted_at_ < agent_.params().fault_cooldown) {
      set_state(PortState::kFaulty);
      return;
    }
    jump_detector_.reset();
  }
  send_init();
}

void PortLogic::clear_fault() {
  if (hot().state != PortState::kFaulty) return;
  jump_detector_.reset();
  if (!port_.link_up()) {
    set_state(PortState::kDown);
    return;
  }
  if (hot().owd_units >= 0) {
    // The cable never moved while the port sat quarantined, so the measured
    // delay is still valid. Re-running INIT here would re-measure d on a
    // live, possibly saturated link, where the ACK can sit behind an MTU
    // frame and inflate d by dozens of ticks — a wrong d that no amount of
    // beaconing repairs. Announce our counter instead: if we fell behind
    // while quarantined, the peer answers a far-behind join with its own
    // and we adopt the network maximum in one exchange.
    set_state(PortState::kSynced);
    send_join();
    schedule_beacon();
    return;
  }
  send_init();
}

void PortLogic::cancel_beacon() {
  sim_.cancel(beacon_timer_);
  Hot& h = hot();
  sim_.bridge_cancel(sim::Simulator::BridgeToken{port_.node(), h.beacon_key});
  h.beacon_key = 0;
}

void PortLogic::handle_link_down() {
  set_state(PortState::kDown);
  // The measured delay belongs to the old cable; a reconnection re-measures
  // from scratch — no reinit ceiling either, the new cable may be shorter.
  hot().owd_units = -1;
  prior_owd_.reset();
  init_echo_wait_.reset();
  cancel_beacon();
  sim_.cancel(init_retry_);
  agent_.port_went_down(index_);
}

WideCounter PortLogic::local_at(fs_t t) const {
  return lc_at_tick(agent_.device().oscillator().tick_at(t));
}

WideCounter PortLogic::lc_at_tick(std::int64_t tick) const {
  if (counter_frozen()) return *frozen_value_;
  return hot().local.at_tick(tick, delta());
}

WideCounter PortLogic::tx_global(sim::Simulator& sim, std::uint32_t port,
                                 std::int64_t tx_tick) {
  const Hot& h = hot(sim, port);
  if (h.bits & Hot::kFrozen) return *owner(sim, port).frozen_gc_;
  return h.agent->global_at_tick(tx_tick);
}

void PortLogic::local_set(std::int64_t tick, const WideCounter& v) {
  if (counter_frozen()) return;  // a stuck register ignores writes
  hot().local.set(tick, v);
}

unsigned __int128 PortLogic::local_fast_forward(std::int64_t tick,
                                                const WideCounter& v) {
  if (counter_frozen()) return 0;
  CounterAnchor& lc = hot().local;
  return lc.fast_forward(tick, v, lc.at_tick(tick, delta()));
}

void PortLogic::set_counter_frozen(bool frozen) {
  if (frozen == counter_frozen()) return;
  const std::int64_t tick = agent_.device().oscillator().tick_at(sim_.now());
  Hot& h = hot();
  if (frozen) {
    frozen_value_ = h.local.at_tick(tick, delta());
    frozen_gc_ = agent_.global_at_tick(tick);
    h.bits |= Hot::kFrozen;
    return;
  }
  h.bits = static_cast<std::uint8_t>(h.bits & ~Hot::kFrozen);
  // The register resumes counting from the latched value: re-anchor lc so
  // the port wakes up exactly as far behind as the freeze lasted. Recovery
  // is the watchdog's job (quarantine blocks beacons; re-INIT + join).
  h.local.set(tick, *frozen_value_);
  frozen_value_.reset();
  frozen_gc_.reset();
}

void PortLogic::quarantine(fs_t now) {
  if (hot().state == PortState::kFaulty) return;
  set_state(PortState::kFaulty);
  faulted_at_ = now;
}

void PortLogic::reinit() {
  jump_detector_.reset();
  // Keep the old measurement as a ceiling for the redo (see handle_init_ack):
  // the cable did not get shorter while the port sat quarantined.
  Hot& h = hot();
  if (h.owd_units >= 0) prior_owd_ = h.owd_units;
  h.owd_units = -1;
  init_echo_wait_.reset();
  h.consecutive_filtered = 0;
  cancel_beacon();
  sim_.cancel(init_retry_);
  if (!port_.link_up()) {
    set_state(PortState::kDown);
    return;
  }
  send_init();
}

// T0: lc <- gc; send (INIT, lc). The counter is stamped at the instant the
// idle block serializes, exactly as the hardware would.
void PortLogic::send_init() {
  set_state(PortState::kInitWait);
  port_.request_control_slot([this](fs_t, std::int64_t tx_tick) {
    local_set(tx_tick, agent_.global_at_tick(tx_tick));
    init_echo_wait_ = lc_at_tick(tx_tick);
    ++stats_.inits_sent;
    return encode_bits({MessageType::kInit, init_echo_wait_->lsb53()},
                       agent_.params().parity);
  });
  arm_init_retry();
}

void PortLogic::arm_init_retry() {
  sim::ScopedAffinity aff(port_.node());
  sim_.cancel(init_retry_);
  const auto& osc = agent_.device().oscillator();
  const std::int64_t due = osc.tick_at(sim_.now()) + agent_.params().init_retry_ticks;
  init_retry_ = sim_.schedule_at(
      osc.edge_of_tick(due),
      [this] {
        if (hot().state == PortState::kInitWait) send_init();
      },
      sim::EventCategory::kBeacon);
}

void PortLogic::handle_control(sim::Simulator& sim, std::uint32_t port,
                               const phy::ControlRx& rx) {
  // A message that was in flight at unplug time.
  if (!(phy::PhyPort::record(sim, port).flags & phy::PortRecordPhy::kLinkUp)) return;
  Hot& h = hot(sim, port);
  const auto msg = decode_bits(rx.bits56, h.agent->params().parity);
  if (!msg) {
    // Either plain idles (bits56 == 0) or a parity-failed DTP message.
    if (rx.bits56 != 0) ++owner(sim, port).stats_.filtered_parity;
    return;
  }
  const std::int64_t rx_tick = rx.crossing.visible_tick;
  if (msg->type == MessageType::kBeacon) {
    ++h.beacons_received;
    handle_beacon(sim, port, *msg, rx_tick, /*join=*/false);
    return;
  }
  PortLogic& self = owner(sim, port);
  switch (msg->type) {
    case MessageType::kInit:
      self.handle_init(*msg, rx_tick);
      break;
    case MessageType::kInitAck:
      self.handle_init_ack(*msg, rx_tick);
      break;
    case MessageType::kBeaconJoin:
      ++self.stats_.joins_received;
      self.trace_instant(rx.crossing.visible_time, "JOIN rx");
      handle_beacon(sim, port, *msg, rx_tick, /*join=*/true);
      break;
    case MessageType::kBeaconMsb:
      self.handle_msb(*msg, rx_tick);
      break;
    case MessageType::kLog:
      self.handle_log(*msg, rx_tick, rx.crossing.visible_time);
      break;
    case MessageType::kBeacon:
    case MessageType::kNone:
      break;
  }
}

// T1: echo the received counter back in an INIT-ACK.
void PortLogic::handle_init(const Message& m, std::int64_t) {
  port_.request_control_slot([this, c = m.payload](fs_t, std::int64_t) {
    ++stats_.init_acks_sent;
    return encode_bits({MessageType::kInitAck, c}, agent_.params().parity);
  });
  // An INIT means the peer just (re)started its protocol — a rejoining node
  // whose counter was reset (Section 3.2, "network dynamics"). Announce our
  // counter right behind the ACK so it adopts the network maximum as soon as
  // its delay measurement completes, instead of waiting a further join
  // round-trip. At cold start both sides announce near-zero: harmless.
  send_join();
}

// T2: d <- (lc - c - alpha) / 2.
void PortLogic::handle_init_ack(const Message& m, std::int64_t rx_tick) {
  if (!init_echo_wait_) return;  // unsolicited / duplicate
  const int bits = payload_bits(agent_.params());
  const std::uint64_t mask = (1ULL << bits) - 1;
  if ((m.payload & mask) != (init_echo_wait_->lsb53() & mask)) return;  // stale echo

  const WideCounter lc_now = lc_at_tick(rx_tick);
  const __int128 rtt_units = lc_now.diff(*init_echo_wait_);
  const auto alpha_units = static_cast<__int128>(agent_.params().alpha_ticks) *
                           agent_.params().counter_delta;
  const __int128 d = (rtt_units - alpha_units) / 2;
  Hot& h = hot();
  if (d <= 0 && prior_owd_) {
    // Physically impossible (true RTT >= 2d + alpha): the local counter sat
    // frozen across the exchange, so the echo timed itself. Keep the prior
    // measurement — the cable is what it was.
    h.owd_units = *prior_owd_;
  } else {
    h.owd_units = static_cast<std::int64_t>(std::max<__int128>(d, 0));
    // Watchdog re-INIT on a live link: the ACK may have sat behind an MTU
    // frame, and that wait lands squarely in the measured RTT. Queueing only
    // ever adds, so the fresh d can overestimate but never undershoot the
    // quiet-line truth — and an overestimate is the poisonous direction (it
    // sets lc ahead of the peer's real counter and max-discipline spreads
    // the phantom time network-wide). Cap the remeasure at the pre-reinit
    // value; an underestimate merely makes this port lag a few ticks, which
    // the max-discipline absorbs.
    if (prior_owd_ && *prior_owd_ > 0) h.owd_units = std::min(h.owd_units, *prior_owd_);
  }
  prior_owd_.reset();
  init_echo_wait_.reset();
  sim_.cancel(init_retry_);
  set_state(PortState::kSynced);
  // Announce our counter device-wide once, so a joining device (or healed
  // partition) converges immediately rather than through the +-8 filter.
  send_join();
  schedule_beacon();
}

// T3: arm the beacon timeout one interval of local ticks from now.
void PortLogic::schedule_beacon() {
  const auto& osc = agent_.device().oscillator();
  if (sim_.bridged()) {
    arm_bridged_beacon(sim_, id_, osc.tick_at(sim_.now()));
    return;
  }
  sim::ScopedAffinity aff(port_.node());
  const std::int64_t due =
      osc.tick_at(sim_.now()) + agent_.params().beacon_interval_ticks;
  beacon_timer_ = sim_.schedule_at(osc.edge_of_tick(due), [this] { send_beacon(); },
                                   sim::EventCategory::kBeacon);
}

void PortLogic::arm_bridged_beacon(sim::Simulator& sim, std::uint32_t port,
                                   std::int64_t now_tick) {
  // POD step at the timer's exact (time, key) position. Overwriting the
  // token without cancelling mirrors the exact handle semantics: a stale
  // chain keeps firing until its state check kills it. The port's
  // oscillator is its device's.
  const phy::PortRecordPhy& r = phy::PhyPort::record(sim, port);
  Hot& h = hot(sim, port);
  sim::ScopedAffinity aff(r.node);
  const std::int64_t due = now_tick + h.agent->params().beacon_interval_ticks;
  sim::EventQueue::BridgeStep step;
  step.port = port;
  step.kind = sim::EventQueue::BridgeKind::kTx;
  h.beacon_key = sim.bridge_schedule(r.node, r.osc->edge_of_tick(due), step).key;
}

void PortLogic::bridge_beacon_step(void* ctx, const sim::EventQueue::BridgeStep& s) {
  sim::Simulator& sim = *static_cast<sim::Simulator*>(ctx);
  const std::uint32_t port = s.port;
  Hot& h = hot(sim, port);
  if (h.state != PortState::kSynced) return;
  const DtpParams& p = h.agent->params();
  // Peek the MSB cadence *before* incrementing: an MSB-due beacon queues a
  // second control block, which the fused single-slot path cannot carry.
  const bool msb_due =
      p.msb_every_n_beacons > 0 && h.beacons_since_msb + 1 >= p.msb_every_n_beacons;
  std::int64_t tick = 0;
  if (msb_due || !phy::PhyPort::control_slot_fusible(sim, port, tick)) {
    // Fall back to the exact body wholesale; its request_control_slot /
    // schedule_control_service machinery consumes the same sequence numbers
    // the exact engine would, and schedule_beacon() re-arms bridged.
    owner(sim, port).send_beacon();
    return;
  }
  // Fused quiet path, preserving the exact engine's sequence-number order:
  // service slot first (request_control_slot inside send_beacon), then the
  // next timer (schedule_beacon at its end), then the service body fires.
  phy::PhyPort::fuse_reserve_control(sim, port);
  if (p.msb_every_n_beacons > 0) ++h.beacons_since_msb;
  arm_bridged_beacon(sim, port, tick);
  phy::PhyPort::fuse_fire_control(sim, port, tick, [&](fs_t, std::int64_t tx_tick) {
    const WideCounter gc = tx_global(sim, port, tx_tick);
    ++h.beacons_sent;
    return encode_bits({MessageType::kBeacon, gc.lsb53()}, p.parity);
  });
}

void PortLogic::send_beacon() {
  if (hot().state != PortState::kSynced) return;
  port_.request_control_slot([this](fs_t, std::int64_t tx_tick) {
    const WideCounter gc = tx_global(sim_, id_, tx_tick);
    ++hot().beacons_sent;
    return encode_bits({MessageType::kBeacon, gc.lsb53()}, agent_.params().parity);
  });
  // The high counter half rides in an occasional *extra* idle block right
  // behind the regular beacon (idle slots are plentiful — even a saturated
  // link yields one whole /E/ block per frame gap), so the beacon cadence
  // that the precision analysis depends on is never thinned.
  Hot& h = hot();
  if (agent_.params().msb_every_n_beacons > 0 &&
      ++h.beacons_since_msb >= agent_.params().msb_every_n_beacons) {
    h.beacons_since_msb = 0;
    port_.request_control_slot([this](fs_t, std::int64_t tx_tick) {
      const WideCounter gc = tx_global(sim_, id_, tx_tick);
      ++stats_.msbs_sent;
      return encode_bits({MessageType::kBeaconMsb, gc.msb53()}, agent_.params().parity);
    });
  }
  schedule_beacon();
}

// T4: lc <- max(lc, c + d), guarded by the Section 3.2 filters.
void PortLogic::handle_beacon(sim::Simulator& sim, std::uint32_t port, const Message& m,
                              std::int64_t rx_tick, bool join) {
  Hot& h = hot(sim, port);
  if (h.state == PortState::kFaulty) return;
  if (h.bits & Hot::kFrozen) return;  // a stuck register cannot latch a beacon
  if (h.owd_units < 0) return;  // cannot apply a beacon before d is measured

  Agent& agent = *h.agent;
  const DtpParams& p = agent.params();
  const WideCounter lc_now = h.local.at_tick(rx_tick, p.counter_delta);
  const WideCounter gc_now = agent.global_at_tick(rx_tick);
  // Reconstruct the peer's full counter from the 53-bit payload. lc is the
  // reference in master-tree mode: gc may be stalled against its ceiling
  // (Section 5.4) while lc keeps tracking the parent without a cap.
  const WideCounter& reference = p.mode == SyncMode::kMasterTree ? lc_now : gc_now;
  const WideCounter peer = reference.reconstruct_from_lsb(m.payload, payload_bits(p));
  const WideCounter target = peer.plus(static_cast<std::uint64_t>(h.owd_units));

  const auto limit = static_cast<__int128>(p.max_beacon_offset_ticks) * p.counter_delta;

  if (p.mode == SyncMode::kMasterTree) {
    // Only the parent's counter disciplines this device; beacons from
    // children (or from anyone, at the root) are ignored. The bit-error
    // filter compares against the *uncapped* lc — judging against a stalled
    // gc would reject every beacon and deadlock the stall mechanism.
    PortLogic& self = owner(sim, port);
    if (agent.parent_port() != std::optional<std::size_t>(self.index_)) return;
    if (!join) {
      const __int128 ldiff = target.diff(lc_now);
      if (ldiff > limit || ldiff < -limit) {
        ++self.stats_.filtered_range;
        return;
      }
    }
    // lc is the running estimate of the *parent's* counter: it tracks in
    // both directions (monotonicity of the device clock is gc's job, via
    // fast-forward plus the stall ceiling).
    self.local_set(rx_tick, target);
    agent.parent_update(rx_tick, target);
    ++h.adjustments;
    return;
  }

  if (!join) {
    // Section 3.2's bit-error filter: the remote counter is judged against
    // the device's global counter — the value this device transmits and the
    // only reference that stays valid across join-sized adjustments.
    const __int128 gdiff = target.diff(gc_now);
    // Watchdog plausibility gate: count implausibly *stale* implied deltas
    // before the range filter, so sub-range lies (silent corruption at -4),
    // range-filtered outliers and stale frozen peers all feed one per-window
    // signal. Only the negative side counts: under max-discipline a positive
    // surprise is legitimate (someone's oscillator runs fast — that is the
    // protocol working), and an inflated counter propagating through healthy
    // devices arrives as a positive delta — counting it would let one lying
    // link strike its innocent neighbors.
    if (h.bits & Hot::kGate) {
      PortLogic& self = owner(sim, port);
      if (gdiff < -self.plausibility_gate_units_) ++self.wd_gate_events_;
    }
    if (gdiff > limit || gdiff < -limit) {
      PortLogic& self = owner(sim, port);
      ++self.stats_.filtered_range;
      // Random bit errors are filtered one at a time; a *run* of filtered
      // beacons means the pair genuinely diverged — trigger a join exchange.
      if (++h.consecutive_filtered >= kFilterRecoveryThreshold) {
        h.consecutive_filtered = 0;
        self.send_join();
      }
      return;
    }
    h.consecutive_filtered = 0;
  }

  const __int128 diff = target.diff(lc_now);
  if (join && diff < -limit) {
    // The peer announced a counter far *behind* ours — it just joined (or
    // its join raced our INIT and was lost). Announce back so both sides
    // agree on the maximum (Section 3.2); rate-limited to one reply per
    // beacon interval so two healthy peers cannot ping-pong joins.
    PortLogic& self = owner(sim, port);
    if (rx_tick - self.last_join_reply_tick_ >= p.beacon_interval_ticks) {
      self.last_join_reply_tick_ = rx_tick;
      self.send_join();
    }
    return;
  }
  if (diff <= 0) return;  // we are already at or ahead of the peer's view

  const unsigned __int128 jump = h.local.fast_forward(rx_tick, target, lc_now);
  ++h.adjustments;
  h.max_adjustment =
      std::max<std::uint64_t>(h.max_adjustment, static_cast<std::uint64_t>(jump));

  if (p.enable_jump_detector) {
    PortLogic& self = owner(sim, port);
    if (self.jump_detector_.record(sim.now(), jump)) {
      // Quarantine the peer. Note the tripping adjustment was applied to lc
      // but is NOT folded into gc (no local_updated below): the suspicious
      // value stops here instead of propagating device- and network-wide —
      // which is also what keeps a quarantine cascade from racing down the
      // tree, because a downstream detector only ever counts jumps an
      // upstream port actually forwarded.
      self.set_state(PortState::kFaulty);
      self.faulted_at_ = sim.now();
      return;
    }
  }
  agent.local_updated(port, rx_tick, join, h.local.at_tick(rx_tick, p.counter_delta));
}

void PortLogic::handle_msb(const Message& m, std::int64_t) {
  ++stats_.msbs_received;
  last_peer_msb_ = m.payload;
}

void PortLogic::handle_log(const Message& m, std::int64_t rx_tick, fs_t rx_time) {
  ++stats_.logs_received;
  if (on_log_received) {
    const WideCounter t2 = agent_.global_at_tick(rx_tick);
    on_log_received(m.payload, t2, rx_time);
  }
}

void PortLogic::send_log(std::uint64_t sw_payload) {
  port_.request_control_slot([this, sw_payload](fs_t tx_time, std::int64_t tx_tick) {
    const WideCounter t1 = agent_.global_at_tick(tx_tick);
    ++stats_.logs_sent;
    if (on_log_sent) on_log_sent(sw_payload, t1, tx_time);
    return encode_bits({MessageType::kLog, t1.lsb53()}, agent_.params().parity);
  });
}

void PortLogic::send_join() {
  ++stats_.joins_sent;
  trace_instant(sim_.now(), "JOIN tx");
  port_.request_control_slot([this](fs_t, std::int64_t tx_tick) {
    const WideCounter gc = tx_global(sim_, id_, tx_tick);
    return encode_bits({MessageType::kBeaconJoin, gc.lsb53()}, agent_.params().parity);
  });
}

}  // namespace dtpsim::dtp
