#include "dtp/agent.hpp"

#include <stdexcept>

namespace dtpsim::dtp {

Agent::Agent(net::Device& dev, DtpParams params)
    : hot_{.dev = dev,
           .params = params,
           .global = TickCounter(params.counter_delta,
                                 dev.oscillator().tick_at(dev.simulator().now()))} {
  for (std::size_t i = 0; i < hot_.dev.port_count(); ++i) {
    hot_.ports.push_back(
        hot_.dev.simulator().arena().make<PortLogic>(*this, hot_.dev.port(i), i));
  }
  for (auto& p : hot_.ports) p->start();
}

double Agent::global_fractional_at(fs_t t) const {
  // Full 106-bit value converted directly: monotone and continuous across
  // 2^64 (the old low-64 truncation produced a discontinuity there), merely
  // quantized beyond 2^53. Software clocks built on this stay smooth; exact
  // offset math differences the WideCounters instead.
  const WideCounter v = hot_.global.at_tick(tick_at(t));
  return static_cast<double>(v.value()) + phase_units_at(t);
}

double Agent::phase_units_at(fs_t t) const {
  const auto& osc = hot_.dev.oscillator();
  const std::int64_t k = osc.tick_at(t);
  const fs_t edge = osc.edge_of_tick(k);
  const double frac = static_cast<double>(t - edge) / static_cast<double>(osc.period());
  return frac * static_cast<double>(hot_.params.counter_delta);
}

void Agent::force_global(fs_t t, const WideCounter& v) {
  const std::int64_t k = tick_at(t);
  const __int128 moved = v.diff(hot_.global.at_tick(k));
  if (moved > 0) note_forward_jump(t, static_cast<unsigned __int128>(moved));
  hot_.global.set(k, v);
  // Locals must follow unconditionally, not via the monotone
  // sync_locals_to_global: an operator-set value can be *behind* the current
  // counter in signed-modular terms (e.g. aging a young network to just
  // below the 2^106 wrap), and a fast-forward would silently keep the old
  // lc — after which every peer beacon compares against the stale local and
  // is rejected as "behind us" while the network drifts apart.
  for (auto& p : hot_.ports) p->local_set(k, v);
  // An operator-set counter is a join-sized event: announce it so peers do
  // not spend eternity range-filtering our beacons.
  for (auto& p : hot_.ports)
    if (p->state() == PortState::kSynced) p->send_join();
}

void Agent::sync_locals_to_global(std::int64_t k) {
  // Pull every port's local counter up to gc. Without this, a port whose lc
  // predates a join-sized gc move would keep filtering its peer's (now
  // far-ahead) beacons forever and the subnet would free-run apart.
  const WideCounter gc = hot_.global.at_tick(k);
  for (auto& port : hot_.ports) port->local_fast_forward(k, gc);
}

void Agent::local_updated(std::uint32_t port, std::int64_t k, bool join,
                          const WideCounter& lc) {
  const unsigned __int128 jump = hot_.global.fast_forward(k, lc);  // T5
  if (jump > 0) ++hot_.global_adjustments;
  if (join && jump > 0) {
    note_forward_jump(hot_.dev.simulator().now(), jump);
    sync_locals_to_global(k);
    // A join-sized move: announce the new counter on every other port so the
    // whole connected component converges in one propagation wave.
    for (auto& p : hot_.ports) {
      if (p->id() == port) continue;
      if (p->state() == PortState::kSynced) p->send_join();
    }
  }
}

void Agent::note_forward_jump(fs_t at, unsigned __int128 units) {
  last_join_jump_at_ = at;
  constexpr auto kCap =
      static_cast<unsigned __int128>(~static_cast<std::uint64_t>(0));
  last_join_jump_units_ =
      static_cast<std::uint64_t>(units > kCap ? kCap : units);
}

void Agent::set_parent_port(std::size_t port_index) {
  if (hot_.params.mode != SyncMode::kMasterTree)
    throw std::logic_error("Agent: parent ports require SyncMode::kMasterTree");
  if (port_index >= hot_.ports.size()) throw std::out_of_range("Agent: no such port");
  parent_port_ = port_index;
}

void Agent::set_as_root() {
  if (hot_.params.mode != SyncMode::kMasterTree)
    throw std::logic_error("Agent: root role requires SyncMode::kMasterTree");
  parent_port_.reset();
}

void Agent::parent_update(std::int64_t k, const WideCounter& target) {
  // fast_forward also discards (via its capped read of the current value)
  // any excess a fast oscillator accumulated over the last interval, so the
  // equilibrium excess is bounded by the ceiling slack below.
  const unsigned __int128 jump = hot_.global.fast_forward(k, target);
  if (jump > 0) ++hot_.global_adjustments;
  // Ceiling: the parent advances about one beacon interval's worth of units
  // before we hear from it again; allow that plus a few ticks of crossing
  // jitter, then stall (Section 5.4: "the local counter of a child should
  /// stall occasionally").
  constexpr std::uint64_t kStallSlackTicks = 4;
  const auto headroom =
      static_cast<std::uint64_t>(hot_.params.beacon_interval_ticks + kStallSlackTicks) *
      hot_.params.counter_delta;
  hot_.global.set_cap(target.plus(headroom));
}

void Agent::port_went_down(std::size_t) {
  for (const auto& p : hot_.ports)
    if (p->phy_port().link_up()) return;
  const std::int64_t k = tick_at(hot_.dev.simulator().now());
  hot_.global.set(k, WideCounter(0));
  for (auto& p : hot_.ports) p->local_set(k, WideCounter(0));
  ++counter_resets_;
}

__int128 true_offset_units(const Agent& a, const Agent& b, fs_t t) {
  return a.global_at(t).diff(b.global_at(t));
}

double true_offset_fractional(const Agent& a, const Agent& b, fs_t t) {
  // Difference the exact 106-bit counters (wrap-aware), then add the
  // sub-tick phase difference. Differencing global_fractional_at values
  // would lose the offset entirely once the counters pass 2^53.
  const __int128 units = a.global_at(t).diff(b.global_at(t));
  return static_cast<double>(units) + (a.phase_units_at(t) - b.phase_units_at(t));
}

}  // namespace dtpsim::dtp
