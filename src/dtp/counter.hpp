#pragma once

/// \file counter.hpp
/// Tick-driven DTP counters, computed analytically.
///
/// A DTP counter increments by a fixed delta at every oscillator tick and is
/// occasionally fast-forwarded by protocol events (Algorithm 1 T4,
/// Algorithm 2 T5). Between events its value is a pure function of the tick
/// index, so the simulation stores only an anchor: value_at(k) = base +
/// (k - base_tick) * delta. Fast-forwarding to a larger value re-anchors;
/// the monotone-max semantics of the paper fall out of `fast_forward`.

#include <cstdint>
#include <stdexcept>

#include "common/wide_counter.hpp"

namespace dtpsim::dtp {

/// A counter's anchor: its value after the edge of one tick, from which
/// value_at(k) = value + (k - tick) * delta. The value is kept as its two
/// 53-bit halves in 64-bit words, so the anchor packs into 24 bytes (an
/// unsigned __int128 member would align it to 16). A port's local counter is an anchor in its record,
/// with the delta read from the agent's parameters; TickCounter adds the
/// delta and the master-tree ceiling.
class CounterAnchor {
 public:
  explicit CounterAnchor(std::int64_t tick = 0) : tick_(tick) {}

  std::int64_t tick() const { return tick_; }

  /// Value after the edge of tick `k`. Requires k >= the anchor tick.
  WideCounter at_tick(std::int64_t k, std::uint32_t delta) const {
    if (k < tick_) throw std::logic_error("TickCounter: query before anchor");
    return value().plus(static_cast<std::uint64_t>(k - tick_) * delta);
  }

  /// Re-anchor at tick `k` on max(cur, v), where `cur` is the current value
  /// at `k`: the monotone fast-forward of T4/T5. Returns the jump size in
  /// counter units (0 if the counter was already ahead). The comparison is
  /// the signed modular distance, so the max stays monotone while the
  /// 106-bit value wraps past zero (raw `>` would reject every fast-forward
  /// in the wrap window and freeze the counter behind its peers).
  unsigned __int128 fast_forward(std::int64_t k, const WideCounter& v,
                                 const WideCounter& cur) {
    tick_ = k;
    const __int128 jump = v.diff(cur);
    if (jump > 0) {
      set_value(v);
      return static_cast<unsigned __int128>(jump);
    }
    set_value(cur);
    return 0;
  }

  /// Unconditionally set the value at tick `k`.
  void set(std::int64_t k, const WideCounter& v) {
    if (k < tick_) throw std::logic_error("TickCounter: set before anchor");
    set_value(v);
    tick_ = k;
  }

  /// The anchor value with the ceiling logic left to the caller.
  WideCounter raw_at(std::int64_t k, std::uint32_t delta) const {
    return value().plus(static_cast<std::uint64_t>(k - tick_) * delta);
  }

 private:
  WideCounter value() const { return WideCounter::from_halves(msb_, lsb_); }
  void set_value(const WideCounter& v) {
    lsb_ = v.lsb53();
    msb_ = v.msb53();
  }

  std::uint64_t lsb_ = 0;  ///< the value's low 53 bits
  std::uint64_t msb_ = 0;  ///< and its high 53
  std::int64_t tick_;
};
static_assert(sizeof(CounterAnchor) == 24, "CounterAnchor must stay three words");

/// A counter advancing `delta` per tick of its owning oscillator.
class TickCounter {
 public:
  /// \param delta  increment per tick (Table 2: 20 at 10G, 25 at 1G, ...)
  /// \param start_tick  the tick at which the counter is born with value 0
  explicit TickCounter(std::uint32_t delta = 1, std::int64_t start_tick = 0)
      : base_(start_tick), delta_(delta) {
    if (delta == 0) throw std::invalid_argument("TickCounter: zero delta");
  }

  std::uint32_t delta() const { return delta_; }

  /// Counter value after the edge of tick `k`. Requires k >= anchor tick.
  /// If a ceiling is set (master-tree stalling, Section 5.4), the counter
  /// holds at the ceiling instead of racing ahead of its master.
  WideCounter at_tick(std::int64_t k) const {
    const WideCounter v = base_.at_tick(k, delta_);
    if (has_cap_ && v.diff(cap_) > 0) return cap_;
    return v;
  }

  /// Set the value at tick `k` to max(current value, v) — the monotone
  /// fast-forward of T4/T5 (see CounterAnchor::fast_forward).
  unsigned __int128 fast_forward(std::int64_t k, const WideCounter& v) {
    return base_.fast_forward(k, v, at_tick(k));
  }

  /// Unconditionally set the value at tick `k` (INIT T0, tests).
  void set(std::int64_t k, const WideCounter& v) { base_.set(k, v); }

  std::int64_t anchor_tick() const { return base_.tick(); }

  /// Set an absolute ceiling: reads beyond it stall at the ceiling until it
  /// is raised. Implements the §5.4 "the local counter of a child should
  /// stall occasionally" rule for children with faster oscillators than
  /// their master. Comparison is by signed modular distance so the cap keeps
  /// working while counter and ceiling straddle the 2^106 wrap.
  void set_cap(const WideCounter& cap) {
    cap_ = cap;
    has_cap_ = true;
  }
  void clear_cap() { has_cap_ = false; }
  bool capped_at(std::int64_t k) const {
    if (!has_cap_) return false;
    return base_.raw_at(k, delta_).diff(cap_) > 0;
  }

 private:
  CounterAnchor base_;
  std::uint32_t delta_;
  // A plain value plus a flag rather than std::optional: GCC's
  // -Wmaybe-uninitialized misfires on an inlined optional<WideCounter>.
  bool has_cap_ = false;
  WideCounter cap_;
};
static_assert(sizeof(TickCounter) == 48, "TickCounter must stay three 16-byte words");

}  // namespace dtpsim::dtp
