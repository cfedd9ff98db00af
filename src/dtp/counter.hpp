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

/// A counter advancing `delta` per tick of its owning oscillator.
class TickCounter {
 public:
  /// \param delta  increment per tick (Table 2: 20 at 10G, 25 at 1G, ...)
  /// \param start_tick  the tick at which the counter is born with value 0
  explicit TickCounter(std::uint32_t delta = 1, std::int64_t start_tick = 0)
      : base_tick_(start_tick), delta_(delta) {
    if (delta == 0) throw std::invalid_argument("TickCounter: zero delta");
  }

  std::uint32_t delta() const { return delta_; }

  /// Counter value after the edge of tick `k`. Requires k >= anchor tick.
  /// If a ceiling is set (master-tree stalling, Section 5.4), the counter
  /// holds at the ceiling instead of racing ahead of its master.
  WideCounter at_tick(std::int64_t k) const {
    if (k < base_tick_) throw std::logic_error("TickCounter: query before anchor");
    WideCounter v = base_.plus(static_cast<std::uint64_t>(k - base_tick_) * delta_);
    if (has_cap_ && v.diff(cap_) > 0) return cap_;
    return v;
  }

  /// Set the value at tick `k` to max(current value, v) — the monotone
  /// fast-forward of T4/T5. Returns the jump size in counter units
  /// (0 if the counter was already ahead). The comparison is the signed
  /// modular distance, so the max stays monotone while the 106-bit value
  /// wraps past zero (raw `>` would reject every fast-forward in the wrap
  /// window and freeze the counter behind its peers).
  unsigned __int128 fast_forward(std::int64_t k, const WideCounter& v) {
    const WideCounter cur = at_tick(k);
    base_tick_ = k;
    const __int128 jump = v.diff(cur);
    if (jump > 0) {
      base_ = v;
      return static_cast<unsigned __int128>(jump);
    }
    base_ = cur;
    return 0;
  }

  /// Unconditionally set the value at tick `k` (INIT T0, tests).
  void set(std::int64_t k, const WideCounter& v) {
    if (k < base_tick_) throw std::logic_error("TickCounter: set before anchor");
    base_ = v;
    base_tick_ = k;
  }

  std::int64_t anchor_tick() const { return base_tick_; }

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
    const WideCounter raw =
        base_.plus(static_cast<std::uint64_t>(k - base_tick_) * delta_);
    return raw.diff(cap_) > 0;
  }

 private:
  // Widest first, so the counter packs into 48 bytes (it sits in the hot
  // blocks of PortLogic and Agent, which every beacon reads).
  WideCounter base_;
  // A plain value plus a flag rather than std::optional: GCC's
  // -Wmaybe-uninitialized misfires on an inlined optional<WideCounter>.
  WideCounter cap_;
  std::int64_t base_tick_;
  std::uint32_t delta_;
  bool has_cap_ = false;
};
static_assert(sizeof(TickCounter) == 48, "TickCounter must stay three 16-byte words");

}  // namespace dtpsim::dtp
