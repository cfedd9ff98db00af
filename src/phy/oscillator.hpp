#pragma once

/// \file oscillator.hpp
/// Free-running quartz oscillator model with exact tick-edge arithmetic.
///
/// Every network device in the paper is driven by its own oscillator whose
/// frequency sits within +-100 ppm of nominal (IEEE 802.3) but is otherwise
/// unknown and may wander with temperature. DTP's entire error budget comes
/// from the interaction of these slightly-mismatched tick grids, so tick
/// edges here are computed with exact integer femtosecond arithmetic: an
/// oscillator is a grid of edges `edge_of_tick(k) = anchor_time + (k -
/// anchor_tick) * period`, re-anchored whenever the period changes (drift).
///
/// The simulation never "ticks" an oscillator; protocol code asks analytic
/// queries (which tick contains time t, when is the next edge) only at event
/// times.

#include <cstdint>
#include <limits>

#include "common/time_units.hpp"
#include "phy/rates.hpp"

namespace dtpsim::phy {

/// Convert a ppm frequency offset into an integer femtosecond period.
/// Positive ppm means the oscillator runs fast (shorter period).
fs_t period_from_ppm(fs_t nominal_period, double ppm);

/// A free-running oscillator: an infinite grid of tick edges.
///
/// Invariants:
///  * the edge of `anchor_tick` is exactly `anchor_time`;
///  * queries are only valid for times >= the current anchor (simulated time
///    moves forward; the anchor only moves forward too);
///  * tick indices are monotone in time.
class Oscillator {
 public:
  /// \param nominal_period  nominal PCS clock period (e.g. 6'400'000 fs)
  /// \param ppm             initial frequency offset in ppm
  /// \param phase           time of tick 0's edge (allows staggered startup)
  Oscillator(fs_t nominal_period, double ppm = 0.0, fs_t phase = 0);

  /// Nominal period this oscillator was specified with.
  fs_t nominal_period() const { return nominal_period_; }

  /// Current actual period in femtoseconds.
  fs_t period() const { return period_; }

  /// Current frequency offset from nominal, in ppm (derived from period).
  double ppm() const;

  // The four queries below run several times per simulated control block,
  // so they are inline; their range errors throw from out-of-line helpers.

  /// Index of the last tick whose edge is at or before `t`.
  /// Requires t >= anchor time.
  std::int64_t tick_at(fs_t t) const {
    check_time(t);
    // t >= anchor_time_, so the difference only overflows when the anchor
    // phase is negative and t sits within |anchor| of the horizon.
    if (anchor_time_ < 0 && t > kFsMax + anchor_time_) [[unlikely]]
      throw_overflow("Oscillator: tick_at past the femtosecond horizon");
    return anchor_tick_ + (t - anchor_time_) / period_;
  }

  /// Time of the edge of tick `k`. Requires k >= anchor tick.
  fs_t edge_of_tick(std::int64_t k) const {
    if (k < anchor_tick_) [[unlikely]] throw_before_anchor("Oscillator: tick before anchor");
    return narrow_or_throw(static_cast<__int128>(anchor_time_) +
                               static_cast<__int128>(k - anchor_tick_) * period_,
                           "Oscillator: edge_of_tick past the femtosecond horizon");
  }

  /// Time of the first edge at or after `t`. Requires t >= anchor time.
  fs_t next_edge_at_or_after(fs_t t) const {
    check_time(t);
    if (anchor_time_ < 0 && t > kFsMax + anchor_time_) [[unlikely]]
      throw_overflow("Oscillator: next_edge past the femtosecond horizon");
    const fs_t since = t - anchor_time_;
    // Ceil division without forming since + period - 1 (which wraps near the
    // horizon): round up exactly when t is off-lattice.
    const fs_t k = since / period_ + (since % period_ != 0 ? 1 : 0);
    return narrow_or_throw(
        static_cast<__int128>(anchor_time_) + static_cast<__int128>(k) * period_,
        "Oscillator: next_edge past the femtosecond horizon");
  }

  /// Time of the first edge strictly after `t`. Requires t >= anchor time.
  fs_t next_edge_after(fs_t t) const {
    const fs_t e = next_edge_at_or_after(t);
    if (e > t) return e;
    return narrow_or_throw(static_cast<__int128>(e) + period_,
                           "Oscillator: next_edge past the femtosecond horizon");
  }

  /// Change the period as of time `t` (drift). Edges at or before `t` are
  /// preserved; the new period applies from the last edge at or before `t`.
  /// Requires t >= anchor time.
  void set_period_at(fs_t t, fs_t new_period);

  /// Convenience: set frequency offset in ppm as of time `t`.
  void set_ppm_at(fs_t t, double ppm);

 private:
  static constexpr fs_t kFsMax = std::numeric_limits<fs_t>::max();

  void check_time(fs_t t) const {
    if (t < anchor_time_) [[unlikely]]
      throw_before_anchor("Oscillator: query before anchor time");
  }
  /// Widened result checked back into the femtosecond range. Bridged
  /// fast-forward legitimately asks for edges near the int64 horizon
  /// (~2.5 simulated hours); wrapping there would silently reorder events.
  static fs_t narrow_or_throw(__int128 t, const char* what) {
    if (t > kFsMax || t < std::numeric_limits<fs_t>::min()) [[unlikely]]
      throw_overflow(what);
    return static_cast<fs_t>(t);
  }
  [[noreturn]] static void throw_before_anchor(const char* what);
  [[noreturn]] static void throw_overflow(const char* what);

  fs_t nominal_period_;
  fs_t period_;
  fs_t anchor_time_;         // edge time of anchor_tick_
  std::int64_t anchor_tick_; // tick index anchored at anchor_time_
};

}  // namespace dtpsim::phy
