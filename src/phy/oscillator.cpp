#include "phy/oscillator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dtpsim::phy {

namespace {

/// The exact double Oscillator::ppm() reports for an integer period — the
/// round-trip below must compare against this, not the analytic inverse.
double ppm_of_period(fs_t nominal_period, fs_t period) {
  return (static_cast<double>(nominal_period) / static_cast<double>(period) - 1.0) * 1e6;
}

}  // namespace

fs_t period_from_ppm(fs_t nominal_period, double ppm) {
  // f = f_nom * (1 + ppm/1e6)  =>  P = P_nom / (1 + ppm/1e6). The division
  // and llround land within one unit of the best integer period; picking the
  // candidate whose ppm() is closest to the request makes
  // set_ppm_at(t, osc.ppm()) an exact no-op on the integer period (the true
  // period is always among the candidates and has distance zero).
  const double p = static_cast<double>(nominal_period) / (1.0 + ppm * 1e-6);
  const auto rounded = static_cast<fs_t>(std::llround(p));
  fs_t best = 0;
  double best_err = std::numeric_limits<double>::infinity();
  for (fs_t cand : {rounded - 1, rounded, rounded + 1}) {
    if (cand <= 0) continue;
    const double err = std::abs(ppm_of_period(nominal_period, cand) - ppm);
    if (err < best_err) {
      best_err = err;
      best = cand;
    }
  }
  if (best <= 0) throw std::invalid_argument("period_from_ppm: non-positive period");
  return best;
}

Oscillator::Oscillator(fs_t nominal_period, double ppm, fs_t phase)
    : nominal_period_(nominal_period),
      period_(period_from_ppm(nominal_period, ppm)),
      anchor_time_(phase),
      anchor_tick_(0) {
  if (nominal_period <= 0) throw std::invalid_argument("Oscillator: non-positive period");
}

double Oscillator::ppm() const {
  return (static_cast<double>(nominal_period_) / static_cast<double>(period_) - 1.0) * 1e6;
}

void Oscillator::throw_before_anchor(const char* what) { throw std::logic_error(what); }

void Oscillator::throw_overflow(const char* what) { throw std::overflow_error(what); }

void Oscillator::set_period_at(fs_t t, fs_t new_period) {
  if (new_period <= 0) throw std::invalid_argument("Oscillator: non-positive period");
  check_time(t);
  // An unchanged period keeps the grid identical; skip the re-anchor so the
  // drift walk's frequent no-op updates cannot creep the anchor toward the
  // horizon guard.
  if (new_period == period_) return;
  // Re-anchor on the last edge at or before t so past edges are preserved.
  const std::int64_t k = tick_at(t);
  anchor_time_ = edge_of_tick(k);
  anchor_tick_ = k;
  period_ = new_period;
}

void Oscillator::set_ppm_at(fs_t t, double ppm) {
  set_period_at(t, period_from_ppm(nominal_period_, ppm));
}

}  // namespace dtpsim::phy
