#include "phy/syntonize.hpp"

#include <cmath>

namespace dtpsim::phy {

namespace {
constexpr fs_t kUpdateInterval = from_us(100);  ///< PLL bandwidth proxy
}  // namespace

Syntonizer::Syntonizer(sim::Simulator& sim, Oscillator& slave, const Oscillator& upstream,
                       SyntonizeParams params, Rng rng)
    : sim_(sim),
      slave_(slave),
      upstream_(upstream),
      params_(params),
      rng_(rng),
      proc_(sim, kUpdateInterval, [this] { update(); },
            sim::EventCategory::kDrift) {}

void Syntonizer::update() {
  // The recovered clock IS the upstream TX clock; the cleanup PLL adds a
  // small multiplicative residual.
  last_residual_ppb_ = rng_.normal(0.0, params_.residual_ppb);
  const double period = static_cast<double>(upstream_.period()) *
                        (1.0 + last_residual_ppb_ * 1e-9);
  slave_.set_period_at(sim_.now(), static_cast<fs_t>(std::llround(period)));
}

}  // namespace dtpsim::phy
