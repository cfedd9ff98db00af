#include "dtp/daemon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dtpsim::dtp {

namespace {
// Keep register reads in the non-negative int64 range; the counter stays
// far below 2^63 units inside the fs_t horizon even when tests pre-age it
// past the 2^53 double-precision cliff.
constexpr std::uint64_t kUnitsMask = 0x7FFF'FFFF'FFFF'FFFFULL;

constexpr fs_t kPcieBase = from_ns(250);        ///< nominal round-trip MMIO read cost
constexpr fs_t kPcieJitterMean = from_ns(40);   ///< exponential jitter on top
/// Quality filter: a read whose bracketed round trip exceeds the best
/// recently seen RTT by this much is discarded (its association error is
/// unbounded). RADclock-style.
constexpr fs_t kRttRejectMargin = from_ns(120);
/// Fraction of each new reading blended into the interpolation anchor
/// (1.0 = jump to every reading). Damps per-read jitter the same way
/// production daemons low-pass their raw clock readings.
constexpr double kAnchorBlend = 0.3;
constexpr std::size_t kSmoothWindow = 10;  ///< Fig. 7b moving-average window
/// Uncertainty model for the timebase page: fixed margin (ticks) added to
/// the RTT-derived association bound and the recent blend residual, plus
/// growth with anchor age (ppm) covering rate-estimate error and the
/// counter's discipline dynamics between polls.
constexpr double kUncMarginTicks = 8.0;
constexpr double kUncDriftPpm = 50.0;
}  // namespace

Daemon::Daemon(sim::Simulator& sim, Agent& agent, DaemonParams params, double tsc_ppm)
    : sim_(sim),
      agent_(agent),
      params_(params),
      rng_(sim.fork_rng(0xDAE0 ^ std::hash<std::string>{}(agent.device().name()))),
      tsc_rate_hz_(static_cast<std::int64_t>(
          std::llround(kTscHz * (1.0 + tsc_ppm * 1e-6)))),
      smoother_(kSmoothWindow),
      poller_(sim, params.poll_period, [this] { poll(); },
              sim::EventCategory::kProbe),
      sampler_(sim, params.sample_period > 0 ? params.sample_period : from_ms(1),
               [this] { sample(); }, sim::EventCategory::kProbe) {
  if (params.poll_period <= 0) throw std::invalid_argument("Daemon: poll period");
  if (params.rtt_window_polls == 0)
    throw std::invalid_argument("Daemon: rtt window");
}

void Daemon::start() {
  ++epoch_;
  poller_.start_with_phase(0);
  if (params_.sample_period > 0) sampler_.start();
}

void Daemon::stop() {
  poller_.stop();
  sampler_.stop();
}

__int128 Daemon::tsc_at(fs_t t) const {
  return static_cast<__int128>(t) * tsc_rate_hz_ / kFsPerSec;
}

double Daemon::unit_fs() const {
  return static_cast<double>(agent_.device().oscillator().nominal_period()) /
         static_cast<double>(agent_.params().counter_delta);
}

fs_t Daemon::max_anchor_age_effective() const {
  return params_.max_anchor_age > 0 ? params_.max_anchor_age
                                    : 8 * params_.poll_period;
}

fs_t Daemon::anchor_age(fs_t now) const {
  return last_accept_at_ < 0 ? fs_t{-1} : now - last_accept_at_;
}

bool Daemon::stale(fs_t now) const {
  if (!calibrated()) return true;
  return anchor_age(now) > max_anchor_age_effective();
}

void Daemon::poll() {
  // An MMIO read is a PCIe round trip: the request reaches the NIC (which
  // samples the register *then*), and the completion returns. The daemon
  // brackets the read with rdtsc and associates the value with the
  // midpoint of the measured round trip — so the association error is the
  // request/response *asymmetry*: zero-mean jitter plus occasional
  // one-sided spikes, exactly the Fig. 7a error structure.
  auto leg = [&] {
    fs_t d = kPcieBase / 2 +
             static_cast<fs_t>(rng_.exponential(static_cast<double>(kPcieJitterMean)));
    if (params_.pcie_spike_prob > 0 && rng_.bernoulli(params_.pcie_spike_prob))
      d += static_cast<fs_t>(rng_.exponential(static_cast<double>(params_.pcie_spike_mean)));
    // Injected PCIe storm: constant extra latency per leg plus bursty spikes.
    d += stress_extra_;
    if (stress_spike_prob_ > 0 && rng_.bernoulli(stress_spike_prob_))
      d += static_cast<fs_t>(rng_.exponential(static_cast<double>(stress_spike_mean_)));
    return d;
  };
  const fs_t t_issue = sim_.now();
  const fs_t d_req = leg();
  const fs_t d_resp = leg();

  // Quality filter: the daemon sees the bracketed RTT; a read that took far
  // longer than the best recent one carries unbounded association error, so
  // it is discarded and the clock keeps extrapolating (RADclock-style).
  // The floor is the minimum over a sliding window of every poll's RTT —
  // rejected reads still contribute theirs — so after a permanent latency
  // regime change the old floor ages out within rtt_window_polls and the
  // filter re-admits the new regime instead of rejecting forever.
  const fs_t rtt = d_req + d_resp;
  if (rtt_ring_.size() < params_.rtt_window_polls) {
    rtt_ring_.push_back(rtt);
  } else {
    rtt_ring_[rtt_next_] = rtt;
    rtt_next_ = (rtt_next_ + 1) % params_.rtt_window_polls;
  }
  best_rtt_ = *std::min_element(rtt_ring_.begin(), rtt_ring_.end());
  if (polls_ >= 2 && rtt > best_rtt_ + kRttRejectMargin) {
    ++rejected_;
    return;
  }

  const fs_t t_value = t_issue + d_req;  // register sampled on request arrival
  const auto counter = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(agent_.global_at(t_value).value()) & kUnitsMask);
  const __int128 tsc_assoc = tsc_at(t_issue + (d_req + d_resp) / 2);

  if (polls_ > 0) {
    // Long-baseline rate: divide by the span back to the oldest checkpoint
    // in the window so per-read jitter is amortized over many intervals.
    const auto& anchor =
        checkpoints_.size() < params_.rate_window_polls
            ? checkpoints_.front()
            : checkpoints_[checkpoint_next_];  // oldest slot in the ring
    const auto dc = static_cast<double>(counter - anchor.first);
    const auto dt = static_cast<double>(tsc_assoc - anchor.second);
    if (dt > 0) counter_per_tsc_ = dc / dt;
  }
  if (checkpoints_.size() < params_.rate_window_polls) {
    checkpoints_.emplace_back(counter, tsc_assoc);
  } else {
    checkpoints_[checkpoint_next_] = {counter, tsc_assoc};
    checkpoint_next_ = (checkpoint_next_ + 1) % params_.rate_window_polls;
  }
  if (polls_ >= 2) {
    // Blend the new (jittery) reading into the prediction instead of
    // jumping to it; the raw readings still feed the rate window above.
    // All arithmetic is split-precision: the integer units never pass
    // through a double, so nothing quantizes past 2^53.
    std::int64_t pred_units;
    double pred_frac;
    TimebasePage::advance(anchor_units_, anchor_frac_,
                          static_cast<double>(tsc_assoc - last_tsc_) * counter_per_tsc_,
                          &pred_units, &pred_frac);
    const double resid = static_cast<double>(counter - pred_units) - pred_frac;
    TimebasePage::advance(pred_units, pred_frac, kAnchorBlend * resid,
                          &anchor_units_, &anchor_frac_);
    resid_max_ = std::max(std::abs(resid), resid_max_ * 0.7);
  } else {
    anchor_units_ = counter;
    anchor_frac_ = 0.0;
  }
  last_tsc_ = tsc_assoc;
  last_accept_at_ = t_issue;
  ++polls_;
  publish_page();
}

double Daemon::unc_base_units() const {
  // Association bound of an accepted read: the register is sampled at
  // t_issue + d_req but associated with the RTT midpoint, so the error is
  // at most rtt/2, and accepted RTTs are capped at best + margin.
  const fs_t rtt_budget = best_rtt_ + kRttRejectMargin;
  const double assoc_units = static_cast<double>(rtt_budget) / 2.0 / unit_fs();
  const double margin_units =
      kUncMarginTicks * static_cast<double>(agent_.params().counter_delta);
  return assoc_units + resid_max_ + margin_units;
}

void Daemon::publish_page() {
  if (!calibrated()) return;
  TimebaseSnapshot s;
  s.anchor_units = anchor_units_;
  s.anchor_frac = anchor_frac_;
  s.anchor_tsc = static_cast<std::int64_t>(last_tsc_);
  s.units_per_tsc = counter_per_tsc_;
  s.unc_base_units = unc_base_units();
  s.unc_per_tsc = kUncDriftPpm * 1e-6 * counter_per_tsc_;
  s.stale_after_tsc = static_cast<std::int64_t>(
      last_tsc_ + static_cast<__int128>(max_anchor_age_effective()) *
                      tsc_rate_hz_ / kFsPerSec);
  s.epoch = epoch_;
  s.flags = TimebasePage::kFlagValid;
  page_.publish(s);
}

CounterReading Daemon::get_dtp_counter_split(fs_t now) const {
  // A calibrated daemon has published its last accepted poll, so the page
  // holds its current anchor and rate.
  if (!calibrated()) throw std::logic_error("Daemon: not calibrated yet");
  const TimebaseSample s = timebase_sample(now);
  return {s.units, s.frac};
}

double Daemon::get_dtp_counter(fs_t now) const {
  return get_dtp_counter_split(now).value();
}

double Daemon::get_time_ns(fs_t now) const {
  const CounterReading r = get_dtp_counter_split(now);
  // One counter unit is one tick of the nominal clock (delta units per tick
  // in multi-rate mode, where a unit is 0.32 ns).
  const double ns_per_unit =
      to_ns_f(agent_.device().oscillator().nominal_period()) /
      static_cast<double>(agent_.params().counter_delta);
  return r.value() * ns_per_unit;
}

void Daemon::set_pcie_stress(fs_t extra_per_leg, double spike_prob, fs_t spike_mean) {
  stress_extra_ = extra_per_leg;
  stress_spike_prob_ = spike_prob;
  stress_spike_mean_ = spike_mean;
}

void Daemon::clear_pcie_stress() {
  stress_extra_ = 0;
  stress_spike_prob_ = 0;
  stress_spike_mean_ = 0;
}

double Daemon::signed_error_ticks(fs_t now) const {
  // Difference the exact integer parts first (int64 arithmetic), then add
  // the sub-unit fractions; resolution is tick-level at any magnitude,
  // unlike differencing two quantized doubles.
  const CounterReading est = get_dtp_counter_split(now);
  const auto truth_units = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(agent_.global_at(now).value()) & kUnitsMask);
  const double truth_frac = agent_.phase_units_at(now);
  const double diff =
      static_cast<double>(est.units - truth_units) + est.frac - truth_frac;
  return diff / static_cast<double>(agent_.params().counter_delta);
}

double Daemon::current_error_ticks(fs_t now) const {
  return std::abs(signed_error_ticks(now));
}

void Daemon::sample() {
  if (!calibrated()) return;
  const fs_t now = sim_.now();
  const double ticks = signed_error_ticks(now);
  raw_series_.add(to_sec_f(now), ticks);
  smoothed_series_.add(to_sec_f(now), smoother_.push(ticks));
}

}  // namespace dtpsim::dtp
