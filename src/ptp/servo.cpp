#include "ptp/servo.hpp"

#include <algorithm>
#include <cmath>

namespace dtpsim::ptp {

namespace {
constexpr double kKp = 0.7;           ///< proportional gain (per second)
constexpr double kKi = 0.3;           ///< integral gain (per second)
constexpr double kMaxFreqPpb = 5e5;   ///< trim clamp (covers +-100 ppm oscillators)
}  // namespace

PiServo::PiServo(ServoParams params) : params_(params) {}

void PiServo::reset() {
  window_.clear();
  window_next_ = 0;
  first_ = true;
  integral_ppb_ = 0.0;
}

double PiServo::median(double latest) {
  if (params_.median_window <= 1) return latest;
  if (window_.size() < params_.median_window) {
    window_.push_back(latest);
  } else {
    window_[window_next_] = latest;
    window_next_ = (window_next_ + 1) % params_.median_window;
  }
  std::vector<double> sorted = window_;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  return sorted[sorted.size() / 2];
}

ServoAction PiServo::update(double offset_ns, double dt_sec) {
  ServoAction action;
  if (dt_sec <= 0) dt_sec = 1.0;

  if (first_ || std::fabs(offset_ns) > params_.step_threshold_ns) {
    // Gross offset: step the clock, keep the frequency estimate.
    action.step_ns = -offset_ns;
    action.freq_ppb = std::clamp(-integral_ppb_, -kMaxFreqPpb, kMaxFreqPpb);
    action.filtered_offset_ns = offset_ns;
    first_ = false;
    return action;
  }

  const double filtered = median(offset_ns);
  action.filtered_offset_ns = filtered;

  // offset_ns observed over dt seconds == offset_ns/dt ppb of rate error
  // plus accumulated phase; standard PI mapping.
  integral_ppb_ += kKi * filtered / dt_sec;
  integral_ppb_ = std::clamp(integral_ppb_, -kMaxFreqPpb, kMaxFreqPpb);
  const double out = kKp * filtered / dt_sec + integral_ppb_;
  action.freq_ppb = std::clamp(-out, -kMaxFreqPpb, kMaxFreqPpb);
  return action;
}

}  // namespace dtpsim::ptp
