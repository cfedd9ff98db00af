#pragma once

/// \file servo.hpp
/// PI clock servo with median prefilter — the "smoothing and filtering
/// algorithms" commercial PTP stacks apply (Section 2.4.2).
///
/// Each completed exchange yields a measured offset; a median-of-N window
/// rejects outliers (queueing spikes), and a PI controller converts the
/// filtered offset into a frequency trim, stepping the clock only on the
/// first lock or on gross offsets. This mirrors ptp4l's servo structure.

#include <cstddef>
#include <vector>

namespace dtpsim::ptp {

/// Servo prefilter and step limit.
struct ServoParams {
  /// Offset median prefilter size. 1 = off (ptp4l's default servo shape):
  /// a median inside the loop adds delay and destabilizes the PI gains, so
  /// enable it only with reduced gains.
  std::size_t median_window = 1;
  double step_threshold_ns = 1e6;    ///< step instead of slew above this
};

/// Output of one servo update.
struct ServoAction {
  double freq_ppb = 0.0;   ///< new frequency trim to apply
  double step_ns = 0.0;    ///< nonzero: step the clock by this first
  double filtered_offset_ns = 0.0;
};

/// PI servo over median-filtered offsets.
class PiServo {
 public:
  explicit PiServo(ServoParams params = {});

  /// Feed one measured offset (client - master, ns) observed over an
  /// interval of `dt_sec` since the previous update.
  ServoAction update(double offset_ns, double dt_sec);


  void reset();

 private:
  double median(double latest);

  ServoParams params_;
  std::vector<double> window_;
  std::size_t window_next_ = 0;
  bool first_ = true;
  double integral_ppb_ = 0.0;
};

}  // namespace dtpsim::ptp
