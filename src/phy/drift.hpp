#pragma once

/// \file drift.hpp
/// Temperature-induced oscillator drift model.
///
/// Oscillators with the same nominal frequency run at different and *slowly
/// wandering* rates (Section 2.3.1). We model the wander as a bounded random
/// walk on the ppm offset: every `update_interval` the offset takes a
/// uniform step in [-step_ppm, +step_ppm] and is reflected at the +-bound
/// (IEEE 802.3's +-100 ppm unless configured tighter). This compresses days
/// of thermal wander into seconds of simulation without changing the
/// mechanism DTP has to survive.

#include "common/rng.hpp"
#include "phy/oscillator.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::phy {

/// Parameters for the drift random walk.
struct DriftParams {
  double bound_ppm = kMaxPpm;     ///< reflecting bound on |ppm|
  double step_ppm = 0.01;         ///< max step magnitude per update
  fs_t update_interval = from_ms(10);  ///< how often the walk steps
};

/// Drives an Oscillator's ppm with a bounded random walk.
class DriftProcess {
 public:
  /// \param sim  simulator to schedule updates on
  /// \param osc  oscillator to drive (must outlive the process)
  /// \param rng  private random stream
  DriftProcess(sim::Simulator& sim, Oscillator& osc, DriftParams params, Rng rng);

  /// Begin stepping the walk.
  void start() { proc_.start(); }
  /// Stop stepping.
  void stop() { proc_.stop(); }

  /// Attribute walk events to the owning device (parallel mode: the walk
  /// must run on the shard that owns the oscillator). Set before start().
  void set_affinity(std::int32_t node) { proc_.set_affinity(node); }

  /// Current ppm of the walk (equals the oscillator's ppm after each step).
  double current_ppm() const { return ppm_; }

 private:
  void step();

  sim::Simulator& sim_;
  Oscillator& osc_;
  DriftParams params_;
  Rng rng_;
  double ppm_;
  sim::PeriodicProcess proc_;
};

}  // namespace dtpsim::phy
