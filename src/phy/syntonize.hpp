#pragma once

/// \file syntonize.hpp
/// Synchronous-Ethernet-style frequency syntonization (Section 8).
///
/// SyncE drives a device's transmit clock from the clock *recovered* on a
/// designated upstream port, so every device in a syntonization tree runs
/// at (almost exactly) the master's frequency; only a small residual error
/// remains from the cleanup PLL. The paper's closing discussion expects
/// DTP-over-SyncE to approach sub-nanosecond precision because the counters
/// stop drifting between beacons and the sync-FIFO variance can be
/// engineered away — `bench_ext_synce` measures exactly that.
///
/// Modeled as a periodic PLL update: the slave's oscillator period is set
/// to the upstream device's current period plus a small random residual.

#include "common/rng.hpp"
#include "phy/oscillator.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::phy {

/// PLL model parameters.
struct SyntonizeParams {
  double residual_ppb = 10.0;  ///< cleanup-PLL jitter (1-sigma, ppb)
};

/// Locks a slave oscillator's frequency to an upstream (master-side)
/// oscillator. Chains compose: syntonize B to A and C to B, and C follows A
/// with accumulated residuals, like a real SyncE clock chain.
class Syntonizer {
 public:
  /// \param slave     oscillator to discipline (must outlive)
  /// \param upstream  oscillator whose frequency is recovered (must outlive)
  Syntonizer(sim::Simulator& sim, Oscillator& slave, const Oscillator& upstream,
             SyntonizeParams params, Rng rng);

  void start() { proc_.start(); }
  void stop() { proc_.stop(); }

  /// Residual frequency error applied at the last update, in ppb.
  double last_residual_ppb() const { return last_residual_ppb_; }

 private:
  void update();

  sim::Simulator& sim_;
  Oscillator& slave_;
  const Oscillator& upstream_;
  SyntonizeParams params_;
  Rng rng_;
  double last_residual_ppb_ = 0.0;
  sim::PeriodicProcess proc_;
};

}  // namespace dtpsim::phy
