#pragma once

/// \file sync_fifo.hpp
/// Clock-domain-crossing (CDC) synchronization FIFO model.
///
/// A DTP message is recovered in the RX clock domain (the *sender's* clock,
/// recovered from the bitstream) and must cross into the receiver's local TX
/// clock domain where the DTP logic and counter live. The crossing costs:
///
///   * phase quantization — the message waits for the next local tick edge
///     (0..T of delay, deterministic given the phase relation), and
///   * metastability guard flops — with some probability the consumer
///     samples one cycle later (the "one random delay" of Section 2.5), and
///   * a fixed processing pipeline of a few cycles (deterministic; it is
///     absorbed into the measured one-way delay during INIT).
///
/// This FIFO is the *only* nondeterminism in an otherwise deterministic DTP
/// datapath; the paper's entire +-2-tick OWD error analysis (Section 3.3)
/// and the alpha = 3 correction exist because of it.

#include <cstdint>

#include "common/rng.hpp"
#include "common/time_units.hpp"
#include "phy/oscillator.hpp"

namespace dtpsim::phy {

/// Tunables for the CDC model.
struct SyncFifoParams {
  /// Probability the guard flop adds a cycle *when the arrival lands inside
  /// the metastability window*.
  double extra_cycle_prob = 0.5;
  int pipeline_cycles = 2;  ///< deterministic RX processing pipeline
  /// Fraction of the local period around the capture edge within which the
  /// sampled bit may resolve either way. Outside the window the crossing
  /// delay is a *deterministic* function of the (slowly drifting) phase
  /// relation between the two clock domains — which is why real DTP offsets
  /// wander smoothly inside the bound rather than jittering per message
  /// (Fig. 6a/6b), and why the paper speaks of "one random delay [that]
  /// *could* be added".
  double metastability_window = 0.08;
};

/// Result of a crossing: when the receiver's logic first sees the message.
struct CrossingResult {
  std::int64_t visible_tick;  ///< receiver-local tick index of visibility
  fs_t visible_time;          ///< edge time of that tick
  int random_extra;           ///< 0 or 1: the metastability cycle actually added
};

/// The crossing arithmetic: when a message arriving on the wire at
/// `arrival` becomes visible to logic clocked by `local`, with the guard
/// flop's metastability window given as a fraction of the local period.
/// `draw_extra()` is asked for the flop's coin only when the arrival lands
/// inside that window. SyncFifo::cross is this with its own parameters and
/// RNG; phy::PhyPort calls it with the window and pipeline its port record
/// keeps beside the rest of the CDC state.
template <typename DrawExtra>
CrossingResult cdc_cross(const Oscillator& local, fs_t arrival, double window_frac,
                         int pipeline_cycles, DrawExtra&& draw_extra) {
  // Phase quantization: wait for the next local edge strictly after arrival
  // (a bit landing exactly on an edge cannot be captured by that edge): the
  // edge of the tick after the one the arrival falls in.
  std::int64_t tick = local.tick_at(arrival) + 1;
  const fs_t first_edge = local.edge_of_tick(tick);

  // The capture flop only behaves nondeterministically when the data
  // transition lands within the metastability window of the edge; elsewhere
  // the crossing is a pure function of phase.
  const fs_t window =
      static_cast<fs_t>(window_frac * static_cast<double>(local.period()));
  const bool near_edge = (first_edge - arrival) <= window;
  const int extra = (near_edge && draw_extra()) ? 1 : 0;
  tick += extra + pipeline_cycles;

  return CrossingResult{tick, local.edge_of_tick(tick), extra};
}

/// Models one synchronization FIFO between the recovered RX clock and a
/// local oscillator's domain.
class SyncFifo {
 public:
  SyncFifo(SyncFifoParams params, Rng rng) : params_(params), rng_(rng) {}

  /// Compute when a message arriving on the wire at `arrival` becomes
  /// visible to logic clocked by `local`.
  CrossingResult cross(const Oscillator& local, fs_t arrival) {
    return cdc_cross(local, arrival, params_.metastability_window,
                     params_.pipeline_cycles, [this] { return draw_extra(); });
  }

  /// The guard flop's coin for an arrival inside the metastability window.
  bool draw_extra() { return rng_.bernoulli(params_.extra_cycle_prob); }

  const SyncFifoParams& params() const { return params_; }

 private:
  SyncFifoParams params_;
  Rng rng_;
};

}  // namespace dtpsim::phy
