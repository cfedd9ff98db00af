#pragma once

/// \file probe.hpp
/// The evaluation-section measurement harness (Section 6.2).
///
/// The paper measures precision *in the PHY*: a node periodically pushes a
/// LOG message through the DTP layer; the sender's DTP layer stamps it with
/// the global counter (t1), the receiver stamps arrival (t2), and
///
///     offset_hw = t2 - t1 - OWD
///
/// estimates the clock offset between the two devices, including the
/// sync-FIFO nondeterminism — i.e. it measures exactly what the authors
/// measured, biases included. `OffsetProbe` reproduces that harness for one
/// directed link; it also records the ground-truth offset (directly
/// comparing the two global counters), which only a simulator can see, each
/// time it sends a LOG message.

#include <functional>

#include "common/stats.hpp"
#include "dtp/agent.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::dtp {

/// Periodic offset_hw measurement across one DTP link.
class OffsetProbe {
 public:
  /// \param sender        agent whose port sends LOG messages
  /// \param sender_port   index of the sending port (must be cabled to
  ///                      `receiver`'s `receiver_port`)
  /// \param receiver      agent on the other end of the link
  /// \param receiver_port its port index on this link
  /// \param period        measurement cadence (paper: twice per second)
  OffsetProbe(sim::Simulator& sim, Agent& sender, std::size_t sender_port,
              Agent& receiver, std::size_t receiver_port, fs_t period);

  void start() { proc_.start(); }
  void stop() { proc_.stop(); }

  /// offset_hw samples, in *ticks* (counter units / delta), vs time.
  const TimeSeries& hw_series() const { return hw_series_; }
  /// Ground-truth offsets (receiver gc - sender gc, fractional ticks),
  /// sampled in the probe's own global event, as each LOG message is sent.
  const TimeSeries& true_series() const { return true_series_; }

  std::size_t samples() const { return hw_series_.points().size(); }

 private:
  void fire();

  sim::Simulator& sim_;
  Agent& sender_;
  std::size_t sender_port_;
  Agent& receiver_;
  std::size_t receiver_port_;
  TimeSeries hw_series_;
  TimeSeries true_series_;
  sim::PeriodicProcess proc_;
};

}  // namespace dtpsim::dtp
