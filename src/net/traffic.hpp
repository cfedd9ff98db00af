#pragma once

/// \file traffic.hpp
/// iperf-like background traffic generation.
///
/// The PTP experiments (Fig. 6d-f) vary network load by running UDP flows
/// between servers: "medium" = five nodes at 4 Gbps, "heavy" = all links
/// saturated at ~9 Gbps. `TrafficGenerator` reproduces that: constant-rate
/// or Poisson frame arrivals at a target offered load, or full saturation
/// (keep the NIC queue non-empty), with MTU or jumbo frames.

#include <cstdint>

#include "common/rng.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::net {

/// Offered-load description.
struct TrafficParams {
  double rate_bps = 4e9;           ///< target offered load (ignored if saturate)
  std::uint32_t frame_bytes = kMtuFrameBytes;  ///< full frame size (header..FCS)
  bool poisson = true;             ///< exponential vs constant interarrivals
  bool saturate = false;           ///< keep the egress queue backlogged
  /// Frames emitted back-to-back per arrival (TCP-window-style burstiness;
  /// interarrival times are scaled so the offered rate is unchanged). The
  /// queueing tails that degrade PTP at sub-line offered loads (Fig. 6e)
  /// come from these bursts, exactly as from iperf's.
  std::size_t burst_frames = 1;
};

/// Generates load from one host toward one destination MAC.
class TrafficGenerator {
 public:
  TrafficGenerator(sim::Simulator& sim, Host& src, MacAddr dst, TrafficParams params);

  TrafficGenerator(const TrafficGenerator&) = delete;
  TrafficGenerator& operator=(const TrafficGenerator&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

 private:
  void arm_next();
  void offer();
  fs_t interarrival();

  sim::Simulator& sim_;
  Host& src_;
  MacAddr dst_;
  TrafficParams params_;
  Rng rng_;
  bool running_ = false;
  std::uint64_t next_id_;
};

}  // namespace dtpsim::net
