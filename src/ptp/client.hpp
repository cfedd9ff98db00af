#pragma once

/// \file client.hpp
/// PTP slave/client (one per server, like the paper's Mellanox + Timekeeper
/// deployment).
///
/// Hardware-timestamps Sync arrivals (t2) and Delay_Req departures (t3),
/// learns t1 from Follow_Up and t4 from Delay_Resp, maintains a filtered
/// mean path delay, and drives its PHC with a PI servo. Master selection is
/// a simplified best-master-clock: lowest (priority, identity) among heard
/// Announces. Both the *measured* offsets (what the paper's Timekeeper tool
/// reports and Fig. 6d-f plot) and the simulator-only *true* offsets are
/// recorded.

#include <cstdint>
#include <optional>

#include "common/stats.hpp"
#include "net/host.hpp"
#include "ptp/clock.hpp"
#include "ptp/messages.hpp"
#include "ptp/servo.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::ptp {

/// Client configuration.
struct PtpClientParams {
  fs_t delay_req_interval = from_ms(750);  ///< 2 per 1.5 s, as configured in §6.1
  std::uint8_t cos = 0;                    ///< 802.1p class for PTP frames
};

/// The PTP slave role.
class PtpClient {
 public:
  /// \param host       this client's host (registers for its PTP frames)
  /// \param reference  the grandmaster's PHC, used ONLY to record
  ///                   ground-truth offsets (simulator-side measurement)
  PtpClient(sim::Simulator& sim, net::Host& host, const HardwareClock& reference,
            PtpClientParams params = {});

  PtpClient(const PtpClient&) = delete;
  PtpClient& operator=(const PtpClient&) = delete;

  void start();
  void stop();

  HardwareClock& phc() { return phc_; }
  const HardwareClock& phc() const { return phc_; }

  /// Selected master (value 0 until an Announce or Sync has been heard).
  net::MacAddr master() const { return master_; }

  /// Measured offset per completed sync (ns) — what Fig. 6d-f plot.
  const TimeSeries& measured_series() const { return measured_series_; }
  /// Ground truth: phc - reference (ns), sampled periodically.
  const TimeSeries& true_series() const { return true_series_; }
  /// Filtered mean path delay estimate (ns), if measured.
  std::optional<double> path_delay_ns() const { return path_delay_ns_; }

  std::uint64_t syncs_completed() const { return syncs_completed_; }
  std::uint64_t delay_reqs_sent() const { return dreqs_sent_; }
  /// Total PTP packets this client emitted (network overhead accounting).
  std::uint64_t packets_sent() const { return dreqs_sent_; }

 private:
  void handle_hw_receive(const net::Frame& f, fs_t rx_time);
  void handle_transmit(net::Frame& f, fs_t tx_start);
  void handle_announce(const net::Frame& f, const PtpMessage& m);
  void handle_sync(const net::Frame& f, const PtpMessage& m, fs_t rx_time);
  void handle_follow_up(const PtpMessage& m);
  void handle_delay_resp(const PtpMessage& m);
  void send_delay_req();
  void complete_sync();
  void sample_truth();
  double filtered_delay(double sample_ns);

  sim::Simulator& sim_;
  net::Host& host_;
  const HardwareClock& reference_;
  PtpClientParams params_;
  HardwareClock phc_;
  PiServo servo_;

  net::MacAddr master_{};
  std::uint8_t master_priority_ = 255;
  std::uint64_t master_identity_ = ~0ULL;

  // Current sync exchange.
  std::uint16_t sync_seq_ = 0;
  std::optional<double> t2_ns_;
  double sync_correction_ns_ = 0.0;
  std::optional<double> t1_ns_;

  // Current delay exchange.
  std::uint16_t dreq_seq_ = 0;
  std::optional<double> t3_ns_;
  // Most recent complete (t1, t2) pair for combining with (t3, t4).
  std::optional<double> pair_t1_ns_, pair_t2_ns_;

  std::optional<double> path_delay_ns_;
  std::vector<double> delay_window_;
  std::size_t delay_window_next_ = 0;

  fs_t last_servo_update_ = 0;
  std::uint64_t syncs_completed_ = 0;
  std::uint64_t dreqs_sent_ = 0;

  TimeSeries measured_series_;
  TimeSeries true_series_;
  sim::PeriodicProcess dreq_proc_;
  sim::PeriodicProcess sample_proc_;
};

}  // namespace dtpsim::ptp
