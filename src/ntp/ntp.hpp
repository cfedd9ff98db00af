#pragma once

/// \file ntp.hpp
/// NTP baseline (Section 2.4.1, Table 1 comparison row).
///
/// Client/server time exchange with the classic four timestamps, all taken
/// in *software* (through the host network-stack model, where NTP actually
/// timestamps), an 8-sample clock filter (minimum-delay sample selection,
/// Mills' algorithm in miniature), and a discipline loop that slews the
/// kernel software clock. Millisecond-to-microsecond precision in a LAN —
/// demonstrating why packet-based daemon timestamping cannot approach the
/// PHY's determinism.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "net/host.hpp"
#include "phy/adjustable_clock.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::ntp {

/// One NTP datagram (request or response).
struct NtpMessage : net::Packet {
  bool response = false;
  std::uint32_t sequence = 0;
  double t1_ns = 0.0;  ///< client transmit (originate) timestamp
  double t2_ns = 0.0;  ///< server receive timestamp
  double t3_ns = 0.0;  ///< server transmit timestamp
};

/// NTP server: answers requests with software timestamps from its clock.
/// The server's clock is ideal (stratum-1, GPS-disciplined) by default.
class NtpServer {
 public:
  NtpServer(sim::Simulator& sim, net::Host& host, bool ideal_clock = true);

  NtpServer(const NtpServer&) = delete;
  NtpServer& operator=(const NtpServer&) = delete;

  const phy::AdjustableClock& clock() const { return clock_; }
  net::MacAddr addr() const { return host_.addr(); }
  std::uint64_t requests_served() const { return served_; }

 private:
  void handle(const net::Frame& f, fs_t app_rx_time);

  sim::Simulator& sim_;
  net::Host& host_;
  phy::AdjustableClock clock_;
  std::uint64_t served_ = 0;
};

/// Client configuration.
struct NtpClientParams {
  fs_t poll_interval = from_sec(1);   ///< LAN ntpd minimum poll is 8 s; we poll
                                      ///< faster to converge within short runs
  std::size_t filter_window = 8;      ///< clock-filter shift register size
  double step_threshold_ns = 50e6;    ///< step if |offset| above this (50 ms)
  double slew_gain = 0.5;             ///< fraction of offset corrected per poll
  fs_t sample_period = from_ms(100);  ///< true-offset sampling cadence
};

/// NTP client: polls a server and disciplines its software clock.
class NtpClient {
 public:
  /// \param reference  the server's clock, for ground-truth recording only
  NtpClient(sim::Simulator& sim, net::Host& host, net::MacAddr server,
            const phy::AdjustableClock& reference, NtpClientParams params = {});

  NtpClient(const NtpClient&) = delete;
  NtpClient& operator=(const NtpClient&) = delete;

  void start();
  void stop();

  phy::AdjustableClock& clock() { return clock_; }

  /// Filtered measured offsets (ns), one per accepted exchange.
  const TimeSeries& measured_series() const { return measured_series_; }
  /// Ground truth: clock - reference (ns), sampled periodically.
  const TimeSeries& true_series() const { return true_series_; }

  std::uint64_t polls_sent() const { return polls_; }
  std::uint64_t exchanges() const { return exchanges_; }

 private:
  struct FilterSample {
    double offset_ns;
    double delay_ns;
  };

  void poll();
  void handle(const net::Frame& f, fs_t app_rx_time);
  std::optional<double> clock_filter(double offset_ns, double delay_ns);
  void sample_truth();

  sim::Simulator& sim_;
  net::Host& host_;
  net::MacAddr server_;
  const phy::AdjustableClock& reference_;
  NtpClientParams params_;
  phy::AdjustableClock clock_;

  std::uint32_t seq_ = 0;
  std::vector<FilterSample> filter_;
  std::size_t filter_next_ = 0;
  double freq_est_ppb_ = 0.0;

  std::uint64_t polls_ = 0;
  std::uint64_t exchanges_ = 0;
  TimeSeries measured_series_;
  TimeSeries true_series_;
  sim::PeriodicProcess poll_proc_;
  sim::PeriodicProcess sample_proc_;
};

}  // namespace dtpsim::ntp
