#pragma once

/// \file grandmaster.hpp
/// PTP grandmaster (the VelaSync timeserver of the paper's testbed).
///
/// Runs on a Host: multicasts Announce and two-step Sync/Follow_Up at the
/// configured rate (the paper's deployment used one sync per second, the
/// provider-recommended rate), and answers each Delay_Req with a
/// Delay_Resp carrying the hardware RX timestamp. The grandmaster's PHC is
/// ideal (GPS-disciplined) unless configured otherwise.

#include <cstdint>

#include "net/host.hpp"
#include "ptp/clock.hpp"
#include "ptp/messages.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::ptp {

/// Grandmaster configuration.
struct GrandmasterParams {
  fs_t sync_interval = from_sec(1);
  fs_t announce_interval = from_sec(1);
  std::uint8_t priority = 1;        ///< BMC priority (lower wins)
  std::uint8_t cos = 0;             ///< 802.1p class for PTP frames
};

/// The PTP master role.
class Grandmaster {
 public:
  /// \param host the timeserver host; the grandmaster registers for PTP
  ///             frames on its hardware receive path and NIC transmit tap.
  Grandmaster(sim::Simulator& sim, net::Host& host, GrandmasterParams params = {});

  Grandmaster(const Grandmaster&) = delete;
  Grandmaster& operator=(const Grandmaster&) = delete;

  void start();
  void stop();

  const HardwareClock& phc() const { return phc_; }
  net::MacAddr addr() const { return host_.addr(); }

  std::uint64_t delay_reqs_answered() const { return dreqs_answered_; }
  /// Total PTP packets emitted (the protocol's network overhead).
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void send_sync();
  void send_announce();
  void handle_hw_receive(const net::Frame& f, fs_t rx_time);
  void handle_transmit(net::Frame& f, fs_t tx_start);

  sim::Simulator& sim_;
  net::Host& host_;
  GrandmasterParams params_;
  HardwareClock phc_;
  std::uint16_t sync_seq_ = 0;
  std::uint16_t announce_seq_ = 0;
  std::uint64_t dreqs_answered_ = 0;
  std::uint64_t packets_sent_ = 0;
  sim::PeriodicProcess sync_proc_;
  sim::PeriodicProcess announce_proc_;
};

}  // namespace dtpsim::ptp
