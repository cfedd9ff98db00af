#pragma once

/// \file mac.hpp
/// Media Access Control layer over one PhyPort.
///
/// The MAC owns a drop-tail transmit queue (bytes-bounded, like a NIC/switch
/// egress buffer), serializes frames through the PHY respecting the
/// inter-packet gap, and delivers FCS-clean received frames upward. A
/// protocol taps its EtherType's frames at transmit, with the exact
/// first-bit-on-wire time (where PTP-capable NICs take hardware TX
/// timestamps), or at ingress, with last-bit arrival (the hardware RX
/// timestamp point) just before the device's own `on_receive`.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time_units.hpp"
#include "net/frame.hpp"
#include "phy/port.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::net {

/// MAC configuration.
struct MacParams {
  std::size_t queue_capacity_bytes = 512 * 1024;  ///< egress buffer (drop-tail)
  /// Number of strict-priority egress queues (802.1p classes are mapped
  /// onto them evenly). 1 = a plain FIFO; 2+ lets protocol traffic bypass
  /// bulk queues, as the PFC-capable switches in the paper's PTP testbed
  /// references do. Capacity is divided evenly across queues.
  std::size_t priority_queues = 1;
  /// Quiet period after link-up before data frames may serialize, modeling
  /// link training plus forwarding re-convergence (real 10GBASE links carry
  /// no traffic for milliseconds after a replug). PHY control blocks are
  /// exempt — they live below the MAC. DTP depends on this window: the
  /// one-way delay is measured by the INIT exchange at link initialization
  /// (Section 3.2), and an ACK stuck behind an in-flight MTU frame would
  /// inflate d by up to half a frame time (~95 ticks at 10G).
  fs_t data_holdoff = 0;
};

/// Counters exposed for tests and experiment harnesses.
struct MacStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_fcs_errors = 0;
  std::uint64_t tx_drops = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::size_t max_queue_bytes = 0;
};

/// One MAC instance bound to one PhyPort.
class Mac {
 public:
  Mac(sim::Simulator& sim, phy::PhyPort& port, MacParams params = {});

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  /// Enqueue a frame for transmission; returns false (and counts a drop) if
  /// the frame's class queue is full.
  bool enqueue(const Frame& frame);

  /// Bytes currently waiting across all egress queues.
  std::size_t queue_bytes() const;
  std::size_t queue_frames() const;

  /// Restart the transmit pump. Needed after a link bounce: enqueue() is the
  /// normal trigger, but a saturate-mode source stops enqueueing once its
  /// backlog target is met, so a full queue would otherwise sit dead on a
  /// freshly re-established link.
  void kick() { pump(); }

  const MacStats& stats() const { return stats_; }
  phy::PhyPort& port() { return port_; }
  const phy::PhyPort& port() const { return port_; }

  /// Hardware TX timestamp point: `on_transmit.add(ethertype, tap)` sees
  /// each in-flight frame of that EtherType with its first-bit wire time.
  /// The frame is mutable so transparent clocks can rewrite `correction_ns`
  /// at egress serialization, before any receiver observes the frame.
  EtherTypeHandlers<Frame&, fs_t> on_transmit;
  /// Clean frames by EtherType at last-bit arrival, before `on_receive` (a
  /// transparent clock's ingress timestamp).
  EtherTypeHandlers<const Frame&, fs_t> on_ingress;
  /// The device's own input: every clean frame; `rx_time` is last-bit
  /// arrival (hardware RX timestamp).
  std::function<void(const Frame&, fs_t rx_time)> on_receive;

 private:
  void pump();
  void handle_rx(const phy::FrameRx& rx);
  std::size_t class_of(const Frame& frame) const;

  sim::Simulator& sim_;
  phy::PhyPort& port_;
  MacParams params_;
  /// Strict-priority queues, index 0 = lowest class.
  std::vector<std::deque<Frame>> queues_;
  std::vector<std::size_t> queue_bytes_;
  bool pump_scheduled_ = false;
  MacStats stats_;
};

}  // namespace dtpsim::net
