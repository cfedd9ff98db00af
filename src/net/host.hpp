#pragma once

/// \file host.hpp
/// End host: one NIC (port + MAC) plus a software network stack model.
///
/// The paper's Section 2.3.2 blames system calls, kernel buffering, and DMA
/// for the delay errors daemon-based protocols suffer. `StackModel`
/// reproduces that error structure: a deterministic base cost, an
/// exponential jitter tail, and rare large "spikes" (scheduler preemption,
/// cache misses). Applications see both the hardware timestamps (MAC
/// boundary — what PTP-capable NICs expose) and the software arrival time
/// (what NTP-style daemons get), so baselines can be configured either way.
/// A protocol claims its frames by registering a handler for its EtherType
/// on either path.

#include <cstdint>

#include "common/rng.hpp"
#include "net/device.hpp"
#include "net/frame.hpp"

namespace dtpsim::net {

/// Samples one traversal delay of the software stack (per direction).
class StackModel {
 public:
  explicit StackModel(Rng rng) : rng_(rng) {}

  /// One stack traversal delay (>= the deterministic base cost).
  fs_t sample();

 private:
  Rng rng_;
};

/// An end host with a single NIC.
class Host : public Device {
 public:
  Host(sim::Simulator& sim, std::string name, MacAddr addr, DeviceParams dev);

  MacAddr addr() const { return addr_; }
  phy::PhyPort& nic_port() { return port(0); }
  Mac& nic() { return mac(0); }

  /// Send a frame from an application: traverses the TX software stack
  /// (random delay) and then enters the NIC queue. Returns immediately.
  void send_app(Frame frame);

  /// Send a frame directly from the NIC (no software stack) — used by
  /// hardware-assisted protocol agents that bypass the kernel. The source
  /// address is stamped with this host's NIC address.
  bool send_hw(Frame frame) {
    frame.src = addr_;
    return nic().enqueue(frame);
  }

  /// Raw receive at the MAC boundary (before the stack model):
  /// `on_hw_receive.add(ethertype, handler)` hears every clean frame of that
  /// EtherType addressed to us (or broadcast/multicast), with its hardware
  /// RX timestamp.
  EtherTypeHandlers<const Frame&, fs_t> on_hw_receive;

  /// Application receive: frame, hardware RX timestamp, and the later
  /// software delivery time. Any handler here puts every frame addressed to
  /// us through the RX stack model: one stack delay and one delivery event
  /// per frame, claimed or not.
  EtherTypeHandlers<const Frame&, fs_t, fs_t> on_app_receive;

 protected:
  void on_port_added(std::size_t index) override;

 private:
  void handle_rx(const Frame& frame, fs_t rx_time);

  MacAddr addr_;
  StackModel tx_stack_;
  StackModel rx_stack_;
};

}  // namespace dtpsim::net
