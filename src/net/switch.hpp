#pragma once

/// \file switch.hpp
/// Output-queued Ethernet switch.
///
/// Frames arriving on one port are forwarded to the egress MAC chosen by a
/// forwarding table (with source learning and flood-on-miss for unicast,
/// flood for multicast/broadcast). The egress MAC's drop-tail queue and the
/// PHY serialization produce the queueing delays that degrade PTP under
/// load (Fig. 6e/6f) — nothing about PTP is special-cased here.
///
/// Forwarding is cut-through (the paper's IBM G8264): a frame becomes
/// eligible for the egress queue once its header has been received plus a
/// fixed pipeline latency. The event engine learns of a frame at full
/// reception, so eligibility is clamped to that instant; for the frame sizes
/// PTP uses the difference is tens of nanoseconds and is symmetric on
/// request/response paths (see DESIGN.md deviations).

#include <cstdint>
#include <unordered_map>

#include "net/device.hpp"
#include "net/frame.hpp"

namespace dtpsim::net {

/// Switch fabric configuration.
struct SwitchParams {
  bool flood_on_miss = true;  ///< flood unknown unicast (tree topologies)
};

/// Forwarding statistics.
struct SwitchStats {
  std::uint64_t forwarded = 0;
  std::uint64_t flooded = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t egress_drops = 0;  ///< MAC queue overflow at enqueue time
};

/// An output-queued learning switch.
class Switch : public Device {
 public:
  Switch(sim::Simulator& sim, std::string name, DeviceParams dev, SwitchParams params = {});

  /// Install a static forwarding entry (used by topology builders).
  void add_route(MacAddr addr, std::size_t port_index);

  /// Lookup (test helper); returns port index or npos.
  static constexpr std::size_t kNoRoute = static_cast<std::size_t>(-1);
  std::size_t route(MacAddr addr) const;

  const SwitchStats& stats() const { return stats_; }

 protected:
  void on_port_added(std::size_t index) override;

 private:
  void handle_rx(std::size_t in_port, const Frame& frame, fs_t rx_time);
  void deliver(std::size_t out_port, const Frame& frame, fs_t eligible);
  fs_t eligible_time(const Frame& frame, fs_t rx_time) const;

  SwitchParams sw_params_;
  SwitchStats stats_;
  std::unordered_map<MacAddr, std::size_t, MacAddrHash> fib_;
};

}  // namespace dtpsim::net
