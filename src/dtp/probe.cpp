#include "dtp/probe.hpp"

#include <stdexcept>

namespace dtpsim::dtp {

OffsetProbe::OffsetProbe(sim::Simulator& sim, Agent& sender, std::size_t sender_port,
                         Agent& receiver, std::size_t receiver_port, fs_t period)
    : sim_(sim),
      sender_(sender),
      sender_port_(sender_port),
      receiver_(receiver),
      receiver_port_(receiver_port),
      proc_(sim, period, [this] { fire(); }, sim::EventCategory::kProbe) {
  auto& s_port = sender_.port_logic(sender_port_).phy_port();
  auto& r_port = receiver_.port_logic(receiver_port_).phy_port();
  if (s_port.peer() != &r_port)
    throw std::invalid_argument("OffsetProbe: ports are not cabled together");

  // Runs inside the receiver's event, so it reads the receiver alone
  // (DESIGN.md §12): the sender may already have applied steps past rx_time.
  receiver_.port_logic(receiver_port_).on_log_received =
      [this](std::uint64_t t1_lsb, WideCounter t2, fs_t rx_time) {
        const int bits = receiver_.params().parity ? kParityPayloadBits : kDtpPayloadBits;
        const WideCounter t1 = t2.reconstruct_from_lsb(t1_lsb, bits);
        const auto owd = receiver_.port_logic(receiver_port_).measured_owd();
        if (!owd) return;  // not yet INITed; cannot form offset_hw
        const __int128 offset_units = t2.diff(t1) - *owd;
        const double ticks = static_cast<double>(static_cast<long long>(offset_units)) /
                             static_cast<double>(receiver_.params().counter_delta);
        hw_series_.add(to_sec_f(rx_time), ticks);
      };
}

void OffsetProbe::fire() {
  // A global event: every node stands at now(), so both counters can be read.
  const fs_t now = sim_.now();
  true_series_.add(to_sec_f(now), true_offset_fractional(receiver_, sender_, now) /
                                      static_cast<double>(receiver_.params().counter_delta));
  sender_.port_logic(sender_port_).send_log();
}

}  // namespace dtpsim::dtp
