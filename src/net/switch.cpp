#include "net/switch.hpp"

#include <algorithm>

namespace dtpsim::net {

namespace {
constexpr fs_t kPipelineLatency = from_ns(300);  ///< lookup + fabric crossing
}  // namespace

Switch::Switch(sim::Simulator& sim, std::string name, DeviceParams dev, SwitchParams params)
    : Device(sim, std::move(name), dev), sw_params_(params) {}

void Switch::on_port_added(std::size_t index) {
  mac(index).on_receive = [this, index](const Frame& f, fs_t rx_time) {
    handle_rx(index, f, rx_time);
  };
}

void Switch::add_route(MacAddr addr, std::size_t port_index) {
  fib_[addr] = port_index;
}

std::size_t Switch::route(MacAddr addr) const {
  auto it = fib_.find(addr);
  return it == fib_.end() ? kNoRoute : it->second;
}

fs_t Switch::eligible_time(const Frame& frame, fs_t rx_time) const {
  // Cut-through: the header was available one frame-duration minus one
  // header-duration ago; eligibility is clamped to "now" because the event
  // engine only learns of the frame at full reception.
  const fs_t tick = osc_.period();
  const fs_t frame_dur = phy::blocks_for_frame(frame.wire_bytes()) * tick;
  const fs_t header_dur = phy::blocks_for_frame(kMacHeaderBytes + kPreambleBytes) * tick;
  const fs_t eligible = rx_time - frame_dur + header_dur + kPipelineLatency;
  return std::max(eligible, rx_time);
}

void Switch::handle_rx(std::size_t in_port, const Frame& frame, fs_t rx_time) {
  // Source learning.
  if (!frame.src.is_multicast()) fib_[frame.src] = in_port;

  const fs_t eligible = eligible_time(frame, rx_time);

  if (frame.dst.is_broadcast() || frame.dst.is_multicast()) {
    ++stats_.flooded;
    for (std::size_t p = 0; p < port_count(); ++p)
      if (p != in_port && port(p).link_up()) deliver(p, frame, eligible);
    return;
  }
  const std::size_t out = route(frame.dst);
  if (out == kNoRoute) {
    if (!sw_params_.flood_on_miss) {
      ++stats_.dropped_no_route;
      return;
    }
    ++stats_.flooded;
    for (std::size_t p = 0; p < port_count(); ++p)
      if (p != in_port && port(p).link_up()) deliver(p, frame, eligible);
    return;
  }
  if (out == in_port) return;  // hairpin: drop silently
  ++stats_.forwarded;
  deliver(out, frame, eligible);
}

void Switch::deliver(std::size_t out_port, const Frame& frame, fs_t eligible) {
  sim::ScopedAffinity aff(node());
  if (eligible <= sim_.now()) {
    if (!mac(out_port).enqueue(frame)) ++stats_.egress_drops;
    return;
  }
  const std::uint32_t parked = park_frame(frame);
  sim_.schedule_at(
      eligible,
      [this, out_port, parked] {
        if (!mac(out_port).enqueue(unpark_frame(parked))) ++stats_.egress_drops;
      },
      sim::EventCategory::kFrame);
}

}  // namespace dtpsim::net
