#include "net/host.hpp"

namespace dtpsim::net {

namespace {
constexpr fs_t kStackBase = from_us(2);         ///< deterministic syscall/kernel-buffer/DMA cost
constexpr fs_t kStackJitterMean = from_us(1);   ///< exponential jitter added on top
constexpr double kStackSpikeProb = 0.01;        ///< probability of a scheduling spike
constexpr fs_t kStackSpikeMean = from_us(50);   ///< exponential spike magnitude
}  // namespace

fs_t StackModel::sample() {
  fs_t d = kStackBase +
           static_cast<fs_t>(rng_.exponential(static_cast<double>(kStackJitterMean)));
  if (rng_.bernoulli(kStackSpikeProb))
    d += static_cast<fs_t>(rng_.exponential(static_cast<double>(kStackSpikeMean)));
  return d;
}

Host::Host(sim::Simulator& sim, std::string name, MacAddr addr, DeviceParams dev)
    : Device(sim, std::move(name), dev),
      addr_(addr),
      tx_stack_(sim.fork_rng(0x7C5ULL ^ addr.value)),
      rx_stack_(sim.fork_rng(0x7C6ULL ^ addr.value)) {
  add_port();
}

void Host::on_port_added(std::size_t index) {
  mac(index).on_receive = [this](const Frame& f, fs_t rx_time) { handle_rx(f, rx_time); };
}

void Host::send_app(Frame frame) {
  sim::ScopedAffinity aff(node());
  frame.src = addr_;
  const fs_t delay = tx_stack_.sample();
  const std::uint32_t parked = park_frame(std::move(frame));
  sim_.schedule_in(delay, [this, parked] { nic().enqueue(unpark_frame(parked)); },
                   sim::EventCategory::kFrame);
}

void Host::handle_rx(const Frame& frame, fs_t rx_time) {
  sim::ScopedAffinity aff(node());
  if (!(frame.dst == addr_) && !frame.dst.is_broadcast() && !frame.dst.is_multicast()) return;
  on_hw_receive(frame, rx_time);
  if (on_app_receive.empty()) return;
  const fs_t delay = rx_stack_.sample();
  const std::uint32_t parked = park_frame(frame);
  sim_.schedule_in(
      delay,
      [this, parked, rx_time] { on_app_receive(unpark_frame(parked), rx_time, sim_.now()); },
      sim::EventCategory::kFrame);
}

}  // namespace dtpsim::net
