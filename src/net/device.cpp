#include "net/device.hpp"

#include <algorithm>
#include <utility>

namespace dtpsim::net {

Device::Device(sim::Simulator& sim, std::string name, DeviceParams params)
    : sim_(sim),
      osc_(phy::nominal_period(params.rate), params.ppm, params.phase),
      node_(sim.register_node()),
      name_(std::move(name)),
      params_(params) {}

phy::PhyPort& Device::add_port() {
  phy::PortParams pp = params_.port;
  pp.rate = params_.rate;
  const auto index = ports_.size();
  const std::uint32_t id =
      run_next_ < run_end_ ? run_next_++ : sim::PortRecords::kNoPort;
  ports_.push_back(sim_.arena().make<phy::PhyPort>(
      sim_, osc_, pp, name_ + ":p" + std::to_string(index), id));
  ports_.back()->set_node(node_);
  sim_.note_node_port(node_);
  macs_.push_back(std::make_unique<Mac>(sim_, *ports_.back(), params_.mac));
  on_port_added(index);
  return *ports_.back();
}

void Device::reserve_ports(std::size_t n) {
  n = std::min<std::size_t>(n, sim::PortRecords::kMaxRun);
  if (n == 0) return;
  run_next_ = sim_.port_records().allocate(static_cast<std::uint32_t>(n));
  run_end_ = run_next_ + static_cast<std::uint32_t>(n);
  ports_.reserve(ports_.size() + n);
  macs_.reserve(macs_.size() + n);
}

std::uint32_t Device::park_frame(Frame frame) {
  if (parked_free_.empty()) {
    parked_.push_back(std::move(frame));
    return static_cast<std::uint32_t>(parked_.size() - 1);
  }
  const std::uint32_t index = parked_free_.back();
  parked_free_.pop_back();
  parked_[index] = std::move(frame);
  return index;
}

Frame Device::unpark_frame(std::uint32_t index) {
  Frame frame = std::move(parked_[index]);  // drops the pool's packet reference
  parked_free_.push_back(index);
  return frame;
}

void Device::enable_drift(phy::DriftParams dp) {
  if (drift_) return;
  drift_.emplace(sim_, osc_, dp,
                 sim_.fork_rng(0xD21F7 ^ std::hash<std::string>{}(name_)));
  drift_->set_affinity(node_);
  drift_->start();
}

}  // namespace dtpsim::net
