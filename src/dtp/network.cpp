#include "dtp/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace dtpsim::dtp {

Agent* DtpNetwork::agent_of(const net::Device* dev) const {
  auto it = by_device_.find(dev);
  return it == by_device_.end() ? nullptr : it->second;
}

unsigned __int128 DtpNetwork::max_pairwise_offset_units(fs_t t) const {
  if (agents_.empty()) return 0;
  // max pairwise |a - b| = max(rel) - min(rel), with every counter measured
  // relative to agent 0 via the wrap-aware signed distance. Raw min/max of
  // the 106-bit values splits the fleet across the 2^106 wrap.
  const WideCounter ref = agents_.front()->global_at(t);
  __int128 lo = 0, hi = 0;
  for (const auto& a : agents_) {
    const __int128 d = a->global_at(t).diff(ref);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return static_cast<unsigned __int128>(hi - lo);
}

double DtpNetwork::max_pairwise_offset_ticks(fs_t t) const {
  if (agents_.empty()) return 0.0;
  const Agent& ref = *agents_.front();
  double lo = 0.0, hi = 0.0;
  for (const auto& a : agents_) {
    const double v = true_offset_fractional(*a, ref, t);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return (hi - lo) / static_cast<double>(ref.params().counter_delta);
}

bool DtpNetwork::all_synced() const {
  for (const auto& a : agents_) {
    for (std::size_t p = 0; p < a->port_count(); ++p) {
      if (a->port_logic(p).state() != PortState::kSynced) return false;
    }
  }
  return true;
}

bool DtpNetwork::remove_agent(const net::Device& dev) {
  auto it = by_device_.find(&dev);
  if (it == by_device_.end()) return false;
  Agent* doomed = it->second;
  by_device_.erase(it);
  std::erase_if(agents_,
                [doomed](const sim::ArenaPtr<Agent>& a) { return a.get() == doomed; });
  return true;
}

Agent& DtpNetwork::attach_agent(net::Device& dev) {
  if (by_device_.count(&dev))
    throw std::logic_error("DtpNetwork: device already has an agent");
  agents_.push_back(dev.simulator().arena().make<Agent>(dev, params_));
  by_device_[&dev] = agents_.back().get();
  return *agents_.back();
}

std::size_t configure_master_tree(DtpNetwork& dtp, net::Device& root) {
  Agent* root_agent = dtp.agent_of(&root);
  if (!root_agent) throw std::invalid_argument("configure_master_tree: root has no agent");

  // Map every PHY port back to (agent, port index) so BFS can walk cables.
  std::unordered_map<const phy::PhyPort*, std::pair<Agent*, std::size_t>> owner;
  for (std::size_t i = 0; i < dtp.size(); ++i) {
    Agent& a = dtp.agent(i);
    for (std::size_t p = 0; p < a.port_count(); ++p)
      owner[&a.port_logic(p).phy_port()] = {&a, p};
  }

  root_agent->set_as_root();
  std::unordered_map<Agent*, bool> visited;
  visited[root_agent] = true;
  std::vector<Agent*> frontier{root_agent};
  std::size_t reached = 1;
  while (!frontier.empty()) {
    std::vector<Agent*> next;
    for (Agent* a : frontier) {
      for (std::size_t p = 0; p < a->port_count(); ++p) {
        const phy::PhyPort* peer = a->port_logic(p).phy_port().peer();
        if (!peer) continue;
        auto it = owner.find(peer);
        if (it == owner.end()) continue;  // neighbor is not DTP-enabled
        auto [neighbor, peer_port] = it->second;
        if (visited[neighbor]) continue;
        visited[neighbor] = true;
        neighbor->set_parent_port(peer_port);
        next.push_back(neighbor);
        ++reached;
      }
    }
    frontier = std::move(next);
  }
  return reached;
}

DtpNetwork enable_dtp(net::Network& net, DtpParams params) {
  DtpNetwork out;
  out.params_ = params;
  for (net::Device* dev : net.devices()) {
    out.agents_.push_back(dev->simulator().arena().make<Agent>(*dev, params));
    out.by_device_[dev] = out.agents_.back().get();
  }
  return out;
}

}  // namespace dtpsim::dtp
