#include "net/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace dtpsim::net {

Network::Network(sim::Simulator& sim, NetworkParams params)
    : sim_(sim), params_(params), rng_(sim.fork_rng(0x4E7B0)) {}

double Network::sample_ppm() {
  return rng_.uniform_real(-params_.ppm_spread, params_.ppm_spread);
}

DeviceParams Network::make_device_params(double ppm) {
  DeviceParams dp;
  dp.rate = params_.rate;
  dp.ppm = ppm;
  // Negative phase: tick 0's edge lands just before t = 0 so tick queries at
  // any t >= 0 are valid while tick grids are still randomly staggered.
  dp.phase = -static_cast<fs_t>(rng_.uniform(
      static_cast<std::uint64_t>(phy::nominal_period(params_.rate))));
  dp.port.fifo = params_.fifo;
  dp.mac = params_.mac;
  return dp;
}

Host& Network::add_host(const std::string& name) { return add_host(name, sample_ppm()); }

Host& Network::add_host(const std::string& name, double ppm) {
  auto host = sim_.arena().make<Host>(sim_, name, MacAddr{next_mac_++},
                                      make_device_params(ppm));
  if (params_.enable_drift) host->enable_drift(params_.drift);
  hosts_.push_back(host.get());
  by_name_.emplace(name, host.get());
  devices_.push_back(std::move(host));
  return *hosts_.back();
}

Switch& Network::add_switch(const std::string& name) { return add_switch(name, sample_ppm()); }

Switch& Network::add_switch(const std::string& name, double ppm) {
  auto sw = sim_.arena().make<Switch>(sim_, name, make_device_params(ppm),
                                      params_.switch_params);
  if (params_.enable_drift) sw->enable_drift(params_.drift);
  switches_.push_back(sw.get());
  by_name_.emplace(name, sw.get());
  devices_.push_back(std::move(sw));
  return *switches_.back();
}

phy::PhyPort& Network::attach_port(Device& d) {
  // Hosts have exactly one NIC port (created at construction); switches grow.
  if (auto* host = dynamic_cast<Host*>(&d)) {
    if (host->nic_port().link_up())
      throw std::logic_error("Network: host " + d.name() + " already connected");
    return host->nic_port();
  }
  return d.add_port();
}

phy::Cable& Network::connect(Device& a, Device& b) {
  return connect_ports(attach_port(a), attach_port(b));
}

phy::Cable& Network::connect_ports(phy::PhyPort& a, phy::PhyPort& b) {
  cables_.push_back(sim_.arena().make<phy::Cable>(sim_, a, b, params_.cable));
  return *cables_.back();
}

TrafficGenerator& Network::add_traffic(Host& src, MacAddr dst, TrafficParams tp) {
  traffic_.push_back(std::make_unique<TrafficGenerator>(sim_, src, dst, tp));
  return *traffic_.back();
}

std::vector<Device*> Network::devices() const {
  std::vector<Device*> out;
  out.reserve(devices_.size());
  for (const auto& d : devices_) out.push_back(d.get());
  return out;
}

Device* Network::find_device(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

void Network::reserve(std::size_t n_devices, std::size_t n_cables) {
  devices_.reserve(n_devices);
  hosts_.reserve(n_devices);
  switches_.reserve(n_devices);
  by_name_.reserve(n_devices);
  cables_.reserve(n_cables);
  sim_.reserve_graph(n_devices, n_cables);
}

StarTopology build_star(Network& net, std::size_t n_hosts, const std::string& prefix) {
  StarTopology topo;
  topo.hub = &net.add_switch("hub");
  for (std::size_t i = 0; i < n_hosts; ++i) {
    Host& h = net.add_host(prefix + std::to_string(i));
    net.connect(*topo.hub, h);
    topo.hosts.push_back(&h);
  }
  return topo;
}

PaperTreeTopology build_paper_tree(Network& net) {
  PaperTreeTopology topo;
  topo.root = &net.add_switch("S0");
  for (int i = 0; i < 3; ++i) {
    topo.aggs[static_cast<std::size_t>(i)] = &net.add_switch("S" + std::to_string(i + 1));
    net.connect(*topo.root, *topo.aggs[static_cast<std::size_t>(i)]);
  }
  // Leaf placement from Fig. 5 / Fig. 6 series labels:
  //   S1: s4 s5 s6   S2: s7 s8   S3: s9 s10 s11
  const std::array<std::size_t, 8> agg_of = {0, 0, 0, 1, 1, 2, 2, 2};
  topo.agg_of_leaf = agg_of;
  for (int i = 0; i < 8; ++i) {
    Host& leaf = net.add_host("S" + std::to_string(i + 4));
    net.connect(*topo.aggs[agg_of[static_cast<std::size_t>(i)]], leaf);
    topo.leaves.push_back(&leaf);
  }
  return topo;
}

ChainTopology build_chain(Network& net, std::size_t n_switches) {
  ChainTopology topo;
  topo.left = &net.add_host("left");
  Device* prev = topo.left;
  for (std::size_t i = 0; i < n_switches; ++i) {
    Switch& sw = net.add_switch("sw" + std::to_string(i));
    net.connect(*prev, sw);
    topo.switches.push_back(&sw);
    prev = &sw;
  }
  topo.right = &net.add_host("right");
  net.connect(*prev, *topo.right);
  return topo;
}

RandomTreeTopology build_random_tree(Network& net, std::uint64_t shape_seed,
                                     std::size_t n_switches, std::size_t n_hosts) {
  if (n_switches == 0) throw std::invalid_argument("build_random_tree: need >= 1 switch");
  RandomTreeTopology topo;
  Rng shape(shape_seed);
  for (std::size_t i = 0; i < n_switches; ++i)
    topo.switches.push_back(&net.add_switch("sw" + std::to_string(i)));
  for (std::size_t i = 1; i < n_switches; ++i)
    net.connect(*topo.switches[shape.uniform(i)], *topo.switches[i]);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    Host& h = net.add_host("h" + std::to_string(i));
    net.connect(*topo.switches[shape.uniform(n_switches)], h);
    topo.hosts.push_back(&h);
  }
  return topo;
}

std::vector<std::unique_ptr<phy::Syntonizer>> syntonize_tree(Network& net, Device& root,
                                                             phy::SyntonizeParams params) {
  // Map ports back to owning devices so BFS can walk cables.
  std::unordered_map<const phy::PhyPort*, Device*> owner;
  for (Device* d : net.devices())
    for (std::size_t p = 0; p < d->port_count(); ++p) owner[&d->port(p)] = d;

  std::vector<std::unique_ptr<phy::Syntonizer>> plls;
  std::unordered_map<Device*, bool> visited;
  visited[&root] = true;
  std::vector<Device*> frontier{&root};
  auto& sim = net.simulator();
  std::uint64_t tag = 0x517E;
  while (!frontier.empty()) {
    std::vector<Device*> next;
    for (Device* d : frontier) {
      for (std::size_t p = 0; p < d->port_count(); ++p) {
        auto* peer = d->port(p).peer();
        if (!peer) continue;
        auto it = owner.find(peer);
        if (it == owner.end() || visited[it->second]) continue;
        visited[it->second] = true;
        plls.push_back(std::make_unique<phy::Syntonizer>(
            sim, it->second->oscillator(), d->oscillator(), params,
            sim.fork_rng(tag++)));
        plls.back()->start();
        next.push_back(it->second);
      }
    }
    frontier = std::move(next);
  }
  return plls;
}

FatTreeTopology build_fat_tree(Network& net, const FatTreeParams& params) {
  const int k = params.k;
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("build_fat_tree: k must be even >= 2");
  const int half = k / 2;
  const int hosts_per_edge = params.hosts_per_edge < 0 ? half : params.hosts_per_edge;
  const int pods = params.pods < 0 ? k : params.pods;
  if (pods < 1 || pods > k)
    throw std::invalid_argument("build_fat_tree: pods must be in [1, k]");

  FatTreeTopology topo;
  topo.k = k;
  topo.pods = pods;

  // Reserve everything ahead: construction is O(n), no vector (or partition
  // registry) reallocation while cabling.
  const std::size_t n_core = static_cast<std::size_t>(half) * half;
  const std::size_t n_agg = static_cast<std::size_t>(pods) * half;
  const std::size_t n_hosts = n_agg * static_cast<std::size_t>(hosts_per_edge);
  const std::size_t n_devices = n_core + 2 * n_agg + n_hosts;
  const std::size_t n_cables = 2 * n_agg * static_cast<std::size_t>(half) + n_hosts;
  net.reserve(n_devices, n_cables);
  topo.core.reserve(n_core);
  topo.agg.reserve(n_agg);
  topo.edge.reserve(n_agg);
  topo.hosts.reserve(n_hosts);

  auto& sim = net.simulator();
  // Each switch reserves its ports' records as one run (Device::
  // reserve_ports), so the records sit in device order.
  for (int i = 0; i < half * half; ++i) {
    topo.core.push_back(&net.add_switch("core" + std::to_string(i)));
    topo.core.back()->reserve_ports(static_cast<std::size_t>(pods));
  }

  for (int pod = 0; pod < pods; ++pod) {
    for (int a = 0; a < half; ++a) {
      Switch& agg = net.add_switch("pod" + std::to_string(pod) + "-agg" + std::to_string(a));
      sim.set_node_pod(agg.node(), pod);
      agg.reserve_ports(static_cast<std::size_t>(2 * half));
      topo.agg.push_back(&agg);
      // Aggregation switch `a` of each pod connects to core group `a`.
      for (int c = 0; c < half; ++c)
        net.connect(agg, *topo.core[static_cast<std::size_t>(a * half + c)]);
    }
    for (int e = 0; e < half; ++e) {
      Switch& edge = net.add_switch("pod" + std::to_string(pod) + "-edge" + std::to_string(e));
      sim.set_node_pod(edge.node(), pod);
      edge.reserve_ports(static_cast<std::size_t>(half + hosts_per_edge));
      topo.edge.push_back(&edge);
      for (int a = 0; a < half; ++a)
        net.connect(edge, *topo.agg[static_cast<std::size_t>(pod * half + a)]);
      for (int h = 0; h < hosts_per_edge; ++h) {
        Host& host = net.add_host("pod" + std::to_string(pod) + "-e" + std::to_string(e) +
                                  "-h" + std::to_string(h));
        sim.set_node_pod(host.node(), pod);
        net.connect(edge, host);
        topo.hosts.push_back(&host);
      }
    }
  }
  return topo;
}

FatTreeTopology build_fat_tree(Network& net, int k, int hosts_per_edge) {
  return build_fat_tree(net, FatTreeParams{k, hosts_per_edge, -1});
}

std::vector<std::pair<Device*, Device*>> cabled_devices(const Network& net) {
  std::unordered_map<const phy::PhyPort*, Device*> owner;
  for (Device* d : net.devices())
    for (std::size_t p = 0; p < d->port_count(); ++p) owner[&d->port(p)] = d;
  std::vector<std::pair<Device*, Device*>> pairs;
  pairs.reserve(net.cables().size());
  for (const auto& cable : net.cables())
    if (cable->connected())
      pairs.emplace_back(owner.at(&cable->port_a()), owner.at(&cable->port_b()));
  return pairs;
}

std::size_t hop_diameter(const Network& net) {
  const std::vector<Device*> devices = net.devices();
  const std::size_t n = devices.size();
  std::unordered_map<const Device*, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) index[devices[i]] = i;
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] : cabled_devices(net)) {
    adj[index[a]].push_back(index[b]);
    adj[index[b]].push_back(index[a]);
  }
  // One BFS per source; the last device a BFS reaches is its farthest.
  constexpr std::size_t kUnreached = static_cast<std::size_t>(-1);
  std::vector<std::size_t> dist(n), order(n);
  std::size_t diameter = 0;
  for (std::size_t src = 0; src < n; ++src) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[src] = 0;
    order[0] = src;
    std::size_t reached = 1;
    for (std::size_t head = 0; head < reached; ++head)
      for (std::size_t v : adj[order[head]])
        if (dist[v] == kUnreached) {
          dist[v] = dist[order[head]] + 1;
          order[reached++] = v;
        }
    diameter = std::max(diameter, dist[order[reached - 1]]);
  }
  return diameter;
}

}  // namespace dtpsim::net
