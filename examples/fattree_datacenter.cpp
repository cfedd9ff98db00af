/// Datacenter-scale DTP: a k=4 fat-tree (36 devices, 16 hosts, 6-hop
/// diameter) fully DTP-enabled, with background traffic, demonstrating the
/// abstract's claim: every pair of servers stays within 4TD = 153.6 ns.
///
/// Build & run:  ./build/examples/fattree_datacenter

#include <cstdio>

#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

using namespace dtpsim;

int main() {
  sim::Simulator sim(7);
  net::NetworkParams np;
  np.enable_drift = true;  // oscillators wander with temperature
  net::Network net(sim, np);

  // Build the fabric, then flip every switch and NIC to DTP firmware.
  net::FatTreeTopology ft = net::build_fat_tree(net, 4);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  std::printf("fat-tree k=4: %zu hosts, %zu switches, %zu cables\n", ft.hosts.size(),
              ft.core.size() + ft.agg.size() + ft.edge.size(), net.cables().size());

  // Wait for every port on every device to finish the INIT phase.
  sim.run_until(from_ms(5));
  std::printf("all ports synced: %s\n", dtp.all_synced() ? "yes" : "no");

  // Some east-west traffic inside each pod (DTP rides the idle blocks the
  // frames leave behind; routing stays within the edge switch).
  net::TrafficParams tp;
  tp.rate_bps = 3e9;
  for (int pod = 0; pod < 4; ++pod) {
    net::Host& a = *ft.hosts[static_cast<std::size_t>(pod * 4)];
    net::Host& b = *ft.hosts[static_cast<std::size_t>(pod * 4 + 1)];
    net.add_traffic(a, b.addr(), tp).start();
  }

  // Track the worst pairwise counter disagreement across the whole
  // datacenter for half a simulated second.
  double worst_ticks = 0.0;
  while (sim.now() < from_ms(500)) {
    sim.run_until(sim.now() + from_us(250));
    worst_ticks = std::max(worst_ticks, dtp.max_pairwise_offset_ticks(sim.now()));
  }
  std::printf("worst pairwise offset across all %zu devices: %.2f ticks = %.1f ns\n",
              dtp.size(), worst_ticks, worst_ticks * 6.4);
  std::printf("bound for the 6-hop diameter: 4TD = 24 ticks = 153.6 ns -> %s\n",
              worst_ticks <= 24.0 ? "HOLDS" : "VIOLATED");

  // Where did the time come from? Show one edge switch's view.
  dtp::Agent* edge = dtp.agent_of(ft.edge[0]);
  std::printf("edge switch %s: %zu ports, %llu global-counter adjustments\n",
              edge->device().name().c_str(), edge->port_count(),
              static_cast<unsigned long long>(edge->global_adjustments()));
  return worst_ticks <= 24.0 ? 0 : 1;
}
