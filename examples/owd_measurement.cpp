/// One-way delay measurement — the paper's motivating application (§1).
///
/// Two servers behind one rack switch each serve DTP time from a daemon's
/// timebase page. `apps::OwdApp` stamps every probe with the sender's page
/// at the hardware TX instant and reads the receiver's page at the hardware
/// RX instant. A probe whose error exceeds the two pages' claimed
/// uncertainties plus the network's 4TD envelope is a counted failure.
///
/// For contrast, the example computes what free-running crystals would do
/// to the same measurement: their frequency gap times the elapsed time.
///
/// Build & run:  ./build/examples/owd_measurement

#include <cmath>
#include <cstdio>

#include "apps/harness.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

using namespace dtpsim;

int main() {
  sim::Simulator sim(11);
  net::Network net(sim);

  // Two servers, two hops apart through a rack switch, both DTP-enabled.
  net::StarTopology rack = net::build_star(net, 2);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);

  // A daemon and timebase page per server; probes run from the first to the
  // second once DTP has converged and the daemons have calibrated.
  apps::AppHarnessParams hp;
  hp.daemon.poll_period = from_ms(1);
  hp.daemon.sample_period = 0;
  hp.owd_pairs = {{0, 1}};
  apps::AppHarness harness(sim, dtp, rack.hosts, hp);
  const fs_t start = from_ms(5);
  const fs_t until = from_ms(50);
  harness.start_daemons();
  harness.start_apps(start);
  sim.run_until(until);

  const apps::OwdPairStats owd = harness.owd()->total();
  const double budget_ns = hp.owd.network_bound_units * apps::ns_per_unit(harness.daemon(0));
  std::printf("OWD probes judged:       %llu (one per %.0f us)\n",
              static_cast<unsigned long long>(owd.probes), to_ns_f(hp.owd.period) / 1e3);
  std::printf("worst |measured - true|: %.1f ns\n", owd.worst_error_ns);
  std::printf("outside claimed budget:  %llu (both pages' uncertainty + %.0f ns of 4TD)\n",
              static_cast<unsigned long long>(owd.failures), budget_ns);
  std::printf("on a stale page:         %llu\n", static_cast<unsigned long long>(owd.detected));

  const double ppm_a = rack.hosts[0]->oscillator().ppm();
  const double ppm_b = rack.hosts[1]->oscillator().ppm();
  const double drift_ns_per_ms = std::abs(ppm_a - ppm_b) * 1e-6 * 1e6;
  std::printf("\nfree-running crystals at %+.1f and %+.1f ppm would add %.0f ns of error\n"
              "per millisecond, %.0f ns over this %.0f ms run, and keep growing.\n",
              ppm_a, ppm_b, drift_ns_per_ms, drift_ns_per_ms * to_ns_f(until - start) / 1e6,
              to_ns_f(until - start) / 1e6);
  std::printf("\nwith 100 ns-precision clocks, per-hop delay and queueing become\n"
              "directly observable — the paper's Section 1 use case.\n");
  return owd.probes > 0 && owd.failures == 0 ? 0 : 1;
}
