/// Section 6 takeaway 5 — convergence time.
///
/// "DTP synchronizes clocks in a short period of time, within two BEACON
/// intervals. PTP, however, took about 10 minutes for a client to have an
/// offset below one microsecond." We cold-start both protocols and measure
/// time-to-threshold.

#include <cstdio>

#include "bench_util.hpp"
#include "dtp/network.hpp"
#include "experiments.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6040));

  banner("Convergence  DTP (two beacon intervals) vs PTP (minutes)");

  // --- DTP: time from link-up until the pair is within 4 ticks.
  fs_t dtp_converged_at = -1;
  {
    sim::Simulator sim(seed);
    net::Network net(sim, default_net_params());
    auto& a = net.add_host("a", 100.0);
    auto& b = net.add_host("b", -100.0);
    net.connect(a, b);
    // Pre-age a so b must make a large adjustment at startup.
    dtp::DtpParams params;
    dtp::Agent agent_a(a, params), agent_b(b, params);
    agent_a.force_global(0, WideCounter(1'000'000));
    while (sim.now() < from_ms(10)) {
      sim.run_until(sim.now() + from_us(1));
      if (std::abs(dtp::true_offset_fractional(agent_a, agent_b, sim.now())) <= 4.0 &&
          agent_b.port_logic(0).state() == dtp::PortState::kSynced) {
        dtp_converged_at = sim.now();
        break;
      }
    }
  }
  if (dtp_converged_at >= 0)
    std::printf("\nDTP: converged to <=4 ticks in %s (beacon interval = %s)\n",
                format_duration(dtp_converged_at).c_str(),
                format_duration(200 * 6'400'000).c_str());
  else
    std::printf("\nDTP: did not converge within 10 ms\n");

  // --- PTP: time from cold start until |true offset| stays below 1 us.
  fs_t ptp_converged_at = -1;
  {
    PtpStarExperiment exp(seed + 1, 1, /*time_scale=*/1);  // paper's 1 Hz sync
    const fs_t horizon = from_sec(120);
    fs_t below_since = -1;
    while (exp.sim.now() < horizon) {
      exp.sim.run_until(exp.sim.now() + from_ms(100));
      const fs_t now = exp.sim.now();
      const double err = std::abs(exp.clients[0]->phc().time_ns_at(now) -
                                  exp.gm->phc().time_ns_at(now));
      if (err < 1'000.0) {
        if (below_since < 0) below_since = now;
        if (now - below_since > from_sec(5)) {  // stayed below for 5 s
          ptp_converged_at = below_since;
          break;
        }
      } else {
        below_since = -1;
      }
    }
  }
  if (ptp_converged_at >= 0)
    std::printf("PTP: offset first stayed below 1 us after %s (1 Hz sync)\n",
                format_duration(ptp_converged_at).c_str());
  else
    std::printf("PTP: not converged within 120 s\n");

  const double ratio = ptp_converged_at > 0 && dtp_converged_at > 0
                           ? to_sec_f(ptp_converged_at) / to_sec_f(dtp_converged_at)
                           : 1e9;
  std::printf("\nPTP-to-DTP convergence ratio: %.0fx\n", ratio);

  const bool pass =
      check("DTP converges within ~2 beacon intervals (+ slot/propagation)",
            dtp_converged_at >= 0 && dtp_converged_at < 8 * 200 * 6'400'000LL) &
      check("PTP takes several orders of magnitude longer", ratio > 1'000.0);
  BenchJson json;
  json.add("bench", std::string("convergence"));
  json.add("dtp_converged_ns", to_ns_f(dtp_converged_at >= 0 ? dtp_converged_at : 0));
  json.add("ptp_to_dtp_ratio", ratio);
  json.add("pass", pass);
  json.write(json_out_path(flags, "convergence"));
  return pass ? 0 : 1;
}
