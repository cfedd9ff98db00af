/// Table 2 — DTP across Ethernet generations (Section 7).
///
/// One counter unit represents 0.32 ns at every rate; the per-tick
/// increment delta makes counters at different speeds advance at the same
/// wall rate. This harness prints the table and *runs* DTP at every rate,
/// measuring the directly-connected precision bound (4 ticks of that rate's
/// period).

#include <cstdio>

#include "common/table.hpp"
#include "bench_util.hpp"
#include "dtp/agent.hpp"
#include "net/topology.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

struct RateResult {
  double worst_units;    // max |offset| in 0.32 ns counter units
  double bound_units;    // 4 ticks * delta
  bool synced;
};

RateResult run_rate(phy::LinkRate rate, fs_t duration, std::uint64_t seed) {
  const auto& spec = phy::rate_spec(rate);
  net::NetworkParams np;
  np.rate = rate;
  np.enable_drift = true;
  sim::Simulator sim(seed);
  net::Network net(sim, np);
  auto& a = net.add_host("a", 100.0);
  auto& b = net.add_host("b", -100.0);
  net.connect(a, b);
  dtp::DtpParams params;
  params.counter_delta = spec.counter_delta;
  dtp::Agent agent_a(a, params), agent_b(b, params);
  sim.run_until(from_ms(2));

  RateResult r{};
  r.synced = agent_a.port_logic(0).state() == dtp::PortState::kSynced &&
             agent_b.port_logic(0).state() == dtp::PortState::kSynced;
  r.bound_units = 4.0 * spec.counter_delta;
  while (sim.now() < duration) {
    sim.run_until(sim.now() + from_us(50));
    r.worst_units = std::max(
        r.worst_units, std::abs(dtp::true_offset_fractional(agent_a, agent_b, sim.now())));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 0.2);
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6020));

  banner("Table 2  PHY specifications and DTP precision at 1/10/40/100 GbE");

  Table t({"Data Rate", "Encoding", "Data Width", "Frequency", "Period", "Delta",
           "measured max offset", "bound 4T"});
  bool pass = true;
  for (const auto& spec : phy::kRateTable) {
    const RateResult r = run_rate(spec.rate, duration, seed++);
    const double unit_ns = 0.32;
    t.add_row({std::string(spec.name),
               spec.encoding == phy::Encoding::k8b10b ? "8b/10b" : "64b/66b",
               Table::cell("%d bit", spec.data_width_bits),
               Table::cell("%.2f MHz", spec.frequency_hz / 1e6),
               Table::cell("%.2f ns", to_ns_f(spec.period_fs)),
               Table::cell("%u", spec.counter_delta),
               Table::cell("%.1f ns", r.worst_units * unit_ns),
               Table::cell("%.1f ns", r.bound_units * unit_ns)});
    pass &= check(Table::cell("%s: synced and within 4T = %.2f ns", spec.name.data(),
                              r.bound_units * unit_ns)
                      .c_str(),
                  r.synced && r.worst_units <= r.bound_units);
  }
  std::printf("\n%s\n", t.render().c_str());
  std::printf("(delta * 0.32 ns = tick period at every rate; faster PHYs give\n"
              " proportionally tighter absolute bounds — 100 GbE: 4 * 0.64 ns = 2.56 ns)\n");
  BenchJson json;
  json.add("bench", std::string("table2_multirate"));
  json.add("pass", pass);
  json.write(json_out_path(flags, "table2_multirate"));
  return pass ? 0 : 1;
}
