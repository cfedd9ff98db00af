/// Section 3.3 / abstract — the 4TD multi-hop bound.
///
/// "The precision ... is bounded by 4TD where D is the longest distance
/// between any two servers in terms of number of hops": 25.6 ns directly
/// connected, 153.6 ns for a six-hop datacenter. We sweep linear chains
/// D = 1..6 and a k=4 fat-tree (max distance 6 hops) and compare the
/// measured worst offset against 4TD.

#include <cstdio>

#include "common/table.hpp"
#include "bench_util.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

net::NetworkParams exp_params() {
  net::NetworkParams np;
  np.enable_drift = true;
  return np;
}

double measure_max_offset(sim::Simulator& sim, dtp::DtpNetwork& dtp, fs_t duration) {
  double worst = 0;
  const fs_t end = sim.now() + duration;
  while (sim.now() < end) {
    sim.run_until(sim.now() + from_us(50));
    worst = std::max(worst, dtp.max_pairwise_offset_ticks(sim.now()));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 0.3);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6030));

  banner("4TD bound  max offset vs hop count (chains D=1..6 and a fat-tree)");

  Table t({"topology", "D (hops)", "measured max offset", "bound 4TD", "ratio"});
  bool pass = true;

  for (std::size_t d = 1; d <= 6; ++d) {
    sim::Simulator sim(seed + d);
    net::Network net(sim, exp_params());
    if (d == 1) {
      auto& a = net.add_host("a", 100.0);
      auto& b = net.add_host("b", -100.0);
      net.connect(a, b);
    } else {
      net::build_chain(net, d - 1);
    }
    dtp::DtpNetwork dtp = dtp::enable_dtp(net);
    sim.run_until(from_ms(3));
    const double worst = measure_max_offset(sim, dtp, duration);
    const double bound = 4.0 * static_cast<double>(d);
    t.add_row({d == 1 ? "direct link" : Table::cell("chain-%zu", d - 1),
               Table::cell("%zu", d), Table::cell("%5.2f ticks = %6.1f ns", worst, worst * 6.4),
               Table::cell("%5.1f ticks = %6.1f ns", bound, bound * 6.4),
               Table::cell("%.2f", worst / bound)});
    pass &= worst <= bound;
  }

  {
    sim::Simulator sim(seed + 100);
    net::Network net(sim, exp_params());
    net::build_fat_tree(net, 4);
    dtp::DtpNetwork dtp = dtp::enable_dtp(net);
    sim.run_until(from_ms(4));
    const double worst = measure_max_offset(sim, dtp, duration);
    const double bound = 24.0;  // 6 hops
    t.add_row({"fat-tree k=4 (36 devices)", "6",
               Table::cell("%5.2f ticks = %6.1f ns", worst, worst * 6.4),
               Table::cell("%5.1f ticks = %6.1f ns", bound, bound * 6.4),
               Table::cell("%.2f", worst / bound)});
    pass &= worst <= bound;
  }

  std::printf("\n%s\n", t.render().c_str());
  std::printf("paper: 25.6 ns for direct links, 153.6 ns for six hops.\n");
  const bool ok = check("measured offsets within 4TD at every D", pass);
  BenchJson json;
  json.add("bench", std::string("bound_4td"));
  json.add("pass", ok);
  json.write(json_out_path(flags, "bound_4td"));
  return ok ? 0 : 1;
}
