/// Source failover — the canonical source-level chaos campaign on the
/// paper's Fig. 5 tree (DESIGN.md §13).
///
/// A stratum-1 GPS source and a stratum-2 upstream-island source feed
/// hierarchy clients on the remaining leaves; the campaign kills the GPS,
/// turns it into a lying grandmaster, partitions S3's subtree away from
/// every source (holdover), and flaps the GPS's advertised stratum. The
/// `source` row's gates (stress/campaign.hpp) carry the acceptance story:
///
///   * gps_loss: every client locked to another source within two source
///     broadcast intervals (p99, reported in 100 us broadcast units);
///   * rogue_grandmaster: the lie is rejected and the source deselected on
///     every client while the truthful source keeps serving; reconverges
///     once the lie is cleared;
///   * island_partition and stratum_flap reconverge and settle;
///   * the invariant sentinel stays clean with its UTC monitors armed
///     through every fault (no backward served step, honest uncertainty).
///
/// This bench adds a holdover probe: the stranded clients' uncertainty must
/// grow, stay under the refuse-to-serve ceiling, and never understate the
/// true error.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "stress/campaign.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const stress::RunOptions ro(static_cast<std::uint64_t>(flags.get_int("seed", 4242)));

  banner("Source failover  canonical source-level campaign (Fig. 5 tree)");

  stress::Campaign c(*stress::find_scenario("source"), ro);

  // Holdover telemetry: worst true drift and worst reported uncertainty of
  // any client while free-running, plus an honesty flag sampled at the same
  // instants (|served - true| must never exceed the reported uncertainty).
  double max_drift_fs = 0, max_uncertainty_fs = 0;
  bool holdover_honest = true;
  sim::PeriodicProcess holdover_probe(
      c.sim(), from_us(20),
      [&] {
        const fs_t now = c.sim().now();
        for (const auto& client : c.hierarchy().clients()) {
          const dtp::ServedTime st = client->serve(now);
          if (st.status != dtp::HierarchyStatus::kHoldover) continue;
          const double err = std::abs(st.utc - static_cast<double>(now));
          max_drift_fs = std::max(max_drift_fs, err);
          max_uncertainty_fs = std::max(max_uncertainty_fs, st.uncertainty);
          if (err > st.uncertainty) holdover_honest = false;
        }
      },
      sim::EventCategory::kProbe);
  holdover_probe.start();

  c.run();

  const chaos::CampaignReport& report = c.report();
  report.print(std::cout);
  const double ceiling_fs = static_cast<double>(dtp::HierarchyParams{}.holdover_ceiling);
  std::printf("  holdover: worst drift %.1f ns, worst uncertainty %.1f ns "
              "(ceiling %.1f ns)\n",
              max_drift_fs * 1e-6, max_uncertainty_fs * 1e-6, ceiling_fs * 1e-6);
  print_sim_stats(c.sim());

  BenchJson json;
  json.add("seed", ro.seed);
  json.add("source_period_us", to_us_f(c.hierarchy().servers().front()->params().period));
  json.add("threshold_ticks", c.plan().faults.front().probe_threshold_ticks);
  for (const auto& [cls, s] : report.by_class()) {
    json.add(cls + "_n", static_cast<std::uint64_t>(s.n));
    json.add(cls + "_converged", static_cast<std::uint64_t>(s.converged));
    json.add(cls + "_p50_bi", s.p50_bi);
    json.add(cls + "_p99_bi", s.p99_bi);
  }
  json.add("holdover_max_drift_ns", max_drift_fs * 1e-6);
  json.add("holdover_max_uncertainty_ns", max_uncertainty_fs * 1e-6);
  json.add("holdover_ceiling_ns", ceiling_fs * 1e-6);
  const check::Sentinel& sentinel = *c.sentinel();
  json.add("utc_checks", sentinel.stats().utc_checks);
  json.add("violations", sentinel.violation_count());

  bool pass = true;
  for (const stress::Gate& g : c.scenario().gates)
    pass &= benchutil::check(g.name.c_str(), g.holds(c));
  pass &= benchutil::check("island partition actually produced holdover",
                           max_uncertainty_fs > 0);
  pass &= benchutil::check("holdover uncertainty never understated the true drift",
                           holdover_honest);
  pass &= benchutil::check("holdover stayed under the refuse-to-serve ceiling",
                           max_uncertainty_fs <= ceiling_fs);
  for (const auto& v : sentinel.violations()) std::cout << "  !! " << v.to_string() << "\n";

  json.add("pass", pass);
  json.write(json_out_path(flags, "source_failover"));
  return pass ? 0 : 1;
}
