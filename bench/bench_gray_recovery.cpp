/// Gray-failure recovery — the canonical gray campaign on the paper's Fig. 5
/// tree under MTU-saturated load (DESIGN.md §15).
///
/// Two runs gate the per-port health watchdog end to end. A fault-free
/// control run must produce zero suspicions — the plausibility gate and
/// sibling cross-check sit above everything a healthy network does, so any
/// suspicion on clean hardware is a false positive. The fault run is the
/// `gray` row (stress/campaign.hpp): one instance of every gray class —
/// asymmetric delay, limping port, silent corruption, frozen counter — each
/// victim port detected inside its fault window, remediated through the
/// escalation ladder, back to HEALTHY by the end, with no port disabled, no
/// suspicion outside a fault window, and the sentinel clean. Detection
/// latency (first suspicion minus injection) is this bench's own
/// instrument, reported as p50/p99 across suspected ports and p99-gated.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "stress/campaign.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const stress::RunOptions ro(static_cast<std::uint64_t>(flags.get_int("seed", 4242)));
  stress::Scenario row = *stress::find_scenario("gray");
  dtp::WatchdogParams& wp = *row.watchdog;
  wp.check_period = flags.get_duration("wd-check-period", wp.check_period);
  wp.reinit_backoff = flags.get_duration("wd-backoff", wp.reinit_backoff);
  const fs_t detection_p99_ceiling =
      flags.get_duration("detection-ceiling", from_ms(1));

  banner("Gray-failure recovery  watchdog escalation (Fig. 5 tree, MTU load)");

  // ---- Control run: same network, same load, no faults -------------------
  std::uint64_t control_suspects = 0;
  bool control_clean = false;
  {
    stress::Scenario control = row;
    control.plan = nullptr;
    control.blackouts.clear();
    stress::Campaign c(control, ro);
    c.run();
    control_suspects = c.watchdog()->total_suspects();
    control_clean = c.sentinel()->clean();
    std::printf("  control: suspects=%llu quarantines=%llu sentinel=%s\n",
                static_cast<unsigned long long>(control_suspects),
                static_cast<unsigned long long>(c.watchdog()->total_quarantines()),
                control_clean ? "clean" : "VIOLATED");
  }

  // ---- Fault run: one instance of every gray class ------------------------
  stress::Campaign run(row, ro);
  run.run();
  const chaos::CampaignReport& report = run.report();
  report.print(std::cout);

  // Detection latency: each suspected port is attributed to the fault
  // window containing its first suspicion (the plan's schedule is
  // non-overlapping; the remediation tail may run 3 ms past the heal).
  const dtp::HealthWatchdog& wd = *run.watchdog();
  const std::vector<chaos::FaultSpec>& faults = run.plan().faults;
  std::vector<bool> detected(faults.size(), false);
  SampleSeries detection_us;
  int max_attempts = 0;
  std::uint64_t remediated = 0;
  for (std::size_t i = 0; i < wd.watch_count(); ++i) {
    const dtp::WatchdogPortStats& ws = wd.watch_stats(i);
    if (ws.suspects == 0) continue;
    std::size_t w = faults.size();
    for (std::size_t f = 0; f < faults.size(); ++f)
      if (ws.first_suspected_at >= faults[f].at &&
          ws.first_suspected_at < faults[f].at + faults[f].duration + from_ms(3))
        w = f;
    if (w == faults.size()) {
      std::printf("  STRAY suspicion on %s at %.1f us\n", wd.watch_label(i).c_str(),
                  to_ns_f(ws.first_suspected_at) / 1000.0);
      continue;
    }
    detected[w] = true;
    if (ws.quarantines > 0) ++remediated;
    max_attempts = std::max(max_attempts, ws.attempts);
    const double latency_us = to_ns_f(ws.first_suspected_at - faults[w].at) / 1000.0;
    detection_us.add(latency_us);
    std::printf("  %s [%s]: %s detect=%.1f us quarantines=%llu reinits=%llu "
                "attempts=%d\n",
                wd.watch_label(i).c_str(), chaos::fault_class_name(faults[w].kind),
                dtp::to_string(wd.watch_health(i)), latency_us,
                static_cast<unsigned long long>(ws.quarantines),
                static_cast<unsigned long long>(ws.reinits), ws.attempts);
  }
  for (const auto& v : run.sentinel()->violations())
    std::printf("  !! %s\n", v.to_string().c_str());
  print_sim_stats(run.sim());

  // SampleSeries::percentile takes q in [0, 100].
  const double p50 = detection_us.empty() ? 0.0 : detection_us.percentile(50);
  const double p99 = detection_us.empty() ? 0.0 : detection_us.percentile(99);

  bool pass = benchutil::check("control run: zero false suspicions", control_suspects == 0);
  pass &= benchutil::check("control run: sentinel clean", control_clean);
  for (const stress::Gate& g : run.scenario().gates)
    pass &= benchutil::check(g.name.c_str(), g.holds(run));
  char gate[96];
  std::snprintf(gate, sizeof(gate), "detection p99 %.1f us <= %.1f us", p99,
                to_ns_f(detection_p99_ceiling) / 1000.0);
  pass &= benchutil::check(gate, p99 <= to_ns_f(detection_p99_ceiling) / 1000.0);

  BenchJson json;
  json.add("seed", ro.seed);
  json.add("check_period_us", to_ns_f(wp.check_period) / 1000.0);
  json.add("reinit_backoff_us", to_ns_f(wp.reinit_backoff) / 1000.0);
  json.add("control_false_suspects", control_suspects);
  json.add("detected_classes",
           static_cast<std::uint64_t>(std::count(detected.begin(), detected.end(), true)));
  json.add("remediated_ports", remediated);
  json.add("detection_p50_us", p50);
  json.add("detection_p99_us", p99);
  json.add("max_attempts", static_cast<std::uint64_t>(max_attempts));
  json.add("total_suspects", wd.total_suspects());
  json.add("total_quarantines", wd.total_quarantines());
  json.add("total_reinits", wd.total_reinits());
  json.add("total_disables", wd.total_disables());
  json.add("digest", run.sentinel()->digest().hex());
  json.add_raw("rows", report.rows_json());
  json.add("pass", pass);
  json.write(json_out_path(flags, "gray_recovery"));
  return pass ? 0 : 1;
}
