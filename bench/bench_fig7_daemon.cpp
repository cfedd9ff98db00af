/// Fig. 7 — precision of the DTP daemon (software access to the counter).
///
/// 7a: raw offset_sw (daemon estimate minus hardware counter), usually
///     within 16 ticks (~102.4 ns) with occasional PCIe spikes;
/// 7b: after a moving average with window 10, usually within 4 ticks
///     (~25.6 ns).

#include <cmath>
#include <cstdio>

#include "common/histogram.hpp"
#include "bench_util.hpp"
#include "dtp/daemon.hpp"
#include "experiments.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 4.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6005));

  banner("Fig. 7  DTP daemon: raw and smoothed software offsets");

  dtp::DtpParams params;
  DtpTreeExperiment exp(seed, params);
  exp.sim.run_until(from_ms(2));

  // Daemons on a few leaves, each with its own TSC error.
  dtp::DaemonParams dp;
  dp.poll_period = from_ms(20);
  dp.rate_window_polls = 8;
  dp.sample_period = from_ms(4);
  std::vector<std::unique_ptr<dtp::Daemon>> daemons;
  const double tsc_ppms[] = {17.0, -23.0, 8.0, -40.0, 31.0, 5.0};
  for (int i = 0; i < 6; ++i) {
    daemons.push_back(std::make_unique<dtp::Daemon>(
        exp.sim, *exp.dtp.agent_of(exp.tree.leaves[static_cast<std::size_t>(i)]), dp,
        tsc_ppms[i]));
    daemons.back()->start();
  }
  exp.sim.run_until(from_ms(2) + duration);

  bool raw_ok = true, smooth_ok = true;
  double raw_sd_sum = 0, smooth_sd_sum = 0;
  std::printf("\nper-daemon offset_sw (ticks; 1 tick = 6.4 ns):\n");
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    const auto& raw = daemons[i]->raw_series().points();
    const auto& smooth = daemons[i]->smoothed_series().points();
    std::size_t raw16 = 0, smooth4 = 0, raw4 = 0;
    for (const auto& p : raw) {
      raw16 += std::abs(p.value) <= 16.0;
      raw4 += std::abs(p.value) <= 4.0;
    }
    for (const auto& p : smooth) smooth4 += std::abs(p.value) <= 4.0;
    const double f_raw16 = static_cast<double>(raw16) / static_cast<double>(raw.size());
    const double f_smooth4 =
        static_cast<double>(smooth4) / static_cast<double>(smooth.size());
    std::printf(
        "  s%-2zu raw: n=%zu within16=%4.1f%% max|.|=%6.1f | smoothed(w=10): "
        "within4=%4.1f%% max|.|=%6.1f\n",
        i + 4, raw.size(), 100 * f_raw16,
        daemons[i]->raw_series().stats().max_abs(), 100 * f_smooth4,
        daemons[i]->smoothed_series().stats().max_abs());
    raw_ok &= f_raw16 > 0.8;
    smooth_ok &= f_smooth4 > 0.7;
    (void)raw4;
    raw_sd_sum += daemons[i]->raw_series().stats().stddev();
    smooth_sd_sum += daemons[i]->smoothed_series().stats().stddev();
  }

  std::printf("\nFig. 7a-style raw offset histogram (daemon on s4):\n");
  IntHistogram hist(-32, 32);
  for (const auto& p : daemons[0]->raw_series().points())
    hist.add(static_cast<std::int64_t>(std::llround(p.value)));
  std::printf("%s", hist.render(36, false).c_str());

  std::printf("\nsample smoothed trace (s4):\n");
  print_series(daemons[0]->smoothed_series(), 10, "ticks");

  const bool pass =
      benchutil::check("raw offset_sw usually within 16 ticks (paper: Fig. 7a)", raw_ok) &
      benchutil::check("smoothed offset_sw usually within 4 ticks (paper: Fig. 7b)", smooth_ok) &
      benchutil::check("smoothing reduces spread (aggregate stddev)", smooth_sd_sum < raw_sd_sum);
  BenchJson json;
  json.add("bench", std::string("fig7_daemon"));
  json.add("raw_sd_sum", raw_sd_sum);
  json.add("smoothed_sd_sum", smooth_sd_sum);
  json.add("pass", pass);
  json.write(json_out_path(flags, "fig7_daemon"));
  return pass ? 0 : 1;
}
