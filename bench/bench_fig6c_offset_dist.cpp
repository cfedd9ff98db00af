/// Fig. 6c — distribution (PDF) of DTP offsets, measured from S3.
///
/// The paper histograms two days of offset_hw samples for S3's links
/// (s3-s9, s3-s10, s3-s11, s3-s0) and finds the mass concentrated on
/// {-1, 0, 1, 2} ticks. We run the same steady-state measurement (compressed
/// in time, with oscillator drift running) and print the per-pair PDF.

#include <cmath>
#include <cstdio>

#include "common/histogram.hpp"
#include "bench_util.hpp"
#include "experiments.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 2.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6003));

  banner("Fig. 6c  DTP: offset distribution from S3 (BEACON interval = 1200)");

  dtp::DtpParams params;
  params.beacon_interval_ticks = 1200;
  DtpTreeExperiment exp(seed, params);

  exp.converge_then_load(net::kJumboFrameBytes);
  exp.start_probes();
  exp.sim.run_until(from_ms(4) + duration);

  // Probes 6..9 are s3-s9, s3-s10, s3-s11, s3-s0.
  bool concentrated = true;
  for (std::size_t i = 6; i < exp.probes.size(); ++i) {
    IntHistogram hist(-8, 8);
    for (const auto& p : exp.probes[i]->hw_series().points())
      hist.add(static_cast<std::int64_t>(std::llround(p.value)));
    std::printf("\n%s: PDF over offset_hw ticks (n=%llu)\n", exp.probe_names[i].c_str(),
                static_cast<unsigned long long>(hist.total()));
    std::printf("%s", hist.render(40, false).c_str());
    // The paper's Fig. 6c shape: the whole distribution occupies a handful
    // of adjacent tick values (x-range -2..4 in the paper; the center is a
    // per-pair constant set by the OWD measurement draw). Find the best
    // 4-tick window and require it to hold nearly all the mass.
    double best_window = 0;
    for (std::int64_t lo = -8; lo <= 4; ++lo) {
      double mass = 0;
      for (std::int64_t v = lo; v <= lo + 3; ++v) mass += hist.pdf(v);
      best_window = std::max(best_window, mass);
    }
    // An empty probe series is a measurement failure, not a concentrated
    // distribution — min_seen/max_seen are empty and the check must fail.
    if (!hist.min_seen() || !hist.max_seen()) {
      std::printf("  no samples collected for this pair\n");
      concentrated = false;
      continue;
    }
    std::printf("  best 4-tick window holds %.1f%% of mass; range [%lld, %lld]\n",
                100 * best_window, static_cast<long long>(*hist.min_seen()),
                static_cast<long long>(*hist.max_seen()));
    concentrated &= best_window > 0.95;
    concentrated &= *hist.max_seen() - *hist.min_seen() <= 6;  // paper: -2..4
  }

  const bool pass = benchutil::check(
      "S3 offset_hw concentrated on a few adjacent ticks, span <= 6 (paper: Fig. 6c)",
      concentrated);
  BenchJson json;
  json.add("bench", std::string("fig6c_offset_dist"));
  json.add("concentrated", concentrated);
  json.add("pass", pass);
  json.write(json_out_path(flags, "fig6c_offset_dist"));
  return pass ? 0 : 1;
}
