/// Sentinel overhead — cost of the always-on invariant monitors on the
/// critical path, measured on the Fig. 6a workload (paper tree, saturating
/// MTU load, BEACON interval 200).
///
/// Two otherwise-identical runs: monitors off vs a full check::Sentinel
/// attached (per-port TX/RX probes + the periodic ground-truth sampler).
/// Each of `--reps` reps runs both, off then on, so a host slowdown lands on
/// both sides; each side keeps its best wall time so a background hiccup
/// cannot fail the gate. The gated budget: the monitored run's event
/// throughput regresses < 10%.
///
/// Emits BENCH_sentinel_overhead.json.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "check/sentinel.hpp"
#include "experiments.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

struct Outcome {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t violations = 0;
  check::SentinelStats stats;
};

Outcome run_fig6a(std::uint64_t seed, fs_t duration, bool with_sentinel) {
  dtp::DtpParams params;
  params.beacon_interval_ticks = 200;
  DtpTreeExperiment exp(seed, params);

  // Converge, then load — same phasing as bench_fig6a_dtp_mtu. The sentinel
  // attaches before the measured window so its settle/arm cost is on the
  // clock too.
  exp.converge_then_load(net::kMtuFrameBytes);

  std::unique_ptr<check::Sentinel> sentinel;
  if (with_sentinel)
    sentinel = std::make_unique<check::Sentinel>(exp.net, exp.dtp,
                                                 check::SentinelParams{});

  const std::uint64_t before = exp.sim.events_executed();
  const auto t0 = std::chrono::steady_clock::now();
  exp.sim.run_until(from_ms(4) + duration);
  Outcome out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.events = exp.sim.events_executed() - before;
  if (sentinel) {
    out.violations = sentinel->violation_count();
    out.stats = sentinel->stats();
    for (const auto& v : sentinel->violations())
      std::printf("  VIOLATION %s\n", v.to_string().c_str());
  }
  return out;
}

/// Keeps the faster of `best` and `o`; the first rep fills `best`.
void keep_best(int rep, Outcome& best, const Outcome& o) {
  if (rep == 0 || o.wall_seconds < best.wall_seconds) best = o;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 0.02);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6001));
  const int reps = std::max(1, static_cast<int>(flags.get_int("reps", 3)));

  banner("Sentinel overhead  Fig. 6a workload, monitors off vs full sentinel");

  Outcome off, on;
  for (int i = 0; i < reps; ++i) {
    keep_best(i, off, run_fig6a(seed, duration, /*with_sentinel=*/false));
    keep_best(i, on, run_fig6a(seed, duration, /*with_sentinel=*/true));
  }

  const double mev_off = static_cast<double>(off.events) / off.wall_seconds / 1e6;
  const double mev_on = static_cast<double>(on.events) / on.wall_seconds / 1e6;
  const double overhead = mev_off / mev_on - 1.0;

  std::printf("  monitors off: %10llu events in %.3f s (%.2f Mev/s), best of %d\n",
              static_cast<unsigned long long>(off.events), off.wall_seconds, mev_off,
              reps);
  std::printf("  sentinel on:  %10llu events in %.3f s (%.2f Mev/s), best of %d\n",
              static_cast<unsigned long long>(on.events), on.wall_seconds, mev_on,
              reps);
  std::printf("  throughput overhead: %.2f%%\n", overhead * 100.0);
  std::printf("  sentinel activity: %llu samples, %llu tx-probe, %llu fifo-probe, "
              "%llu offset checks\n",
              static_cast<unsigned long long>(on.stats.samples),
              static_cast<unsigned long long>(on.stats.tx_probe_checks),
              static_cast<unsigned long long>(on.stats.fifo_probe_checks),
              static_cast<unsigned long long>(on.stats.offset_checks));

  const bool pass =
      benchutil::check("sentinel throughput overhead < 10%", overhead < 0.10) &
      benchutil::check("monitored run is violation-free", on.violations == 0) &
      benchutil::check("monitors actually ran (samples, probes, offset checks all > 0)",
                       on.stats.samples > 0 && on.stats.tx_probe_checks > 0 &&
                           on.stats.fifo_probe_checks > 0 && on.stats.offset_checks > 0);

  BenchJson json;
  json.add("bench", std::string("sentinel_overhead"));
  json.add("events_off", off.events);
  json.add("events_on", on.events);
  json.add("wall_seconds_off", off.wall_seconds);
  json.add("wall_seconds_on", on.wall_seconds);
  json.add("mev_per_sec_off", mev_off);
  json.add("mev_per_sec_on", mev_on);
  json.add("overhead_fraction", overhead);
  json.add("sentinel_samples", on.stats.samples);
  json.add("tx_probe_checks", on.stats.tx_probe_checks);
  json.add("fifo_probe_checks", on.stats.fifo_probe_checks);
  json.add("offset_checks", on.stats.offset_checks);
  json.add("violations", on.violations);
  json.add("pass", pass);
  json.write(json_out_path(flags, "sentinel_overhead"));
  return pass ? 0 : 1;
}
