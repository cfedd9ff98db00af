/// Observability overhead — cost of a fully-enabled obs::Session (trace sink
/// + metrics registry + periodic snapshots + per-port instrumentation) on
/// the Fig. 6a workload (paper tree, saturating MTU load, BEACON interval
/// 200).
///
/// Two otherwise-identical runs: observability off (the null-hub fast path
/// every production run takes) vs a Session with tracing and metrics both
/// enabled, recording in memory so disk speed cannot skew the measurement.
/// Each of `--reps` reps runs both, off then on, so a host slowdown lands on
/// both sides; each side keeps its best wall time so a background hiccup
/// cannot fail the gate. The gated budget: the instrumented run's event
/// throughput regresses < 10%.
///
/// Emits BENCH_obs_overhead.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "experiments.hpp"
#include "obs/session.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

struct Outcome {
  double wall_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t metrics = 0;
  std::uint64_t snapshots = 0;
};

Outcome run_fig6a(std::uint64_t seed, fs_t duration, bool with_obs) {
  dtp::DtpParams params;
  params.beacon_interval_ticks = 200;
  DtpTreeExperiment exp(seed, params);

  // Converge, then load — same phasing as bench_sentinel_overhead. The
  // session attaches before the measured window so its probe registration
  // and snapshot scheduling cost is on the clock too.
  exp.converge_then_load(net::kMtuFrameBytes);

  const fs_t end = from_ms(4) + duration;
  std::unique_ptr<obs::Session> session;
  if (with_obs) {
    obs::SessionConfig cfg;
    cfg.trace_in_memory = true;
    cfg.metrics_in_memory = true;
    session = std::make_unique<obs::Session>(exp.net, &exp.dtp, cfg);
    session->start(end);
  }

  const std::uint64_t before = exp.sim.events_executed();
  const auto t0 = std::chrono::steady_clock::now();
  exp.sim.run_until(end);
  Outcome out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.events = exp.sim.events_executed() - before;
  if (session) {
    out.trace_events = session->hub().trace_sink().event_count();
    out.trace_dropped = session->hub().trace_sink().dropped();
    out.metrics = session->hub().metrics_registry().size();
    out.snapshots = session->hub().metrics_registry().snapshot_count();
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
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6005));
  const int reps = std::max(1, static_cast<int>(flags.get_int("reps", 3)));

  banner("Observability overhead  Fig. 6a workload, obs off vs trace+metrics on");

  Outcome off, on;
  for (int i = 0; i < reps; ++i) {
    keep_best(i, off, run_fig6a(seed, duration, /*with_obs=*/false));
    keep_best(i, on, run_fig6a(seed, duration, /*with_obs=*/true));
  }

  const double mev_off = static_cast<double>(off.events) / off.wall_seconds / 1e6;
  const double mev_on = static_cast<double>(on.events) / on.wall_seconds / 1e6;
  const double overhead = mev_off / mev_on - 1.0;

  std::printf("  obs off: %10llu events in %.3f s (%.2f Mev/s), best of %d\n",
              static_cast<unsigned long long>(off.events), off.wall_seconds, mev_off,
              reps);
  std::printf("  obs on:  %10llu events in %.3f s (%.2f Mev/s), best of %d\n",
              static_cast<unsigned long long>(on.events), on.wall_seconds, mev_on,
              reps);
  std::printf("  throughput overhead: %.2f%%\n", overhead * 100.0);
  std::printf("  obs activity: %llu trace events (%llu dropped), %llu metrics, "
              "%llu snapshots\n",
              static_cast<unsigned long long>(on.trace_events),
              static_cast<unsigned long long>(on.trace_dropped),
              static_cast<unsigned long long>(on.metrics),
              static_cast<unsigned long long>(on.snapshots));

  const bool pass =
      benchutil::check("obs throughput overhead < 10%", overhead < 0.10) &
      benchutil::check("observability actually recorded (trace events and snapshots > 0)",
                       on.trace_events > 0 && on.snapshots > 0 && on.metrics > 0) &
      benchutil::check("trace buffer did not overflow", on.trace_dropped == 0);

  BenchJson json;
  json.add("bench", std::string("obs_overhead"));
  json.add("events_off", off.events);
  json.add("events_on", on.events);
  json.add("wall_seconds_off", off.wall_seconds);
  json.add("wall_seconds_on", on.wall_seconds);
  json.add("mev_per_sec_off", mev_off);
  json.add("mev_per_sec_on", mev_on);
  json.add("overhead_fraction", overhead);
  json.add("trace_events", on.trace_events);
  json.add("trace_dropped", on.trace_dropped);
  json.add("metrics", on.metrics);
  json.add("snapshots", on.snapshots);
  json.add("pass", pass);
  json.write(json_out_path(flags, "obs_overhead"));
  return pass ? 0 : 1;
}
