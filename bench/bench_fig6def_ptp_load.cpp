/// Fig. 6d/6e/6f — PTP precision vs network load.
///
/// The paper's PTP testbed: servers around one cut-through switch
/// (transparent clock), a grandmaster timeserver, hardware timestamping,
/// Timekeeper-style servo. Three conditions:
///
///   idle    (Fig. 6d): offsets settle to hundreds of nanoseconds;
///   medium  (Fig. 6e): five nodes at 4 Gbps -> tens of microseconds;
///   heavy   (Fig. 6f): all links ~9 Gbps    -> hundreds of microseconds.
///
/// PTP's sync interval is time-scaled (default 4x faster) so steady state
/// fits a short simulation; pass --timescale=1 for the paper's exact 1 Hz.
/// Run one condition with --load=idle|medium|heavy or all three (default).

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "experiments.hpp"

using namespace dtpsim;
using namespace dtpsim::benchutil;

namespace {

struct Result {
  double max_ns = 0;
  double p99_ns = 0;
};

Result run_condition(const std::string& load, fs_t duration, int time_scale,
                     std::uint64_t seed) {
  PtpStarExperiment exp(seed, 8, time_scale);
  const fs_t settle = from_sec(8);
  exp.sim.run_until(settle);

  if (load == "medium") {
    exp.start_load(5, 4e9, 32);
  } else if (load == "heavy") {
    exp.start_load(7, 9e9, 64);
  }
  exp.sim.run_until(settle + duration);

  Result r;
  std::printf("\n[%s] measured offset vs grandmaster per client (ns):\n", load.c_str());
  for (std::size_t i = 0; i < exp.clients.size(); ++i) {
    const auto& truth = exp.clients[i]->true_series();
    const double max_abs = tail_max_abs(truth, 0.6);
    const double p99 = std::max(std::abs(tail_percentile(truth, 99, 0.6)),
                                std::abs(tail_percentile(truth, 1, 0.6)));
    std::printf("  s%-2zu  true max|.|=%12.1f  p99|.|=%12.1f  measured max|.|=%12.1f\n",
                i + 4, max_abs, p99, tail_max_abs(exp.clients[i]->measured_series(), 0.6));
    r.max_ns = std::max(r.max_ns, max_abs);
    r.p99_ns = std::max(r.p99_ns, p99);
  }
  std::printf("  [%s] worst client: max=%.1f ns  p99=%.1f ns\n", load.c_str(), r.max_ns,
              r.p99_ns);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fs_t duration = duration_flag(flags, 10.0);
  const int time_scale = static_cast<int>(flags.get_int("timescale", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6004));
  const std::string which = flags.get_string("load", "all");

  banner("Fig. 6d/6e/6f  PTP: idle vs medium vs heavy load");

  Result idle, medium, heavy;
  bool pass = true;
  if (which == "all" || which == "idle") {
    idle = run_condition("idle", duration, time_scale, seed);
    pass &= benchutil::check("idle PTP at sub-microsecond (hundreds of ns; paper: Fig. 6d)",
                             idle.max_ns < 2'000.0 && idle.max_ns > 10.0);
  }
  if (which == "all" || which == "medium") {
    medium = run_condition("medium", duration, time_scale, seed + 1);
    pass &= benchutil::check("medium load pushes PTP to tens of microseconds (paper: Fig. 6e)",
                             medium.max_ns > 3'000.0 && medium.max_ns < 400'000.0);
  }
  if (which == "all" || which == "heavy") {
    heavy = run_condition("heavy", duration, time_scale, seed + 2);
    pass &= benchutil::check(
        "heavy load pushes PTP to ~hundred-microsecond errors (paper: Fig. 6f)",
        heavy.max_ns > 20'000.0);
  }
  if (which == "all") {
    pass &= benchutil::check("degradation is monotone in load (idle < medium < heavy)",
                             idle.max_ns < medium.max_ns && medium.max_ns < heavy.max_ns);
    std::printf(
        "\nsummary: idle %.0f ns -> medium %.0f ns -> heavy %.0f ns; DTP stays at\n"
        "25.6 ns regardless of load (bench_fig6a/6b) — the paper's core contrast.\n",
        idle.max_ns, medium.max_ns, heavy.max_ns);
  }
  BenchJson json;
  json.add("bench", std::string("fig6def_ptp_load"));
  json.add("idle_max_ns", idle.max_ns);
  json.add("medium_max_ns", medium.max_ns);
  json.add("heavy_max_ns", heavy.max_ns);
  json.add("pass", pass);
  json.write(json_out_path(flags, "fig6def_ptp_load"));
  return pass ? 0 : 1;
}
